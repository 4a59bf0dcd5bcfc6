"""Hot numeric kernels: numba @njit with a pure numpy/python fallback.

Backend choice: numba when importable, unless COTPACE_PURE_NUMPY=1 is set
(or numba is missing). Both paths run the same arithmetic in the same
order, so subset-sum values and selection masks agree bit for bit; only
speed differs. (The numpy greedy sweep skips candidates that cannot pass,
which changes no mask.) Tests and benchmarks can switch at runtime via
set_backend.
"""
from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


ENV_FLAG = "COTPACE_PURE_NUMPY"


def _env_wants_numpy() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in ("1", "true", "yes", "on")


_backend = "numpy" if (_env_wants_numpy() or not HAVE_NUMBA) else "numba"


def active_backend() -> str:
    return _backend


def set_backend(name: str) -> None:
    """Force 'numba' or 'numpy'. Used by tests and the benchmark script."""
    global _backend
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    _backend = name


# ---------------------------------------------------------------------------
# subset comparison: lexicographic order on the sorted member lists.
# Lowest differing bit p decides: the mask containing p is smaller unless
# the other mask still has members above p (a shorter prefix wins).


def _lex_smaller_py(a: int, b: int) -> bool:
    if a == b:
        return False
    x = a ^ b
    p_bit = x & (-x)
    above = ~((p_bit << 1) - 1)
    if a & p_bit:
        return (b & above) != 0
    return (a & above) == 0


@njit(cache=True)
def _lex_smaller_nb(a, b):  # pragma: no cover - jitted
    if a == b:
        return False
    x = a ^ b
    p_bit = x & (-x)
    above = ~((p_bit << 1) - 1)
    if a & p_bit:
        return (b & above) != 0
    return (a & above) == 0


# ---------------------------------------------------------------------------
# exhaustive best feasible subset (oracle). Subset sums and per-cluster
# counts are built by doubling over items in index order; value is
# (sum - budget) + beta * sum_k sqrt(count_k), added cluster by cluster.


@njit(cache=True)
def _bruteforce_nb(deltas, clusters, n_clusters, budget, beta):  # pragma: no cover
    n = deltas.shape[0]
    size = 1 << n
    sums = np.zeros(size, dtype=np.float64)
    for i in range(n):
        half = 1 << i
        d = deltas[i]
        for m in range(half):
            sums[half + m] = sums[m] + d
    values = sums - budget
    cnt = np.zeros(size, dtype=np.int64)
    for c in range(n_clusters):
        cnt[0] = 0
        for i in range(n):
            half = 1 << i
            inc = 1 if clusters[i] == c else 0
            for m in range(half):
                cnt[half + m] = cnt[m] + inc
        for m in range(size):
            values[m] = values[m] + beta * np.sqrt(float(cnt[m]))
    best_mask = 0
    best_val = values[0]
    for m in range(1, size):
        if sums[m] <= budget:
            v = values[m]
            if v > best_val:
                best_val = v
                best_mask = m
            elif v == best_val and _lex_smaller_nb(m, best_mask):
                best_mask = m
    return best_val, best_mask


def _bruteforce_np(deltas, clusters, n_clusters, budget, beta):
    n = deltas.shape[0]
    sums = np.zeros(1, dtype=np.float64)
    for i in range(n):
        sums = np.concatenate([sums, sums + deltas[i]])
    values = sums - budget
    for c in range(n_clusters):
        cnt = np.zeros(1, dtype=np.int64)
        for i in range(n):
            cnt = np.concatenate([cnt, cnt + (1 if clusters[i] == c else 0)])
        values = values + beta * np.sqrt(cnt.astype(np.float64))
    masked = np.where(sums <= budget, values, -np.inf)
    best_val = masked.max()
    best_mask = -1
    for m in np.flatnonzero(masked == best_val):
        m = int(m)
        if best_mask < 0 or _lex_smaller_py(m, best_mask):
            best_mask = m
    return float(best_val), best_mask


def bruteforce_best_subset(deltas, clusters, n_clusters, budget, beta):
    """Return (best value, best subset bitmask) over all feasible subsets."""
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    clusters = np.ascontiguousarray(clusters, dtype=np.int64)
    n = deltas.shape[0]
    if n == 0:
        base = -budget  # value of the empty set (all sqrt counts are 0)
        return float(base), 0
    if _backend == "numba":
        val, mask = _bruteforce_nb(deltas, clusters, n_clusters, float(budget), float(beta))
        return float(val), int(mask)
    return _bruteforce_np(deltas, clusters, n_clusters, float(budget), float(beta))


# ---------------------------------------------------------------------------
# threshold-greedy admission sweep. Thresholds start at the largest initial
# gain density and decay by (1 - eps) down to theta_max * eps / (2n). The
# sweep also stops once a decay step no longer lowers theta: an infinite
# theta_max (a delta small enough for (d + beta) / d to overflow) or an eps
# too small to move theta would otherwise loop forever.
# _greedy_admit_seq is the sequential loop that numba compiles;
# _greedy_admit_py gives the same mask while visiting fewer candidates.


def _greedy_admit_seq(deltas, clusters, n_clusters, budget, beta, eps):
    n = deltas.shape[0]
    selected = np.zeros(n, dtype=np.bool_)
    counts = np.zeros(n_clusters, dtype=np.int64)
    total = 0.0
    theta_max = 0.0
    for i in range(n):
        d = deltas[i]
        if d > 0.0 and d <= budget:
            dens = (d + beta) / d
            if dens > theta_max:
                theta_max = dens
    if theta_max > 0.0:
        theta = theta_max
        theta_min = theta_max * eps / (2.0 * n)
        while theta >= theta_min:
            for i in range(n):
                if selected[i]:
                    continue
                d = deltas[i]
                c = clusters[i]
                gain = d + beta * (np.sqrt(counts[c] + 1.0) - np.sqrt(float(counts[c])))
                if d == 0.0:
                    if gain > 0.0:
                        selected[i] = True
                        counts[c] += 1
                elif total + d <= budget and gain / d >= theta:
                    selected[i] = True
                    counts[c] += 1
                    total += d
            lower = theta * (1.0 - eps)
            if not lower < theta:
                break
            theta = lower
    # zero-threshold pass: any remaining feasible candidate with positive
    # gain only raises the (monotone) objective.
    for i in range(n):
        if selected[i]:
            continue
        d = deltas[i]
        c = clusters[i]
        gain = d + beta * (np.sqrt(counts[c] + 1.0) - np.sqrt(float(counts[c])))
        if gain > 0.0 and total + d <= budget:
            selected[i] = True
            counts[c] += 1
            total += d
    return selected


# sqrt(c + 1) - sqrt(c), rounded to float64, is non-increasing for every
# cluster count c below this (tests/test_accel.py checks it).
MONOTONE_COUNTS = 1 << 21


def _greedy_admit_py(deltas, clusters, n_clusters, budget, beta, eps):
    """The mask of _greedy_admit_seq, pass by pass. Within a pass cluster
    counts and the running total only grow, so with beta >= 0 and no
    negative delta a candidate's gain density only falls and its budget
    test only gets harder. A candidate that fails at the start of a pass
    therefore fails at its turn: each pass tests every open candidate at
    once, then walks only those that passed, in index order, re-testing
    each with the live counts and total."""
    n = deltas.shape[0]
    if beta < 0.0 or n >= MONOTONE_COUNTS or np.any(deltas < 0.0):
        return _greedy_admit_seq(deltas, clusters, n_clusters, budget, beta, eps)
    selected = np.zeros(n, dtype=np.bool_)
    counts = np.zeros(n_clusters, dtype=np.int64)
    total = 0.0

    def sweep(theta):  # theta None: the zero-threshold pass
        nonlocal total
        open_ = np.flatnonzero(~selected)
        d = deltas[open_]
        c = counts[clusters[open_]].astype(np.float64)
        gain = d + beta * (np.sqrt(c + 1.0) - np.sqrt(c))
        fits = total + d <= budget
        if theta is None:
            ok = (gain > 0.0) & fits
        else:
            ok = np.where(d == 0.0, gain > 0.0, fits & (gain / d >= theta))
        for i in open_[ok]:
            d = deltas[i]
            c = clusters[i]
            gain = d + beta * (np.sqrt(counts[c] + 1.0) - np.sqrt(float(counts[c])))
            if theta is None:
                admit = gain > 0.0 and total + d <= budget
            elif d == 0.0:
                admit = gain > 0.0
            else:
                admit = total + d <= budget and gain / d >= theta
            if admit:
                selected[i] = True
                counts[c] += 1
                total += d

    # (d + beta) / d and gain / d overflow for tiny d and are nan for d == 0;
    # the comparisons treat both as the sequential loop does.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos = deltas[(deltas > 0.0) & (deltas <= budget)]
        dens = (pos + beta) / pos
        dens = dens[dens > 0.0]
        theta_max = dens.max() if dens.size else 0.0
        if theta_max > 0.0:
            theta = theta_max
            theta_min = theta_max * eps / (2.0 * n)
            while theta >= theta_min:
                sweep(theta)
                lower = theta * (1.0 - eps)
                if not lower < theta:
                    break
                theta = lower
        sweep(None)
    return selected


_greedy_admit_nb = njit(cache=True)(_greedy_admit_seq) if HAVE_NUMBA else _greedy_admit_seq


def greedy_admit(deltas, clusters, n_clusters, budget, beta, eps):
    """Boolean mask of candidates admitted by the decaying threshold sweep."""
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    clusters = np.ascontiguousarray(clusters, dtype=np.int64)
    if deltas.shape[0] == 0:
        return np.zeros(0, dtype=np.bool_)
    if _backend == "numba":
        return _greedy_admit_nb(deltas, clusters, n_clusters, float(budget), float(beta), float(eps))
    return _greedy_admit_py(deltas, clusters, n_clusters, float(budget), float(beta), float(eps))


# ---------------------------------------------------------------------------
# k-means label assignment (squared euclidean, ties to the lowest index).


@njit(cache=True)
def _kmeans_labels_nb(points, centroids):  # pragma: no cover - jitted
    n, dim = points.shape
    k = centroids.shape[0]
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        best = 0
        best_dist = np.inf
        for c in range(k):
            s = 0.0
            for j in range(dim):
                diff = points[i, j] - centroids[c, j]
                s += diff * diff
            if s < best_dist:
                best_dist = s
                best = c
        labels[i] = best
    return labels


def _kmeans_labels_np(points, centroids):
    # Accumulate over dimensions one at a time, mirroring the jitted loop's
    # addition order; numpy's pairwise .sum() rounds differently and can
    # flip the argmin for near-equidistant points.
    n, dim = points.shape
    d2 = np.zeros((n, centroids.shape[0]), dtype=np.float64)
    for j in range(dim):
        diff = points[:, j, None] - centroids[None, :, j]
        d2 += diff * diff
    return np.argmin(d2, axis=1).astype(np.int64)


def kmeans_labels(points, centroids):
    points = np.ascontiguousarray(points, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    if _backend == "numba":
        return _kmeans_labels_nb(points, centroids)
    return _kmeans_labels_np(points, centroids)
