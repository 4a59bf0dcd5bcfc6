"""Hot numeric kernels of the selection stage, in numpy: the
threshold-greedy admission sweep and the k-means label assignment."""
from __future__ import annotations

import numpy as np

# pipebench's run header reads these two (its `backend` and `numba` fields);
# they go once it reads those fields with a fallback.
HAVE_NUMBA = False


def active_backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# threshold-greedy admission sweep. Thresholds start at the largest initial
# gain density and decay by (1 - eps) down to theta_max * eps / (2n), then a
# last pass at threshold 0 admits any feasible candidate whose gain is still
# positive. The sweep also stops once a decay step no longer lowers theta: an
# infinite theta_max (a delta small enough for (d + beta) / d to overflow) or
# an eps too small to move theta would otherwise loop forever.
# tests/test_accel.py holds the plain per-candidate loop this sweep equals.


# sqrt(c + 1) - sqrt(c), rounded to float64, is non-increasing for every
# cluster count c below this (tests/test_accel.py checks it); the sweep's
# pruning needs that, so it takes fewer candidates than this.
MONOTONE_COUNTS = 1 << 21


def greedy_admit(deltas, clusters, budget, beta, eps):
    """Boolean mask of candidates admitted by the decaying threshold sweep,
    where clusters holds each candidate's cluster index.

    Each pass walks the open candidates in index order and admits one when
    it fits the budget and its gain over its delta reaches the threshold (a
    zero delta: when its gain is positive). Within a pass cluster counts
    and the running total only grow, so with beta >= 0 and no negative
    delta a candidate's gain density only falls and its budget test only
    gets harder. A candidate that fails at the start of a pass therefore
    fails at its turn: each pass tests every open candidate at once, then
    walks only those that passed, re-testing each with the live counts and
    total. Callers pass no negative budget (the planner clamps it), beta (the
    config check) or delta (the difficulty reader). Raises ValueError, before
    any work, for MONOTONE_COUNTS candidates or more."""
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    clusters = np.ascontiguousarray(clusters, dtype=np.int64)
    budget, beta, eps = float(budget), float(beta), float(eps)
    n = deltas.shape[0]
    if n >= MONOTONE_COUNTS:
        raise ValueError(
            f"{n} candidates: the sweep takes fewer than {MONOTONE_COUNTS} (2**21),"
            " below which its pruning holds"
        )
    selected = np.zeros(n, dtype=np.bool_)
    # count only the clusters that hold a candidate: the others stay empty
    used, clusters = np.unique(clusters, return_inverse=True)
    counts = np.zeros(used.size, dtype=np.int64)
    total = 0.0

    def sweep(theta):
        nonlocal total
        open_ = np.flatnonzero(~selected)
        d = deltas[open_]
        c = counts[clusters[open_]].astype(np.float64)
        gain = d + beta * (np.sqrt(c + 1.0) - np.sqrt(c))
        ok = np.where(d == 0.0, gain > 0.0, (total + d <= budget) & (gain / d >= theta))
        for i in open_[ok]:
            d = deltas[i]
            c = clusters[i]
            gain = d + beta * (np.sqrt(counts[c] + 1.0) - np.sqrt(float(counts[c])))
            if d == 0.0:
                admit = gain > 0.0
            else:
                admit = total + d <= budget and gain / d >= theta
            if admit:
                selected[i] = True
                counts[c] += 1
                total += d

    # (d + beta) / d and gain / d overflow for tiny d and are nan for d == 0;
    # the comparisons treat both as the plain loop does.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos = deltas[(deltas > 0.0) & (deltas <= budget)]
        dens = (pos + beta) / pos
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
        # with every delta >= 0, a candidate with d > 0 has gain >= d > 0,
        # so gain / d >= 0 is the zero-threshold pass's gain > 0.
        sweep(0.0)
    return selected


# ---------------------------------------------------------------------------
# k-means label assignment (squared euclidean, ties to the lowest index).


def kmeans_labels(points, centroids):
    # Accumulate over dimensions one at a time; numpy's pairwise .sum()
    # rounds differently and can flip the argmin for near-equidistant
    # points, which changes kmeans_cluster's result.
    points = np.ascontiguousarray(points, dtype=np.float64)
    centroids = np.ascontiguousarray(centroids, dtype=np.float64)
    n, dim = points.shape
    d2 = np.zeros((n, centroids.shape[0]), dtype=np.float64)
    for j in range(dim):
        diff = points[:, j, None] - centroids[None, :, j]
        d2 += diff * diff
    return np.argmin(d2, axis=1).astype(np.int64)
