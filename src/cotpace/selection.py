"""Budget-feasible candidate selection with a diversity bonus.

Each candidate question offers a difficulty increment delta (its cost and
its base value). The objective over a chosen set S is

    F(S) = (sum of deltas in S - budget) + beta * sum_k sqrt(|S in cluster k|)

which is monotone and submodular in S; feasibility is sum of deltas <=
budget. select_ftgp runs a decaying-threshold density greedy and returns
the better of the accumulated set and the best feasible singleton;
select_bruteforce enumerates all subsets (oracle, small n only).
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Iterable, Mapping

import numpy as np

from . import accel
from .corpus import Corpus, expect_type, read_json
from .difficulty import DifficultyTable, DifficultyError

BRUTEFORCE_MAX = 22
# Threshold passes select_ftgp allows. The default eps = 0.1 needs about 100
# passes over 2000 candidates and eps = 0.01 about 1300; each pass can cost a
# walk over every candidate, so an eps near 0 would never finish.
MAX_PASSES = 5000


@dataclasses.dataclass
class ClusterAssignment:
    n_clusters: int
    assignment: dict[str, int]  # question id -> cluster index in [0, n_clusters)
    centroids: np.ndarray  # (n_clusters, dim)


def kmeans_cluster(embeddings: dict[str, np.ndarray], n_clusters: int, seed: int) -> ClusterAssignment:
    """Seeded k-means (greedy ++-style init, Lloyd iterations to a fixed
    point). With fewer distinct points than clusters, duplicate centroids
    are allowed and the surplus clusters stay empty."""
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    ids = list(embeddings)
    if not ids:
        raise ValueError("no embeddings to cluster")
    points = np.stack([np.asarray(embeddings[i], dtype=np.float64) for i in ids])
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    for c in range(1, n_clusters):
        d2 = ((points[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2).min(axis=1)
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[c] = points[idx]
    labels = accel.kmeans_labels(points, centroids)
    for _ in range(100):
        for c in range(n_clusters):
            members = points[labels == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)
        new_labels = accel.kmeans_labels(points, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    assignment = {qid: int(lab) for qid, lab in zip(ids, labels)}
    return ClusterAssignment(n_clusters=n_clusters, assignment=assignment, centroids=centroids)


@dataclasses.dataclass
class SelectionProblem:
    increments: dict[str, float]  # candidate id -> delta (cost == base value)
    budget: float
    clusters: ClusterAssignment
    beta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.budget) or self.budget < 0.0:
            raise ValueError(f"budget must be finite and >= 0, got {self.budget}")
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        for qid, d in self.increments.items():
            if not math.isfinite(d) or d < 0.0:
                raise ValueError(f"candidate {qid!r}: increment must be finite and >= 0, got {d}")
            if qid not in self.clusters.assignment:
                raise ValueError(f"candidate {qid!r} has no cluster assignment")
        self.ids = list(self.increments)
        self.deltas = np.asarray([self.increments[i] for i in self.ids], dtype=np.float64)
        self.cluster_ids = np.asarray(
            [self.clusters.assignment[i] for i in self.ids], dtype=np.int64
        )


def value_of(problem: SelectionProblem, chosen: Iterable[str]) -> float:
    """F(S); same operation order as the kernels (sum - budget, then the
    per-cluster sqrt bonuses in ascending cluster index)."""
    chosen = set(chosen)
    unknown = chosen - set(problem.ids)
    if unknown:
        raise ValueError(f"ids not in candidate set: {sorted(unknown)}")
    total = 0.0
    counts = [0] * problem.clusters.n_clusters
    for qid in problem.ids:
        if qid in chosen:
            total += problem.increments[qid]
            counts[problem.clusters.assignment[qid]] += 1
    value = total - problem.budget
    for c in range(problem.clusters.n_clusters):
        value = value + problem.beta * math.sqrt(counts[c])
    return value


def marginal_gain(problem: SelectionProblem, chosen: Iterable[str], candidate: str) -> float:
    """F(S + x) - F(S) for x not already in S."""
    chosen = set(chosen)
    if candidate in chosen:
        raise ValueError(f"candidate {candidate!r} already chosen")
    if candidate not in problem.increments:
        raise ValueError(f"candidate {candidate!r} not in candidate set")
    k = problem.clusters.assignment[candidate]
    n_k = sum(1 for qid in chosen if problem.clusters.assignment[qid] == k)
    return problem.increments[candidate] + problem.beta * (math.sqrt(n_k + 1) - math.sqrt(n_k))


def is_feasible(problem: SelectionProblem, chosen: Iterable[str]) -> bool:
    chosen = set(chosen)
    total = 0.0
    for qid in problem.ids:
        if qid in chosen:
            total += problem.increments[qid]
    return total <= problem.budget


def select_ftgp(problem: SelectionProblem, eps: float = 0.1) -> list[str]:
    """Decaying-threshold greedy. Thresholds start at the largest initial
    gain density, decay by (1 - eps) down to eps * theta_max / (2n); each
    pass admits, in input order, any unpicked candidate whose gain density
    clears the threshold and whose delta still fits the budget
    (zero-delta candidates are admitted whenever their gain is positive).
    Returns the better of the accumulated set and the best feasible
    singleton, preferring the accumulated set on ties. Raises ValueError
    when eps needs more than MAX_PASSES threshold passes."""
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    if not problem.ids:
        return []
    n = len(problem.ids)
    # The sweep visits theta_max * (1 - eps)**k for every k >= 0 with
    # (1 - eps)**k >= eps / (2n).
    passes = math.floor(math.log(eps / (2 * n)) / math.log1p(-eps)) + 1
    if passes > MAX_PASSES:
        raise ValueError(
            f"eps = {eps} needs {passes} threshold passes over {n} candidates;"
            f" at most {MAX_PASSES} are allowed, so raise eps"
        )
    mask = accel.greedy_admit(
        problem.deltas,
        problem.cluster_ids,
        problem.clusters.n_clusters,
        problem.budget,
        problem.beta,
        eps,
    )
    accumulated = [qid for qid, m in zip(problem.ids, mask) if m]
    best, best_value = _best_singleton(problem)
    if best is not None and best_value > value_of(problem, accumulated):
        return [best]
    return accumulated


def _best_singleton(problem: SelectionProblem) -> tuple[str | None, float]:
    """The first feasible singleton of highest value, with that value;
    (None, -inf) when no candidate fits the budget. A singleton's value is
    (d - budget) + beta, since every other cluster adds beta * sqrt(0)."""
    fits = problem.deltas <= problem.budget
    values = np.where(fits, (problem.deltas - problem.budget) + problem.beta, -math.inf)
    best = int(np.argmax(values))  # the first of tied maxima
    if not fits[best]:
        return None, -math.inf
    return problem.ids[best], float(values[best])


def select_bruteforce(problem: SelectionProblem) -> list[str]:
    """Exhaustive optimum; ties go to the lexicographically smallest set
    of candidate indices. Guarded to <= BRUTEFORCE_MAX candidates."""
    n = len(problem.ids)
    if n > BRUTEFORCE_MAX:
        raise ValueError(f"brute force limited to {BRUTEFORCE_MAX} candidates, got {n}")
    if n == 0:
        return []
    _, mask = accel.bruteforce_best_subset(
        problem.deltas,
        problem.cluster_ids,
        problem.clusters.n_clusters,
        problem.budget,
        problem.beta,
    )
    return [qid for i, qid in enumerate(problem.ids) if (mask >> i) & 1]


def write_clusters(clusters: ClusterAssignment, path) -> None:
    doc = {
        "n_clusters": clusters.n_clusters,
        "assignment": clusters.assignment,
        "centroids": clusters.centroids.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_clusters(path, corpus: Corpus) -> ClusterAssignment:
    """clusters.json for corpus: n_clusters a JSON integer >= 1, and one
    cluster index per corpus question, a JSON integer in [0, n_clusters)
    (int() would take a hand-edited 2.7 for 2 and true for 1)."""
    doc = read_json(path, ("n_clusters", "assignment", "centroids"))
    n_clusters = doc["n_clusters"]
    if type(n_clusters) is not int or n_clusters < 1:  # rejects bool too
        raise ValueError(f"{path}: n_clusters must be an integer >= 1, got {n_clusters!r}")
    assignment = expect_type(doc["assignment"], dict, "assignment", str(path))
    for qid, k in assignment.items():
        if type(k) is not int or not 0 <= k < n_clusters:
            raise ValueError(
                f"{path}: cluster index {k!r} of {qid!r} is not an integer in [0, {n_clusters})"
            )
    corpus.check_ids(path, assignment, "cluster")
    return ClusterAssignment(
        n_clusters=n_clusters,
        assignment=assignment,
        centroids=np.asarray(doc["centroids"], dtype=np.float64),
    )


def candidate_increments(
    input_steps: Mapping[str, int], table: DifficultyTable, step_reduction: int = 1
) -> dict[str, float]:
    """Difficulty increment each question would add if selected: the sum
    of the next step_reduction step difficulties counted from the back
    (steps c, c-1, ... in one-based terms are spans [c - r, c) zero-based).
    Questions with no input steps left are not candidates."""
    if step_reduction < 1:
        raise ValueError(f"step_reduction must be >= 1, got {step_reduction}")
    out: dict[str, float] = {}
    for qid, c in input_steps.items():
        if qid not in table.steps:
            raise KeyError(qid)
        d = table.steps[qid]
        c = int(c)
        if c < 0 or c > d.size:
            raise DifficultyError(f"question {qid!r}: input_steps {c} outside [0, {d.size}]")
        if c == 0:
            continue
        lo = max(0, c - step_reduction)
        out[qid] = math.fsum(d[lo:c])
    return out
