"""Budget-feasible candidate selection with a diversity bonus.

Each candidate question offers a difficulty increment delta (its cost and
its base value). The objective over a chosen set S is

    F(S) = (sum of deltas in S - budget) + beta * sum_k sqrt(|S in cluster k|)

which is monotone and submodular in S; feasibility is sum of deltas <=
budget. select_ftgp runs a decaying-threshold density greedy and returns
the better of the accumulated set and the best feasible singleton.
"""
from __future__ import annotations

import collections
import dataclasses
import math
from collections.abc import Iterable, Mapping

import numpy as np

from . import accel
from .corpus import Corpus, check_ints, encode, expect_type, read_json
from .difficulty import DifficultyTable

# Threshold passes select_ftgp allows. The default eps = 0.1 needs about 100
# passes over 2000 candidates and eps = 0.01 about 1300; each pass can cost a
# walk over every candidate, so an eps near 0 would never finish.
MAX_PASSES = 5000


@dataclasses.dataclass
class ClusterAssignment:
    n_clusters: int
    assignment: dict[str, int]  # question id -> cluster index in [0, n_clusters)


def kmeans_cluster(embeddings: dict[str, np.ndarray], n_clusters: int, seed: int) -> ClusterAssignment:
    """Seeded k-means (greedy ++-style init, Lloyd iterations to a fixed
    point) over min(n_clusters, n) centroids for n points: at most n
    clusters can be non-empty, and the ++ init picks every distinct point
    before any duplicate, so a centroid past the point count would only
    repeat a point. With fewer distinct points than centroids, duplicate
    centroids are allowed. Embeddings so large that a squared distance
    overflows a float are refused with ValueError."""
    ids = list(embeddings)
    points = np.stack([embeddings[i] for i in ids])
    try:
        with np.errstate(over="raise", invalid="raise"):
            labels = _lloyd(points, min(n_clusters, len(ids)), np.random.default_rng(seed))
    except FloatingPointError:
        raise ValueError("field 'embedding': a squared distance between question embeddings overflows a float") from None
    return ClusterAssignment(n_clusters=n_clusters, assignment={qid: int(lab) for qid, lab in zip(ids, labels)})


def _lloyd(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.full(n, np.inf)  # squared distance to the nearest centroid so far
    for c in range(1, n_clusters):
        np.minimum(d2, ((points - centroids[c - 1]) ** 2).sum(axis=1), out=d2)
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
                # the mean of identical points can round away from them, and a
                # duplicate centroid still on the point would then take them
                same = (members == members[0]).all()
                centroids[c] = members[0] if same else members.mean(axis=0)
        new_labels = accel.kmeans_labels(points, centroids)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


@dataclasses.dataclass
class SelectionProblem:
    increments: dict[str, float]  # candidate id -> delta (cost == base value)
    budget: float
    clusters: ClusterAssignment
    beta: float

    def __post_init__(self) -> None:
        self.ids = list(self.increments)
        self.deltas = np.asarray([self.increments[i] for i in self.ids], dtype=np.float64)
        self.cluster_ids = np.asarray(
            [self.clusters.assignment[i] for i in self.ids], dtype=np.int64
        )


def value_of(problem: SelectionProblem, chosen: Iterable[str]) -> float:
    """F(S); same operation order as the kernels (sum - budget, then the
    sqrt bonuses of the clusters S touches, in ascending cluster index)."""
    chosen = set(chosen)
    total = 0.0
    counts: collections.Counter = collections.Counter()
    for qid in problem.ids:
        if qid in chosen:
            total += problem.increments[qid]
            counts[problem.clusters.assignment[qid]] += 1
    value = total - problem.budget
    for c in sorted(counts):  # an empty cluster adds beta * sqrt(0), exactly +0.0
        value = value + problem.beta * math.sqrt(counts[c])
    return value


def select_ftgp(problem: SelectionProblem, eps: float) -> list[str]:
    """Decaying-threshold greedy. Thresholds start at the largest initial
    gain density, decay by (1 - eps) down to eps * theta_max / (2n); each
    pass admits, in input order, any unpicked candidate whose gain density
    clears the threshold and whose delta still fits the budget
    (zero-delta candidates are admitted whenever their gain is positive).
    Returns the better of the accumulated set and the best feasible
    singleton, preferring the accumulated set on ties. Raises ValueError
    when eps needs more than MAX_PASSES threshold passes."""
    if not problem.ids:
        return []
    n = len(problem.ids)
    # The sweep visits theta_max * (1 - eps)**k for every k >= 0 with
    # (1 - eps)**k >= eps / (2n). Counted in floats: a subnormal eps gives
    # an infinite count, and eps / (2n) could round to 0.
    passes = float(np.floor((math.log(eps) - math.log(2 * n)) / math.log1p(-eps))) + 1
    if passes > MAX_PASSES:
        raise ValueError(
            f"eps = {eps} needs {passes:.15g} threshold passes over {n} candidates;"
            f" at most {MAX_PASSES} are allowed, so raise eps"
        )
    mask = accel.greedy_admit(problem.deltas, problem.cluster_ids, problem.budget, problem.beta, eps)
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


def write_clusters(clusters: ClusterAssignment, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(encode({"n_clusters": clusters.n_clusters, "assignment": clusters.assignment}) + "\n")


def read_clusters(path, corpus: Corpus) -> ClusterAssignment:
    """clusters.json for corpus: n_clusters a JSON integer >= 1, and one
    cluster index per corpus question, a JSON integer in [0, n_clusters)
    that also fits the planner's int64 cluster ids."""
    doc = read_json(path, ("n_clusters", "assignment"))
    n_clusters = doc["n_clusters"]
    if type(n_clusters) is not int or n_clusters < 1:  # rejects bool too
        raise ValueError(f"{path}: n_clusters must be an integer >= 1, got {n_clusters!r}")
    assignment = expect_type(doc["assignment"], dict, "assignment", str(path))
    check_ints(path, assignment, "cluster index", dict.fromkeys(assignment, min(n_clusters, 2**63)), closed=False)
    corpus.check_ids(path, assignment, "cluster")
    return ClusterAssignment(n_clusters=n_clusters, assignment=assignment)


def candidate_increments(
    input_steps: Mapping[str, int], table: DifficultyTable, step_reduction: int
) -> dict[str, float]:
    """Difficulty increment each question would add if selected: the sum
    of the next step_reduction step difficulties counted from the back
    (steps c, c-1, ... in one-based terms are spans [c - r, c) zero-based).
    Questions with no input steps left are not candidates."""
    out: dict[str, float] = {}
    for qid, c in input_steps.items():
        if c > 0:
            out[qid] = math.fsum(table.steps[qid][max(0, c - step_reduction) : c])
    return out
