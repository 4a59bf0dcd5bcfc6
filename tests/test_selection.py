"""Clustering, the set value function, and budgeted greedy selection."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotpace.cli import stage_seed
from cotpace.difficulty import DifficultyTable
from cotpace.selection import (
    ClusterAssignment,
    SelectionProblem,
    _best_singleton,
    _lloyd,
    candidate_increments,
    kmeans_cluster,
    read_clusters,
    select_ftgp,
    value_of,
    write_clusters,
)
from cotpace.synth import make_arith_corpus, make_keypoint_corpus
from oracles import BRUTEFORCE_MAX, is_feasible, marginal_gain, select_bruteforce


def _clusters(assignment: dict[str, int], k: int | None = None) -> ClusterAssignment:
    n = k if k is not None else max(assignment.values()) + 1
    return ClusterAssignment(n_clusters=n, assignment=assignment)


def _problem(increments, budget, beta=0.0, assignment=None, k=None):
    if assignment is None:
        assignment = {qid: 0 for qid in increments}
        k = k or 1
    return SelectionProblem(increments, budget, _clusters(assignment, k), beta)


def _random_problem(rng, n=None, k=None, beta=None):
    n = n if n is not None else int(rng.integers(3, 12))
    k = k if k is not None else int(rng.integers(1, 6))
    ids = [f"q{i}" for i in range(n)]
    deltas = rng.uniform(0.0, 3.0, size=n)
    deltas[rng.random(n) < 0.15] = 0.0
    budget = float(rng.uniform(0.0, max(deltas.sum(), 1e-9)))
    assignment = {qid: int(rng.integers(k)) for qid in ids}
    beta = beta if beta is not None else float(rng.choice([0.0, 1.0, 12.0]))
    return _problem(dict(zip(ids, deltas)), budget, beta, assignment, k)


# --- kmeans_cluster -----------------------------------------------------------


def test_kmeans_single_cluster():
    emb = {f"q{i}": np.array([float(i), 0.0]) for i in range(5)}
    out = kmeans_cluster(emb, 1, seed=0)
    assert set(out.assignment.values()) == {0}


def test_kmeans_separates_two_clouds():
    rng = np.random.default_rng(0)
    emb = {}
    for i in range(10):
        emb[f"a{i}"] = np.array([-10.0, 0.0]) + rng.normal(0, 0.1, 2)
        emb[f"b{i}"] = np.array([10.0, 0.0]) + rng.normal(0, 0.1, 2)
    out = kmeans_cluster(emb, 2, seed=3)
    a_labels = {out.assignment[f"a{i}"] for i in range(10)}
    b_labels = {out.assignment[f"b{i}"] for i in range(10)}
    assert len(a_labels) == 1 and len(b_labels) == 1 and a_labels != b_labels


def test_kmeans_deterministic(bundled_corpus):
    emb = {q.id: q.embedding for q in bundled_corpus.questions}
    a = kmeans_cluster(emb, 5, seed=9)
    b = kmeans_cluster(emb, 5, seed=9)
    assert a.assignment == b.assignment
    assert all(0 <= c < 5 for c in a.assignment.values())


def test_kmeans_more_clusters_than_points():
    emb = {"a": np.zeros(2), "b": np.ones(2)}
    out = kmeans_cluster(emb, 4, seed=0)
    assert set(out.assignment) == {"a", "b"}
    assert all(0 <= c < 4 for c in out.assignment.values())


def _kmeans_full_distance_init(points, n_clusters, seed):
    """The ++-style init as it was first written: each new centroid's draw
    recomputes every point's distance to every centroid so far."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((n_clusters, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    for c in range(1, n_clusters):
        d2 = ((points[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2).min(axis=1)
        total = float(d2.sum())
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centroids[c] = points[idx]
    return centroids


def test_kmeans_init_keeps_the_full_distance_draws(monkeypatch):
    # kmeans_cluster keeps a running minimum instead; it must draw the same
    # centroids bit for bit, duplicate points and surplus clusters included,
    # up to its cap of one centroid per point.
    from cotpace import accel

    seen = []
    labels = accel.kmeans_labels

    def first_centroids(points, centroids):
        if not seen:
            seen.append(centroids.copy())
        return labels(points, centroids)

    monkeypatch.setattr(accel, "kmeans_labels", first_centroids)
    rng = np.random.default_rng(17)
    for trial in range(60):
        n, dim, k = int(rng.integers(1, 40)), int(rng.integers(1, 6)), int(rng.integers(1, 9))
        points = rng.normal(size=(n, dim))
        if trial % 3 == 0:  # repeated points, so some draws see a zero total
            points = points[rng.integers(0, max(1, n // 4), size=n)]
        seen.clear()
        kmeans_cluster({f"q{i}": p for i, p in enumerate(points)}, k, seed=trial)
        assert np.array_equal(seen[0], _kmeans_full_distance_init(points, k, trial)[: min(k, n)]), trial


def test_kmeans_runs_over_at_most_one_centroid_per_point(monkeypatch):
    # 20,000 clusters of 4 questions allocated and relabelled 20,000
    # centroids, though at most 4 clusters can be non-empty
    from cotpace import accel

    sizes = []
    labels = accel.kmeans_labels

    def count_centroids(points, centroids):
        sizes.append(centroids.shape[0])
        return labels(points, centroids)

    monkeypatch.setattr(accel, "kmeans_labels", count_centroids)
    emb = {q.id: q.embedding for q in make_arith_corpus(4, seed=5).questions}
    out = kmeans_cluster(emb, 20000, seed=5)
    assert out.n_clusters == 20000 and max(sizes) == 4


def test_kmeans_cap_leaves_the_labels_of_few_points_unchanged():
    # the capped run labels every point as _lloyd over all the requested
    # centroids does, duplicate points included
    rng = np.random.default_rng(23)
    for trial in range(40):
        n, dim = int(rng.integers(1, 12)), int(rng.integers(1, 5))
        points = rng.normal(size=(n, dim))
        if trial % 2 == 0:
            points = points[rng.integers(0, max(1, n // 2), size=n)]
        emb = {f"q{i}": p for i, p in enumerate(points)}
        for k in (n, n + 1, n + 7, 3 * n + 20):
            full = _lloyd(points, k, np.random.default_rng(trial))
            assert list(kmeans_cluster(emb, k, seed=trial).assignment.values()) == full.tolist(), (trial, k)


@pytest.mark.parametrize("k", [5, 100])
def test_kmeans_on_identical_points_settles_in_one_pass(monkeypatch, k):
    # the mean of identical points rounded away from them (by 1.1e-15 on the
    # keypoint corpus's shared embedding), so a duplicate centroid still on
    # the point won the next labelling, and the labels walked one cluster per
    # Lloyd pass: 7 label passes at 5 clusters, the 101 of the pass cap at 100
    from cotpace import accel

    passes = []
    labels = accel.kmeans_labels

    def counted(points, centroids):
        passes.append(centroids.shape[0])
        return labels(points, centroids)

    monkeypatch.setattr(accel, "kmeans_labels", counted)
    point = make_keypoint_corpus(1, seed=1).questions[0].embedding
    out = kmeans_cluster({f"kp{i:03d}": point.copy() for i in range(100)}, k, seed=stage_seed(1, "cluster"))
    assert len(passes) <= 2
    assert len(set(out.assignment.values())) == 1


# --- candidate_increments -----------------------------------------------------


def test_candidate_increments_last_step_first():
    table = DifficultyTable(steps={"q": np.array([1.0, 2.0, 3.0])})
    assert candidate_increments({"q": 3}, table, 1) == {"q": 3.0}
    assert candidate_increments({"q": 2}, table, 1) == {"q": 2.0}


def test_candidate_increments_exhausted_question_absent():
    table = DifficultyTable(steps={"q": np.array([1.0])})
    assert candidate_increments({"q": 0}, table, 1) == {}


def test_candidate_increments_clamps_below_zero():
    table = DifficultyTable(steps={"q": np.array([5.0, 1.0])})
    assert candidate_increments({"q": 1}, table, 2) == {"q": 5.0}


# --- value_of / marginal_gain ---------------------------------------------------


def test_value_of_empty_set_is_minus_budget():
    problem = _problem({"a": 1.0}, 2.0, beta=12.0)
    assert value_of(problem, []) == -2.0


def test_value_of_single_item_hand_case():
    problem = _problem({"a": 1.0}, 2.0, beta=12.0)
    assert abs(value_of(problem, ["a"]) - 11.0) < 1e-12


def test_value_of_prefers_spread_sets():
    same = _problem({"a": 1.0, "b": 1.0}, 0.0, beta=12.0, assignment={"a": 0, "b": 0}, k=2)
    spread = _problem({"a": 1.0, "b": 1.0}, 0.0, beta=12.0, assignment={"a": 0, "b": 1}, k=2)
    assert value_of(spread, ["a", "b"]) > value_of(same, ["a", "b"])


def test_value_gain_identity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        problem = _random_problem(rng)
        m = int(rng.integers(0, len(problem.ids) + 1))
        chosen = list(rng.choice(problem.ids, size=m, replace=False))
        base = sum(problem.increments[q] for q in chosen)
        counts: dict[int, int] = {}
        for q in chosen:
            c = problem.clusters.assignment[q]
            counts[c] = counts.get(c, 0) + 1
        bonus = problem.beta * sum(math.sqrt(v) for v in counts.values())
        gain = value_of(problem, chosen) - value_of(problem, [])
        assert abs(gain - (base + bonus)) < 1e-12


def test_marginal_gain_empty_set():
    problem = _problem({"a": 0.5}, 0.0, beta=12.0)
    assert abs(marginal_gain(problem, [], "a") - 12.5) < 1e-12


def test_marginal_gain_occupied_cluster():
    ids = {"a": 1.0, "b": 1.0, "c": 1.0, "x": 0.25}
    problem = _problem(ids, 10.0, beta=12.0, assignment={q: 0 for q in ids}, k=1)
    gain = marginal_gain(problem, ["a", "b", "c"], "x")
    assert abs(gain - (0.25 + 12.0 * (2.0 - math.sqrt(3.0)))) < 1e-12


def test_marginal_gain_matches_value_difference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        problem = _random_problem(rng)
        m = int(rng.integers(0, len(problem.ids)))
        chosen = list(rng.choice(problem.ids, size=m, replace=False))
        outside = [q for q in problem.ids if q not in chosen]
        x = outside[int(rng.integers(len(outside)))]
        direct = marginal_gain(problem, chosen, x)
        diff = value_of(problem, chosen + [x]) - value_of(problem, chosen)
        assert abs(direct - diff) < 1e-9
        assert direct >= problem.increments[x] - 1e-12


def test_marginal_gain_errors():
    problem = _problem({"a": 1.0}, 0.0)
    with pytest.raises(ValueError):
        marginal_gain(problem, ["a"], "a")
    with pytest.raises(ValueError):
        marginal_gain(problem, [], "zzz")


# --- monotone + submodular (light versions; the acceptance suite runs 1000) ----


def test_monotone_on_random_chains():
    rng = np.random.default_rng(6)
    for _ in range(200):
        problem = _random_problem(rng)
        perm = list(rng.permutation(problem.ids))
        cut = int(rng.integers(0, len(perm) + 1))
        inner, outer = perm[: cut // 2], perm[:cut]
        assert value_of(problem, inner) <= value_of(problem, outer) + 1e-9


def test_submodular_on_random_chains():
    rng = np.random.default_rng(7)
    for _ in range(200):
        problem = _random_problem(rng)
        perm = list(rng.permutation(problem.ids))
        cut = int(rng.integers(0, len(perm)))
        small, large = perm[: cut // 2], perm[:cut]
        x = perm[-1] if perm[-1] not in large else None
        if x is None:
            continue
        assert marginal_gain(problem, small, x) >= marginal_gain(problem, large, x) - 1e-9


# --- select_ftgp / select_bruteforce -------------------------------------------


def test_select_empty_candidates():
    problem = _problem({}, 3.0)
    assert select_ftgp(problem, eps=0.1) == []
    assert select_bruteforce(problem) == []
    assert value_of(problem, []) == -3.0


def test_select_infeasible_candidates_left_out():
    problem = _problem({"a": 5.0, "b": 7.0}, 3.0, beta=1.0)
    assert select_ftgp(problem, eps=0.1) == []


def test_select_zero_delta_always_admissible():
    problem = _problem({"a": 5.0, "z": 0.0}, 1.0, beta=1.0)
    assert select_ftgp(problem, eps=0.1) == ["z"]


def test_is_feasible_accepts_a_generator():
    # three increments of 1.0 do not fit a budget of 1.5, however the
    # chosen ids are passed in
    problem = _problem({"a": 1.0, "b": 1.0, "c": 1.0}, 1.5)
    assert is_feasible(problem, ["a", "b", "c"]) is False
    assert is_feasible(problem, (qid for qid in ["a", "b", "c"])) is False
    assert is_feasible(problem, iter(["a"])) is True


def _best_singleton_by_scan(problem):
    """The singleton scan select_ftgp ran before the closed form: one
    value_of call per candidate, keeping the first of tied maxima."""
    best, best_value = None, -math.inf
    for qid in problem.ids:
        if problem.increments[qid] <= problem.budget:
            v = value_of(problem, [qid])
            if v > best_value:
                best, best_value = qid, v
    return best, best_value


# Few distinct values, so that ties, zero deltas, a zero budget and a zero
# beta all come up often.
_amounts = st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 10.0)


@settings(max_examples=300, deadline=None)
@given(
    deltas=st.lists(_amounts, min_size=1, max_size=12),
    budget=_amounts,
    beta=_amounts,
    k=st.integers(1, 4),
    data=st.data(),
)
def test_best_singleton_matches_the_per_candidate_scan(deltas, budget, beta, k, data):
    ids = [f"q{i}" for i in range(len(deltas))]
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=len(ids), max_size=len(ids)))
    problem = _problem(dict(zip(ids, deltas)), budget, beta, dict(zip(ids, labels)), k)
    assert _best_singleton(problem) == _best_singleton_by_scan(problem)


@settings(max_examples=200, deadline=None)
@given(eps=st.floats(min_value=5e-324, max_value=0.5, exclude_max=True), n=st.integers(1, 40))
def test_every_eps_plans_or_is_refused_by_name(eps, n):
    # a subnormal eps raised OverflowError (1e-320) or "math domain error"
    # (5e-324), neither naming eps
    problem = _problem({f"q{i}": 1.0 + i % 3 for i in range(n)}, budget=n / 2, beta=1.0,
                       assignment={f"q{i}": i % 2 for i in range(n)}, k=2)
    try:
        chosen = select_ftgp(problem, eps)
    except ValueError as exc:
        assert str(exc).startswith(f"eps = {eps} needs ")
    else:
        assert is_feasible(problem, chosen)


def test_bruteforce_hand_case_and_tie_break():
    problem = _problem({"a": 1.0, "b": 2.0, "c": 3.0}, 3.0, beta=0.0)
    assert select_bruteforce(problem) == ["a", "b"]


def test_bruteforce_zero_budget():
    problem = _problem({"a": 1.0, "b": 0.5}, 0.0, beta=0.0)
    assert select_bruteforce(problem) == []


def test_bruteforce_large_beta_takes_everything():
    ids = {f"q{i}": 1.0 for i in range(6)}
    problem = _problem(ids, 6.0, beta=1e6, assignment={q: i % 3 for i, q in enumerate(ids)}, k=3)
    assert select_bruteforce(problem) == list(ids)


def test_bruteforce_guard():
    ids = {f"q{i}": 1.0 for i in range(BRUTEFORCE_MAX + 1)}
    problem = _problem(ids, 5.0)
    with pytest.raises(ValueError):
        select_bruteforce(problem)


def test_ftgp_always_feasible_and_near_optimal():
    rng = np.random.default_rng(8)
    for _ in range(50):
        problem = _random_problem(rng)
        chosen = select_ftgp(problem, eps=0.1)
        assert is_feasible(problem, chosen)
        gain = value_of(problem, chosen) - value_of(problem, [])
        best = select_bruteforce(problem)
        best_gain = value_of(problem, best) - value_of(problem, [])
        assert gain >= (0.5 - 0.1) * best_gain - 1e-9


def test_ftgp_deterministic(bundled_corpus):
    rng = np.random.default_rng(9)
    problem = _random_problem(rng, n=10, k=3, beta=12.0)
    assert select_ftgp(problem, eps=0.1) == select_ftgp(problem, eps=0.1)


# --- persistence ----------------------------------------------------------------


def test_clusters_round_trip(tmp_path):
    corpus = make_arith_corpus(2, seed=0)
    a, b = (q.id for q in corpus.questions)
    clusters = ClusterAssignment(n_clusters=2, assignment={a: 0, b: 1})
    path = tmp_path / "clusters.json"
    write_clusters(clusters, path)
    assert json.loads(path.read_text()) == {"n_clusters": 2, "assignment": {a: 0, b: 1}}
    assert read_clusters(path, corpus) == clusters
