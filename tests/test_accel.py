"""The numpy kernels of the selection stage against plain reference loops."""
from __future__ import annotations

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotpace import accel
from cotpace.cli import stage_seed
from cotpace.corpus import write_corpus
from cotpace.selection import kmeans_cluster
from cotpace.synth import make_arith_corpus
from oracles import bruteforce_best_subset


def test_active_backend_is_a_known_name():
    assert accel.active_backend() == "numpy"
    assert accel.HAVE_NUMBA is False


def _child_env() -> dict[str, str]:
    """This environment with the cotpace checkout this process imported
    first on PYTHONPATH (installed or not)."""
    env = dict(os.environ)
    src = str(Path(accel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, so a hang fails the calling test
    after 30 s instead of stalling the suite."""
    try:
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("child did not return within 30 s")


# --- k-means labels ---------------------------------------------------------------


def _kmeans_labels_loop(points, centroids):
    """Squared distances summed dimension by dimension in a plain loop;
    ties go to the lowest centroid index."""
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    n, dim = points.shape
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        best, best_dist = 0, np.inf
        for c in range(centroids.shape[0]):
            s = 0.0
            for j in range(dim):
                diff = points[i, j] - centroids[c, j]
                s += diff * diff
            if s < best_dist:
                best, best_dist = c, s
        labels[i] = best
    return labels


def test_kmeans_labels_match_the_dimension_loop(monkeypatch):
    rng = np.random.default_rng(2)
    for _ in range(20):
        points = rng.normal(size=(int(rng.integers(2, 40)), 8))
        centroids = rng.normal(size=(int(rng.integers(1, 6)), 8))
        got = accel.kmeans_labels(points, centroids)
        assert np.array_equal(got, _kmeans_labels_loop(points, centroids))
    # Hashed bag-of-words embeddings put some points almost equidistant
    # between centroids. Squared distances summed pairwise instead of
    # dimension by dimension round those differently, flip a label, and the
    # Lloyd updates carry the flip into the assignment.
    corpus = make_arith_corpus(30, seed=99)
    emb = {q.id: q.embedding for q in corpus.questions}
    got = kmeans_cluster(emb, 5, seed=stage_seed(42, "cluster"))
    monkeypatch.setattr(accel, "kmeans_labels", _kmeans_labels_loop)
    expected = kmeans_cluster(emb, 5, seed=stage_seed(42, "cluster"))
    assert got.assignment == expected.assignment


def test_kmeans_ties_go_to_lowest_index():
    points = np.zeros((3, 2))
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant from origin
    assert list(accel.kmeans_labels(points, centroids)) == [0, 0, 0]


def test_empty_inputs_short_circuit():
    val, mask = bruteforce_best_subset(np.zeros(0), np.zeros(0, dtype=np.int64), 1, 2.0, 1.0)
    assert (val, mask) == (-2.0, 0)
    assert accel.greedy_admit(np.zeros(0), np.zeros(0, dtype=np.int64), 1.0, 0.0, 0.1).size == 0


# --- the pruned greedy sweep ------------------------------------------------------


# The plain sequential loop: every pass tests every open candidate in index
# order with the live counts and total. accel.greedy_admit must give its mask.
def _greedy_admit_seq(deltas, clusters, budget, beta, eps):
    n = deltas.shape[0]
    selected = np.zeros(n, dtype=np.bool_)
    counts = dict.fromkeys(clusters.tolist(), 0)
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


# 1e-308 and 5e-324 make (d + beta) / d overflow to inf for beta > 1.
_deltas = st.sampled_from([0.0, 0.5, 1.0, 2.5, 1e-308, 5e-324]) | st.floats(0.0, 10.0)


@settings(max_examples=400, deadline=None)
@given(
    deltas=st.lists(_deltas, min_size=0, max_size=24),
    budget=st.sampled_from([0.0, 1.0, 3.0]) | st.floats(0.0, 30.0),
    beta=st.sampled_from([0.0, 1.0, 12.0]) | st.floats(0.0, 20.0),
    eps=st.sampled_from([0.1, 0.25]) | st.floats(0.01, 0.49),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_pruned_sweep_matches_the_sequential_loop(deltas, budget, beta, eps, k, data):
    # Zero deltas, repeated deltas (ties), budget 0, beta 0 and deltas
    # above the budget all come up.
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=len(deltas), max_size=len(deltas)))
    d = np.asarray(deltas, dtype=np.float64)
    c = np.asarray(labels, dtype=np.int64)
    with np.errstate(over="ignore"):
        expected = _greedy_admit_seq(d, c, budget, beta, eps)
    assert np.array_equal(accel.greedy_admit(d, c, budget, beta, eps), expected)


@pytest.mark.parametrize(
    "n, budget, beta, delta, match",
    [(accel.MONOTONE_COUNTS, 1.0, 1.0, 1.0, "2097152 candidates.*fewer than 2097152")],
)
def test_greedy_refuses_what_its_pruning_does_not_cover(monkeypatch, n, budget, beta, delta, match):
    # The refusal comes before any work: no zeros array is allocated.
    deltas = np.full(n, 1.0)
    deltas[-1] = delta
    clusters = np.zeros(n, dtype=np.int64)

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(accel.np, "zeros", no_work)
    with pytest.raises(ValueError, match=match):
        accel.greedy_admit(deltas, clusters, budget, beta, 0.1)


def test_sqrt_step_is_non_increasing_below_the_pruning_limit():
    # The limit on greedy_admit's candidates comes from here: the pruned sweep skips a candidate that fails at the start of a pass
    # because its gain can only fall as its cluster fills; that needs the
    # rounded sqrt(c + 1) - sqrt(c) to be non-increasing in c.
    prev = np.inf
    for lo in range(0, accel.MONOTONE_COUNTS + 1, 1 << 18):
        c = np.arange(lo, min(lo + (1 << 18) + 1, accel.MONOTONE_COUNTS + 2), dtype=np.float64)
        step = np.sqrt(c + 1.0) - np.sqrt(c)
        assert step[0] <= prev
        assert np.all(np.diff(step) <= 0.0)
        prev = step[-1]


# The child runs the sweep and the oracle, whose source it is given.
_OVERFLOW_CHILD = """
import numpy as np
from cotpace import accel
from cotpace.selection import ClusterAssignment, SelectionProblem, select_ftgp

""" + inspect.getsource(_greedy_admit_seq) + """
d, c = np.array([1e-308, 1.0]), np.array([0, 1])
for name, admit in (("greedy_admit", accel.greedy_admit), ("_greedy_admit_seq", _greedy_admit_seq)):
    mask = admit(d, c, 2.0, 12.0, 0.1)
    assert d[mask].sum() <= 2.0, mask
    print(name, mask.tolist())
clusters = ClusterAssignment(n_clusters=2, assignment={"a": 0, "b": 1})
problem = SelectionProblem(increments={"a": 1e-308, "b": 1.0}, budget=2.0, clusters=clusters, beta=12.0)
print("select_ftgp", select_ftgp(problem, eps=0.1))
"""


def test_greedy_returns_when_the_first_density_overflows():
    # (1e-308 + 12) / 1e-308 overflows to inf, so the first threshold and
    # the last were both inf and the sweep never ended.
    out = _run_child(_OVERFLOW_CHILD)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == [
        "greedy_admit [True, True]",
        "_greedy_admit_seq [True, True]",
        "select_ftgp ['a', 'b']",
    ]


_TINY_EPS_CHILD = """
import sys
import numpy as np
from cotpace.cli import main
from cotpace.selection import ClusterAssignment, SelectionProblem, select_ftgp

clusters = ClusterAssignment(n_clusters=2, assignment={"a": 0, "b": 1})
problem = SelectionProblem(increments={"a": 1.0, "b": 2.0}, budget=5.0, clusters=clusters, beta=1.0)
try:
    select_ftgp(problem, eps=1e-12)
except ValueError as exc:
    print("select_ftgp:", exc)
base = ["--corpus", sys.argv[1], "--out", sys.argv[2], "--seed", "1"]
assert main(["assess", *base]) == 0
assert main(["cluster", *base, "--clusters", "2"]) == 0
print("schedule exit", main(["schedule", *base, "--eps", "1e-12"]))
"""


def test_tiny_eps_is_refused_before_the_sweep(tmp_path):
    # The sweep makes about ln(2n / eps) / eps passes: eps = 1e-12 means
    # about 3e13, which ran until killed. select_ftgp counts them first.
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(make_arith_corpus(10, seed=77), corpus)
    out = _run_child(_TINY_EPS_CHILD, str(corpus), str(tmp_path / "out"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert re.match(r"select_ftgp: eps = 1e-12 needs \d{14} threshold passes over 2 candidates", lines[0]), lines
    assert "schedule exit 2" in lines
    assert "eps = 1e-12 needs" in out.stderr and "threshold passes" in out.stderr
