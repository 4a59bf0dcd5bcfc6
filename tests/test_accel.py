"""The compiled kernels and their plain-numpy twins must agree bit for bit."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotpace import accel
from cotpace.cli import stage_seed
from cotpace.selection import kmeans_cluster, select_bruteforce, select_ftgp
from cotpace.synth import make_arith_corpus
from test_selection import _random_problem


@pytest.fixture
def both_backends():
    """Restore whatever backend was active, whatever the test does."""
    original = accel.active_backend()
    yield
    accel.set_backend(original)


def _run_on(backend: str, fn, *args):
    accel.set_backend(backend)
    return fn(*args)


def test_active_backend_is_a_known_name():
    assert accel.active_backend() in ("numba", "numpy")


def test_set_backend_round_trip(both_backends):
    accel.set_backend("numpy")
    assert accel.active_backend() == "numpy"
    with pytest.raises(ValueError, match="unknown backend"):
        accel.set_backend("cuda")


def _child_env() -> dict[str, str]:
    """This environment, minus COTPACE_PURE_NUMPY, with the cotpace checkout
    this process imported first on PYTHONPATH (installed or not)."""
    env = dict(os.environ)
    src = str(Path(accel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop(accel.ENV_FLAG, None)
    return env


def _backend_in_child(flag: str | None) -> tuple[str, str]:
    """Import cotpace.accel in a fresh interpreter; return (backend, flag seen).
    The child gets COTPACE_PURE_NUMPY only if flag is not None."""
    env = _child_env()
    if flag is not None:
        env[accel.ENV_FLAG] = flag
    code = "import cotpace.accel as a; print(a.active_backend(), a._env_wants_numpy())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    backend, seen = out.stdout.split()
    return backend, seen


def test_env_flag_forces_numpy_backend():
    assert _backend_in_child("1") == ("numpy", "True")
    # Without numba the backend is numpy either way, so the flag's own
    # effect shows only in what _env_wants_numpy reports.
    assert _backend_in_child(None) == ("numba" if accel.HAVE_NUMBA else "numpy", "False")


def test_bruteforce_kernels_agree(both_backends):
    if not accel.HAVE_NUMBA:
        pytest.skip("numba unavailable; single backend only")
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 5))
        deltas = rng.uniform(0.0, 3.0, size=n)
        clusters = rng.integers(0, k, size=n)
        budget = float(rng.uniform(0.0, deltas.sum()))
        beta = float(rng.choice([0.0, 1.0, 12.0]))
        val_nb, mask_nb = _run_on("numba", accel.bruteforce_best_subset, deltas, clusters, k, budget, beta)
        val_np, mask_np = _run_on("numpy", accel.bruteforce_best_subset, deltas, clusters, k, budget, beta)
        assert mask_nb == mask_np
        assert val_nb == val_np


def test_greedy_kernels_agree(both_backends):
    if not accel.HAVE_NUMBA:
        pytest.skip("numba unavailable; single backend only")
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(1, 6))
        deltas = rng.uniform(0.0, 3.0, size=n)
        deltas[rng.random(n) < 0.2] = 0.0
        clusters = rng.integers(0, k, size=n)
        budget = float(rng.uniform(0.0, max(deltas.sum(), 1e-9)))
        beta = float(rng.choice([0.0, 1.0, 12.0]))
        got_nb = _run_on("numba", accel.greedy_admit, deltas, clusters, k, budget, beta, 0.1)
        got_np = _run_on("numpy", accel.greedy_admit, deltas, clusters, k, budget, beta, 0.1)
        assert np.array_equal(got_nb, got_np)


def test_kmeans_kernels_agree(both_backends):
    if not accel.HAVE_NUMBA:
        pytest.skip("numba unavailable; single backend only")
    rng = np.random.default_rng(2)
    for _ in range(20):
        points = rng.normal(size=(int(rng.integers(2, 40)), 8))
        centroids = rng.normal(size=(int(rng.integers(1, 6)), 8))
        got_nb = _run_on("numba", accel.kmeans_labels, points, centroids)
        got_np = _run_on("numpy", accel.kmeans_labels, points, centroids)
        assert np.array_equal(got_nb, got_np)


def test_kmeans_ties_go_to_lowest_index(both_backends):
    points = np.zeros((3, 2))
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant from origin
    for backend in ("numpy", "numba") if accel.HAVE_NUMBA else ("numpy",):
        accel.set_backend(backend)
        assert list(accel.kmeans_labels(points, centroids)) == [0, 0, 0]


def test_selection_api_identical_across_backends(both_backends):
    if not accel.HAVE_NUMBA:
        pytest.skip("numba unavailable; single backend only")
    rng = np.random.default_rng(3)
    for _ in range(25):
        problem = _random_problem(rng)
        picks = {}
        for backend in ("numba", "numpy"):
            accel.set_backend(backend)
            picks[backend] = (select_ftgp(problem), select_bruteforce(problem))
        assert picks["numba"] == picks["numpy"]


def test_clustering_identical_across_backends(both_backends):
    if not accel.HAVE_NUMBA:
        pytest.skip("numba unavailable; single backend only")
    rng = np.random.default_rng(4)
    emb = {f"q{i}": rng.normal(size=6) for i in range(30)}
    results = {}
    for backend in ("numba", "numpy"):
        accel.set_backend(backend)
        results[backend] = kmeans_cluster(emb, 4, seed=7)
    assert results["numba"].assignment == results["numpy"].assignment
    assert np.array_equal(results["numba"].centroids, results["numpy"].centroids)


def test_clustering_identical_on_near_tie_embeddings(both_backends):
    # Regression: hashed bag-of-words embeddings put some points almost
    # equidistant between centroids; a numpy path that summed squared
    # distances pairwise instead of dimension by dimension rounded those
    # differently and flipped one label, which Lloyd updates then amplified.
    if not accel.HAVE_NUMBA:
        pytest.skip("numba unavailable; single backend only")
    corpus = make_arith_corpus(30, seed=99)
    emb = {q.id: q.embedding for q in corpus.questions}
    results = {}
    for backend in ("numba", "numpy"):
        accel.set_backend(backend)
        results[backend] = kmeans_cluster(emb, 5, seed=stage_seed(42, "cluster"))
    assert results["numba"].assignment == results["numpy"].assignment
    assert np.array_equal(results["numba"].centroids, results["numpy"].centroids)


def test_empty_inputs_short_circuit():
    val, mask = accel.bruteforce_best_subset(np.zeros(0), np.zeros(0, dtype=np.int64), 1, 2.0, 1.0)
    assert (val, mask) == (-2.0, 0)
    assert accel.greedy_admit(np.zeros(0), np.zeros(0, dtype=np.int64), 1, 1.0, 0.0, 0.1).size == 0


# --- the pruned greedy sweep ------------------------------------------------------

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
    # above the budget all come up; both functions are called directly,
    # so the check needs no numba.
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=len(deltas), max_size=len(deltas)))
    d = np.asarray(deltas, dtype=np.float64)
    c = np.asarray(labels, dtype=np.int64)
    with np.errstate(over="ignore"):
        expected = accel._greedy_admit_seq(d, c, k, budget, beta, eps)
    assert np.array_equal(accel._greedy_admit_py(d, c, k, budget, beta, eps), expected)


def test_sqrt_step_is_non_increasing_below_the_pruning_limit():
    # The pruned sweep skips a candidate that fails at the start of a pass
    # because its gain can only fall as its cluster fills; that needs the
    # rounded sqrt(c + 1) - sqrt(c) to be non-increasing in c.
    prev = np.inf
    for lo in range(0, accel.MONOTONE_COUNTS + 1, 1 << 18):
        c = np.arange(lo, min(lo + (1 << 18) + 1, accel.MONOTONE_COUNTS + 2), dtype=np.float64)
        step = np.sqrt(c + 1.0) - np.sqrt(c)
        assert step[0] <= prev
        assert np.all(np.diff(step) <= 0.0)
        prev = step[-1]


_OVERFLOW_CHILD = """
import numpy as np
from cotpace import accel
from cotpace.selection import ClusterAssignment, SelectionProblem, select_ftgp

d, c = np.array([1e-308, 1.0]), np.array([0, 1])
for name in ("greedy_admit", "_greedy_admit_seq"):
    mask = getattr(accel, name)(d, c, 2, 2.0, 12.0, 0.1)
    assert d[mask].sum() <= 2.0, mask
    print(name, mask.tolist())
clusters = ClusterAssignment(n_clusters=2, assignment={"a": 0, "b": 1}, centroids=np.zeros((2, 1)))
problem = SelectionProblem(increments={"a": 1e-308, "b": 1.0}, budget=2.0, clusters=clusters, beta=12.0)
print("select_ftgp", select_ftgp(problem))
"""


def test_greedy_returns_when_the_first_density_overflows():
    # (1e-308 + 12) / 1e-308 overflows to inf, so the first threshold and
    # the last were both inf and the sweep never ended. Run in a child so
    # a hang fails this test instead of stalling the suite.
    try:
        out = subprocess.run(
            [sys.executable, "-c", _OVERFLOW_CHILD],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("greedy sweep did not return within 30 s")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:3] == [
        "greedy_admit [True, True]",
        "_greedy_admit_seq [True, True]",
        "select_ftgp ['a', 'b']",
    ]
