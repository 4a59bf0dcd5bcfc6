"""Tests of the pipeline benchmark itself, on scaled-down workloads.

    python3 -m pytest -q pipebench/tests

The small keypoint plan exercises `cotpace run` (every stage, the trainer
included) and the small replan plan the single-stage subcommands.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

COUNTS = (
    "weighting.visits",
    "selection.ftgp_calls",
    "selection.candidates",
    "selection.admitted",
    "selection.admit_ratio",
    "accel.greedy_admit_calls",
    "schedule.stages",
    "loss_shaping.shape_calls",
    "loss_shaping.losses_bytes",
    "corpus.parse_calls",
)

SMALL = {
    "keypoint": lambda inputs, seed: run.plan_keypoint(inputs, seed, n=20, weight_epochs=3),
    "replan": lambda inputs, seed: run.plan_replan(inputs, seed, n=100),
}


def traced_twice(tmp_path: Path, workload: str):
    out = []
    launcher = run.Launcher(time.monotonic() + 120.0)
    try:
        for attempt in range(2):
            work = tmp_path / f"{workload}{attempt}"
            (work / "inputs").mkdir(parents=True)
            plan = SMALL[workload](work / "inputs", 5)
            out.append(run.traced(launcher, plan, work))
    finally:
        launcher.close()
    return out


@pytest.fixture(scope="module", params=sorted(SMALL))
def two_traced(request, tmp_path_factory):
    return request.param, traced_twice(tmp_path_factory.mktemp("traced"), request.param)


def test_traced_run_writes_the_untraced_artifacts(two_traced):
    _, attempts = two_traced
    for runs, metrics in attempts:
        plain, spanned = runs
        assert not plain.problems and not spanned.problems
        assert plain.digest == spanned.digest
        assert metrics


def test_counts_repeat_exactly_across_traced_runs(two_traced):
    workload, ((runs_a, m_a), (runs_b, m_b)) = two_traced
    for name in COUNTS:
        assert m_a[name]["value"] == m_b[name]["value"], name
    for field in ("out_bytes", "final_loss", "student_nll", "auc", "digest"):
        assert getattr(runs_a[1], field) == getattr(runs_b[1], field), field
    if workload == "keypoint":
        # restarts x weight epochs x questions, counted at the per-visit call
        assert m_a["weighting.visits"]["value"] == 3 * 3 * 20
        assert m_a["corpus.parse_calls"]["value"] == 7
    else:
        assert m_a["weighting.visits"]["value"] == 0
        assert m_a["corpus.parse_calls"]["value"] == len(run.REPLAN_STAGES)


def test_every_published_metric_is_measured(two_traced):
    _, ((_, metrics), _) = two_traced
    assert set(run.PER_LAYER) <= set(metrics)


def test_names_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.PLANS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)


def schedule_doc():
    counts = [{"a": 2, "b": 1}, {"a": 1, "b": 1}, {"a": 0, "b": 0}]
    return {
        "params": {"horizon": 2},
        "stages": [
            {"t": t, "c": dict(c), "delta_H": 1.0, "delta_D": 1.0} for t, c in enumerate(counts)
        ],
    }


def test_schedule_check_accepts_a_valid_plan():
    assert run.check_schedule(schedule_doc(), {"a", "b"}) == []


@pytest.mark.parametrize(
    "breakage, expected",
    [
        (lambda d: d["stages"][1].update(delta_H=1.1), "delta_H"),
        (lambda d: d["stages"][1]["c"].update(b=2), "increased"),
        (lambda d: d["stages"][2]["c"].update(a=1), "horizon"),
        (lambda d: d["stages"][0]["c"].pop("b"), "cover"),
    ],
)
def test_schedule_check_flags_each_invariant(breakage, expected):
    doc = schedule_doc()
    breakage(doc)
    problems = run.check_schedule(doc, {"a", "b"})
    assert len(problems) == 1 and expected in problems[0]


def test_key_token_auc_matches_the_pairwise_count():
    questions = [
        {"id": "x", "answer": "K1-K2", "rationale_tokens": ["K1", "so", "K2", "we"]},
        {"id": "y", "answer": "7", "rationale_tokens": ["add", "7", "then", "7"]},
    ]
    weights = {"x": [0.9, 0.2, 0.5, 0.5], "y": [0.5, 0.1, 0.3, 0.8]}
    keys = [0.9, 0.5, 0.1, 0.8]
    others = [0.2, 0.5, 0.5, 0.3]
    wins = sum(1.0 if k > o else 0.5 if k == o else 0.0 for k in keys for o in others)
    assert run.key_token_auc(questions, weights) == wins / (len(keys) * len(others))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "replan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
