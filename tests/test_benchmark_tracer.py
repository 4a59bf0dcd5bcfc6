"""The benchmark's tracer wraps program functions by name
(pipebench/traced_cli.py), so renaming one of them fails every traced run,
and a call that no longer goes through the wrapped name drops its span.
These run the tracer in a child process, as a traced run does."""
from __future__ import annotations

import collections
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from cotpace.corpus import write_corpus
from cotpace.synth import make_arith_corpus

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "pipebench" / "traced_cli.py"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("traced_cli", sys.argv[1])
traced_cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traced_cli)
traced_cli.install(traced_cli.Tracer())
"""

# How often `run --simulate` calls each function the tracer wraps in cli:
# seven stages parse the corpus, assess and simulate read weights.jsonl, and
# shape-loss and simulate read schedule.json.
RUN_CALLS = {
    "parse_corpus": 7,
    "train_weighting": 1,
    "write_weights": 1,
    "save_model": 1,
    "read_weights": 2,
    "compute_table": 1,
    "write_table": 1,
    "read_table": 1,
    "kmeans_cluster": 1,
    "write_clusters": 1,
    "read_clusters": 1,
    "plan_full_schedule": 1,
    "write_schedule": 1,
    "read_schedule": 2,
    "build_stage_loss_specs": 1,
    "simulate_student": 1,
    "write_loss_specs": 1,
    "write_trace": 1,
}


def _traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli_names", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path: Path, name: str, argv: list[str]) -> dict:
    spans = tmp_path / f"{name}.spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(spans), *argv],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text())


def test_the_benchmark_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(TRACED_CLI)],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_traced_run_records_every_stage_and_every_cli_call(tmp_path):
    tracer = _traced_cli()
    assert set(RUN_CALLS) == set(tracer.CLI_SITES) - {"synthetic_logprobs"}
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(make_arith_corpus(6), corpus)
    base = ["--corpus", str(corpus), "--out", str(tmp_path / "out"), "--seed", "1"]
    run = _traced(
        tmp_path, "run", ["run", "--simulate", *base, "--weight-epochs", "1", "--restarts", "1", "--epochs", "4"]
    )
    assess = _traced(tmp_path, "assess", ["assess", *base, "--synthetic-logprobs", "1"])

    names = collections.Counter(span[0] for span in run["spans"])
    assert all(names[f"cli.{stage}"] == 1 for stage in tracer.STAGES), names
    expected = collections.Counter()
    for site, calls in RUN_CALLS.items():
        expected[tracer.CLI_SITES[site]] += calls
    assert {name: names[name] for name in expected} == dict(expected)
    assert names["corpus.parse"] == 7
    assert run["counts"]["weighting.visits"] > 0
    assert run["counts"]["loss_shaping.shape_calls"] > 0
    # the fields the tracer reads from the plan and the trace: stages 0..--epochs
    attrs = {span[0]: span[4] for span in run["spans"] if span[0] in ("schedule.plan", "loss_shaping.simulate")}
    assert attrs == {"schedule.plan": {"stages": 5}, "loss_shaping.simulate": {"epochs": 4}}
    for doc in (run, assess):  # every cli call runs inside its stage's span
        for name, _, _, parent, _ in doc["spans"]:
            if name in tracer.CLI_SITES.values():
                assert doc["spans"][parent][0].startswith("cli."), name
    assert collections.Counter(span[0] for span in assess["spans"])["difficulty.logprobs"] == 1
