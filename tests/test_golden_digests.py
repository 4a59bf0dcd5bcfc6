"""Golden digests: every artifact of three short pipelines, run in-process
through cli.main, must hash to the sha256 pinned in
tests/data/golden_digests.json. A change that moves an artifact on purpose
rewrites the pin in the same commit and says which file moved, and why:

    PYTHONPATH=src python tests/test_golden_digests.py

The script prints one `plan/file changed|appeared|disappeared` line for
each digest that differs from the pin it replaces.

The plans are short versions of pipebench's three workloads:
  bundled   run --simulate on the packaged corpus, 5 weight epochs x 2
            restarts, so the alpha ramp runs and one restart wins;
  keypoint  run --simulate on make_keypoint_corpus(20, seed=1) with
            --synthetic-logprobs 1, at the same trainer length;
  replan    assess, cluster, schedule, shape-loss and simulate as separate
            commands on make_arith_corpus(200, seed=1), with seeded uniform
            weights.

Float bits can differ between numpy builds, so the pin records the numpy
version it was made with, and on another version the test fails saying so.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cotpace
from cotpace.cli import main
from cotpace.corpus import parse_corpus, write_corpus
from cotpace.synth import make_arith_corpus, make_keypoint_corpus
from cotpace.weighting import SCORER_PARAMS, forward_weights, write_weights
from oracles import scorer_from_checkpoint

PIN = Path(__file__).parent / "data" / "golden_digests.json"
BUNDLED = Path(cotpace.__file__).parent / "data" / "synthetic50.jsonl"
TRAINER = ["--weight-epochs", "5", "--restarts", "2", "--seed", "1"]
REPLAN_STAGES = ("assess", "cluster", "schedule", "shape-loss", "simulate")


def _bundled(work: Path) -> list[list[str]]:
    return [["run", "--simulate", "--corpus", str(BUNDLED), *TRAINER]]


def _keypoint(work: Path) -> list[list[str]]:
    corpus = work / "corpus.jsonl"
    write_corpus(make_keypoint_corpus(20, seed=1), corpus)
    return [["run", "--simulate", "--corpus", str(corpus), "--synthetic-logprobs", "1", *TRAINER]]


def _replan(work: Path) -> list[list[str]]:
    corpus = make_arith_corpus(200, seed=1)
    write_corpus(corpus, work / "corpus.jsonl")
    rng = np.random.default_rng(1)
    (work / "out").mkdir()
    write_weights({q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}, work / "out" / "weights.jsonl")
    commands = [[stage, "--corpus", str(work / "corpus.jsonl"), "--seed", "1"] for stage in REPLAN_STAGES]
    commands[-1] += ["--epochs", "20"]
    return commands


PLANS = {"bundled": _bundled, "keypoint": _keypoint, "replan": _replan}


def run_plan(plan: str, work: Path) -> tuple[Path, Path]:
    """Run one plan in work: its corpus file and its --out directory."""
    out = work / "out"
    for argv in PLANS[plan](work):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0, argv
    return Path(argv[argv.index("--corpus") + 1]), out


def digests(out: Path) -> dict[str, str]:
    """The sha256 of every file in out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def moved(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """The files whose digest differs between got and want, or that only one holds."""
    return [name for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)]


@pytest.mark.parametrize("plan", list(PLANS))
def test_every_artifact_matches_its_golden_digest(plan, tmp_path):
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    assert np.__version__ == pin["numpy"], (
        f"the digests were pinned with numpy {pin['numpy']}, and this is numpy {np.__version__};"
        " float bits may differ, so re-pin on this version and compare by hand"
    )
    got = digests(run_plan(plan, tmp_path)[1])
    want = pin["plans"][plan]
    changed = {name: got.get(name, "missing") for name in moved(got, want)}
    assert not changed, f"{plan}: artifacts moved from their pinned digests (new digest per file): {changed}"


@pytest.mark.parametrize("plan", ["bundled", "keypoint"])
def test_the_checkpoint_recomputes_weights_jsonl_bit_for_bit(plan, tmp_path):
    # no command reads weight_model.json, so this is what checks that it
    # holds the scorer that wrote weights.jsonl, and only that scorer
    corpus_path, out = run_plan(plan, tmp_path)
    model = scorer_from_checkpoint(out / "weight_model.json")
    assert model.params.keys() == SCORER_PARAMS
    corpus = parse_corpus(corpus_path)
    recomputed = {q.id: forward_weights(model, q.rationale_tokens) for q in corpus.questions}
    write_weights(recomputed, tmp_path / "recomputed.jsonl")
    assert (tmp_path / "recomputed.jsonl").read_bytes() == (out / "weights.jsonl").read_bytes()


if __name__ == "__main__":  # rewrite the pin from this tree, and name what moved
    old = json.loads(PIN.read_text(encoding="utf-8"))["plans"] if PIN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        plans = {}
        for name in PLANS:
            (Path(tmp) / name).mkdir()
            plans[name] = digests(run_plan(name, Path(tmp) / name)[1])
    PIN.write_text(json.dumps({"numpy": np.__version__, "plans": plans}, indent=1) + "\n", encoding="utf-8")
    for plan in sorted(set(plans) | set(old)):
        got, want = plans.get(plan, {}), old.get(plan, {})
        for name in moved(got, want):
            how = "appeared" if name not in want else "disappeared" if name not in got else "changed"
            print(f"{plan}/{name} {how}")
