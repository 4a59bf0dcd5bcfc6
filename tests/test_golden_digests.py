"""Golden digests: every artifact of three short pipelines, run in-process
through cli.main, must hash to the sha256 pinned in
tests/data/golden_digests.json. A change that moves an artifact on purpose
rewrites the pin in the same commit and says which file moved, and why:

    PYTHONPATH=src python tests/test_golden_digests.py

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
from cotpace.corpus import write_corpus
from cotpace.synth import make_arith_corpus, make_keypoint_corpus
from cotpace.weighting import write_weights

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


def digests(plan: str, work: Path) -> dict[str, str]:
    """Run one plan in work; the sha256 of every file it leaves in --out."""
    out = work / "out"
    for argv in PLANS[plan](work):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(out)]) == 0, argv
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("plan", list(PLANS))
def test_every_artifact_matches_its_golden_digest(plan, tmp_path):
    pin = json.loads(PIN.read_text(encoding="utf-8"))
    assert np.__version__ == pin["numpy"], (
        f"the digests were pinned with numpy {pin['numpy']}, and this is numpy {np.__version__};"
        " float bits may differ, so re-pin on this version and compare by hand"
    )
    got = digests(plan, tmp_path)
    want = pin["plans"][plan]
    moved = {name: got.get(name, "missing") for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)}
    assert not moved, f"{plan}: artifacts moved from their pinned digests (new digest per file): {moved}"


if __name__ == "__main__":  # rewrite the pin from this tree
    with tempfile.TemporaryDirectory() as tmp:
        plans = {}
        for name in PLANS:
            (Path(tmp) / name).mkdir()
            plans[name] = digests(name, Path(tmp) / name)
    PIN.write_text(json.dumps({"numpy": np.__version__, "plans": plans}, indent=1) + "\n", encoding="utf-8")
