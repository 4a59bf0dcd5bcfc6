"""Command line behaviour: exit codes, config layering, artifact determinism."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import filecmp
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cotpace
from cotpace import cli
from cotpace.cli import (
    _KNOBS,
    PipelineConfig,
    _flag,
    _to_bool,
    build_parser,
    load_config,
    main,
    make_config,
    stage_seed,
)
from cotpace.corpus import parse_corpus, write_corpus
from cotpace.difficulty import compute_table, synthetic_logprobs, write_table
from cotpace.synth import make_arith_corpus, make_keypoint_corpus
from cotpace.weighting import WeightingConfig, write_weights
from oracles import uniform_weights

ARTIFACTS = [
    "weights.jsonl",
    "weight_model.json",
    "difficulty.jsonl",
    "clusters.json",
    "schedule.json",
    "losses.jsonl",
]

KNOBS = dataclasses.fields(PipelineConfig)
FLOAT_KNOBS = [f.name for f in KNOBS if f.type == "float"]

FAST_FLAGS = [
    "--seed", "7",
    "--weight-epochs", "15",
    "--restarts", "1",
    "--epochs", "6",
    "--t-max", "3",
    "--clusters", "2",
]


@pytest.fixture(scope="module")
def small_corpus_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "small.jsonl"
    write_corpus(make_arith_corpus(10, seed=77), path)
    return path


def _read_artifacts(out: Path, names=ARTIFACTS) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in names}


# --- exit codes -------------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["validate", "--no-such-flag"]) == 1


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_usage_errors_say_what_is_wrong(capsys):
    assert main(["validate", "--bet", "3"]) == 1
    assert "cotpace: error: unrecognized arguments: --bet 3" in capsys.readouterr().err
    assert main([]) == 1
    assert "cotpace: error: no command given" in capsys.readouterr().err


@pytest.mark.parametrize(
    "prefix, flag, dest, value",
    [
        ("--bet", "--beta", "beta", "3"),
        ("--clu", "--clusters", "n_clusters", "2"),
        ("--conf", "--config", "config", "x.ini"),
    ],
)
def test_flag_prefixes_are_usage_errors(small_corpus_path, capsys, prefix, flag, dest, value):
    # argparse would take an unambiguous prefix for the whole flag, so a new
    # flag could change what an old prefix meant (--b was --beta until
    # --batch-size existed).
    argv = ["validate", "--corpus", str(small_corpus_path), "--seed", "1"]
    assert main([*argv, prefix, value]) == 1
    assert getattr(build_parser().parse_args([*argv, flag, value]), dest) is not None


def test_every_full_flag_spelling_parses():
    for f in KNOBS:
        argv = [_flag(f)] if f.type == "bool" else [_flag(f), "1"]
        assert getattr(build_parser().parse_args(["run", *argv]), f.name) is not None, f.name


def test_missing_corpus_file_exits_2(tmp_path, capsys):
    code = main(["validate", "--corpus", str(tmp_path / "absent.jsonl"), "--seed", "1"])
    assert code == 2
    assert "corpus not found" in capsys.readouterr().err


def test_missing_seed_exits_2(small_corpus_path, capsys):
    assert main(["validate", "--corpus", str(small_corpus_path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_missing_corpus_exits_2(capsys):
    assert main(["validate", "--seed", "1"]) == 2
    assert "no corpus given" in capsys.readouterr().err


def test_validate_ok_exits_0(small_corpus_path, capsys):
    assert main(["validate", "--corpus", str(small_corpus_path), "--seed", "1"]) == 0
    assert "[validate] ok" in capsys.readouterr().out


def test_validate_rejects_non_integer_step_span(tmp_path, capsys):
    record = {
        "id": "q0",
        "question": "how many",
        "answer": "2",
        "rationale_tokens": ["one", "plus", "one", "."],
        "step_spans": [[False, 2], [2.9, 4]],  # int() would accept both
    }
    corpus = tmp_path / "spans.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    assert main(["validate", "--corpus", str(corpus), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "step_spans" in err and "q0" in err


def test_assess_without_logprobs_points_at_the_fix(tmp_path, capsys):
    record = {
        "id": "q0",
        "question": "how many",
        "answer": "2",
        "rationale_tokens": ["one", "plus", "one", "."],
    }
    corpus = tmp_path / "bare.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    code = main(["assess", "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--seed", "1"])
    assert code == 2
    assert "synthetic" in capsys.readouterr().err.lower()


def test_assess_with_synthetic_logprobs_succeeds(tmp_path, capsys):
    record = {
        "id": "q0",
        "question": "how many",
        "answer": "2",
        "rationale_tokens": ["one", "plus", "one", "."],
    }
    corpus = tmp_path / "bare.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    code = main([
        "assess", "--corpus", str(corpus), "--out", str(tmp_path / "out"),
        "--seed", "1", "--synthetic-logprobs", "5",
    ])
    assert code == 0
    assert (tmp_path / "out" / "difficulty.jsonl").exists()


def _assess_with_weights(tmp_path, corpus_path, ids) -> int:
    out = tmp_path / "out"
    out.mkdir()
    write_weights({qid: np.full(3, 0.5) for qid in ids}, out / "weights.jsonl")
    return main(["assess", "--corpus", str(corpus_path), "--out", str(out), "--seed", "1"])


def test_weights_missing_a_corpus_question_exit_2(tmp_path, small_corpus_path, capsys):
    ids = [q.id for q in parse_corpus(small_corpus_path).questions]
    assert _assess_with_weights(tmp_path, small_corpus_path, ids[:4] + ids[5:]) == 2
    err = capsys.readouterr().err
    assert "weights.jsonl" in err and f"no weights for corpus question {ids[4]!r}" in err
    assert not (tmp_path / "out" / "difficulty.jsonl").exists()


def test_weights_for_a_foreign_question_exit_2(tmp_path, small_corpus_path, capsys):
    ids = [q.id for q in parse_corpus(small_corpus_path).questions]
    assert _assess_with_weights(tmp_path, small_corpus_path, [*ids, "ghost", "ghost2"]) == 2
    err = capsys.readouterr().err
    assert "weights.jsonl" in err and "weights for 'ghost', which is not a corpus question" in err


@pytest.mark.parametrize(
    "case, message",
    [
        ("duplicate-id", "appear twice"),
        ("non-finite", "nan is not finite"),
        ("outside-unit-interval", "7.0 lies outside [0, 1]"),
    ],
)
def test_untrustworthy_weights_exit_2(tmp_path, small_corpus_path, capsys, case, message):
    questions = parse_corpus(small_corpus_path).questions
    records = [{"id": q.id, "weights": [0.5] * q.n_tokens} for q in questions]
    if case == "duplicate-id":  # was read as the last record, silently
        records.append({"id": questions[3].id, "weights": [0.25] * questions[3].n_tokens})
    elif case == "non-finite":
        records[3]["weights"][1] = float("nan")
    else:  # README promises [0, 1]; 7.0 used to pass
        records[3]["weights"] = [7.0] * questions[3].n_tokens
    out = tmp_path / "out"
    out.mkdir()
    (out / "weights.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["assess", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "weights.jsonl" in err and repr(questions[3].id) in err and message in err
    assert not (out / "difficulty.jsonl").exists()


@pytest.mark.parametrize("count", [0.9, True], ids=["float", "bool"])
@pytest.mark.parametrize("command", ["shape-loss", "simulate"])
def test_schedule_counts_must_be_integers(tmp_path, small_corpus_path, capsys, command, count):
    out = tmp_path / "out"
    argv = ["--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
    for stage in ("assess", "cluster", "schedule"):
        assert main([stage, *argv]) == 0
    path = out / "schedule.json"
    doc = json.loads(path.read_text())
    qid = sorted(doc["stages"][2]["c"])[1]
    doc["stages"][2]["c"][qid] = count  # int() took 0.9 for 0 and true for 1
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert "schedule.json" in err and "stage 2" in err and repr(qid) in err and "integer" in err


@pytest.fixture(scope="module")
def stale_out(tmp_path_factory) -> Path:
    """--out after assess, cluster and schedule on another corpus: 12 questions
    (seed 78) where the small corpus has 10 (seed 77)."""
    root = tmp_path_factory.mktemp("stale")
    corpus = root / "other.jsonl"
    write_corpus(make_arith_corpus(12, seed=78), corpus)
    out = root / "out"
    for stage in ("assess", "cluster", "schedule"):
        assert main([stage, "--corpus", str(corpus), "--out", str(out), "--seed", "1", "--epochs", "4"]) == 0
    return out


def _with_stale(tmp_path, stale_out, small_corpus_path, fresh: list[str], command: str) -> tuple[int, Path]:
    """Runs command on the small corpus in a copy of stale_out, after
    rewriting the artifacts of the fresh stages from the small corpus."""
    out = tmp_path / "out"
    out.mkdir()
    for artifact in stale_out.iterdir():
        (out / artifact.name).write_bytes(artifact.read_bytes())
    argv = ["--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
    for stage in fresh:
        assert main([stage, *argv]) == 0
    return main([command, *argv]), out


def test_stale_clusters_exit_2(tmp_path, stale_out, small_corpus_path, capsys):
    code, out = _with_stale(tmp_path, stale_out, small_corpus_path, ["assess"], "schedule")
    assert code == 2  # the extra questions' clusters were ignored, and schedule exited 0
    err = capsys.readouterr().err
    assert "clusters.json" in err and "cluster for 'q010', which is not a corpus question" in err
    assert (out / "schedule.json").read_bytes() == (stale_out / "schedule.json").read_bytes()


def test_stale_difficulty_exit_2(tmp_path, stale_out, small_corpus_path, capsys):
    code, _ = _with_stale(tmp_path, stale_out, small_corpus_path, ["cluster"], "schedule")
    assert code == 2  # the message named a question but not the file
    err = capsys.readouterr().err
    assert "difficulty.jsonl" in err and "step difficulties for 'q010', which is not a corpus question" in err


def _assess_and_cluster(tmp_path, corpus_path) -> tuple[Path, list[str]]:
    out = tmp_path / "out"
    argv = ["--corpus", str(corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
    for stage in ("assess", "cluster"):
        assert main([stage, *argv]) == 0
    return out, argv


def test_difficulty_with_the_corpus_ids_but_other_step_counts_exit_2(tmp_path, small_corpus_path, capsys):
    out, argv = _assess_and_cluster(tmp_path, small_corpus_path)
    other = tmp_path / "other.jsonl"
    write_corpus(make_arith_corpus(10, seed=78), other)  # the same ids q000..q009
    assert main(["assess", "--corpus", str(other), "--out", str(out), "--seed", "1"]) == 0
    capsys.readouterr()
    assert main(["schedule", *argv]) == 2  # the message named a question but not the file
    err = capsys.readouterr().err
    assert "difficulty.jsonl: 2 step difficulties for 'q000', which has 4 steps" in err
    assert not (out / "schedule.json").exists()


@pytest.mark.parametrize(
    "case, message",
    [
        ("duplicate-id", "step difficulties for 'q003' appear twice"),
        ("nan", "step difficulties for 'q003': nan is not finite"),
        ("infinite", "step difficulties for 'q003': inf is not finite"),
        ("negative", "step difficulties for 'q003': -1.0 is below 0"),
    ],
    ids=["duplicate-id", "nan", "infinite", "negative"],
)
def test_untrustworthy_difficulty_exit_2(tmp_path, small_corpus_path, capsys, case, message):
    out, argv = _assess_and_cluster(tmp_path, small_corpus_path)
    path = out / "difficulty.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    row = next(r for r in rows if r.get("id") == "q003")
    if case == "duplicate-id":  # the last row was planned on, silently
        rows.insert(-1, {**row, "step_difficulties": [9.0] * len(row["step_difficulties"])})
    else:
        row["step_difficulties"][-1] = {"nan": float("nan"), "infinite": float("inf"), "negative": -1.0}[case]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert main(["schedule", *argv]) == 2
    err = capsys.readouterr().err
    assert "difficulty.jsonl" in err and message in err
    assert not (out / "schedule.json").exists()


@pytest.mark.parametrize("index", [7, -1, 2.7, True], ids=["7", "-1", "2.7", "true"])
def test_cluster_index_outside_the_clusters_exit_2(tmp_path, small_corpus_path, capsys, index):
    out, argv = _assess_and_cluster(tmp_path, small_corpus_path)
    path = out / "clusters.json"
    doc = json.loads(path.read_text())
    # 7 raised an IndexError; -1 counted toward the last cluster; 2.7 and true
    # were read as clusters 2 and 1
    doc["assignment"]["q003"] = index
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["schedule", *argv]) == 2
    err = capsys.readouterr().err
    assert f"clusters.json: cluster index {index!r} of 'q003' is not an integer in [0, 5)" in err
    assert not (out / "schedule.json").exists()


def test_a_cluster_index_past_int64_exits_2(tmp_path, small_corpus_path, capsys):
    # under n_clusters = 2**70, indices from 2**65 on exited 3: "Python int
    # too large to convert to C long", from the planner's int64 cluster ids
    out, argv = _assess_and_cluster(tmp_path, small_corpus_path)
    path = out / "clusters.json"
    doc = json.loads(path.read_text())
    small = doc["assignment"]
    doc["n_clusters"] = 2**70
    doc["assignment"] = {qid: 2**65 + i for i, qid in enumerate(small)}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["schedule", *argv]) == 2
    err = capsys.readouterr().err
    assert f"clusters.json: cluster index {2**65} of 'q000' is not an integer in [0, {2**63})" in err
    assert not (out / "schedule.json").exists()
    path.write_text(json.dumps({**doc, "assignment": small}))  # small indices under the same n_clusters
    assert main(["schedule", *argv]) == 0
    assert main(["cluster", *argv, "--clusters", str(2**62)]) == 0
    assert main(["schedule", *argv]) == 0


def test_a_repeated_key_in_clusters_json_exit_2(tmp_path, small_corpus_path, capsys):
    out, argv = _assess_and_cluster(tmp_path, small_corpus_path)
    path = out / "clusters.json"
    # the last value won: schedule exited 0 and planned with q003 in cluster 4
    path.write_text(path.read_text().replace('"q003":', '"q003":4,"q003":', 1))
    capsys.readouterr()
    assert main(["schedule", *argv]) == 2
    assert capsys.readouterr().err == f"error: {path}: repeated key 'q003'\n"
    assert not (out / "schedule.json").exists()


@pytest.mark.parametrize("command, artifact", [("shape-loss", "losses.jsonl"), ("simulate", "trace.json")])
def test_stale_schedule_exit_2(tmp_path, stale_out, small_corpus_path, capsys, command, artifact):
    code, out = _with_stale(tmp_path, stale_out, small_corpus_path, [], command)
    assert code == 2  # both exited 0, using the other corpus's counts
    err = capsys.readouterr().err
    assert "schedule.json: stage 0: input-step count for 'q010', which is not a corpus question" in err
    assert not (out / artifact).exists()


def test_schedule_missing_a_corpus_question_exit_2(tmp_path, small_corpus_path, capsys):
    out = tmp_path / "out"
    argv = ["--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
    for stage in ("assess", "cluster", "schedule"):
        assert main([stage, *argv]) == 0
    doc = json.loads((out / "schedule.json").read_text())
    del doc["stages"][3]["c"]["q004"]
    (out / "schedule.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", *argv]) == 2
    assert "schedule.json: stage 3: no input-step count for corpus question 'q004'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def planned_out(tmp_path_factory, small_corpus_path) -> Path:
    """--out after assess, cluster and schedule on the small corpus, with a
    weights.jsonl of 0.5 per token."""
    out = tmp_path_factory.mktemp("planned") / "out"
    out.mkdir()
    questions = parse_corpus(small_corpus_path).questions
    write_weights({q.id: np.full(q.n_tokens, 0.5) for q in questions}, out / "weights.jsonl")
    for stage in ("assess", "cluster", "schedule"):
        assert main([stage, "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]) == 0
    return out


def _rerun(tmp_path, planned_out, corpus_path, command: str, edit) -> tuple[int, Path]:
    """command in a copy of planned_out after edit(out) changed its files."""
    out = tmp_path / "out"
    out.mkdir()
    for artifact in planned_out.iterdir():
        (out / artifact.name).write_bytes(artifact.read_bytes())
    edit(out)
    return main([command, "--corpus", str(corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]), out


def _edit_json(name: str, change):
    def edit(out):
        doc = json.loads((out / name).read_text())
        change(doc)
        (out / name).write_text(json.dumps(doc))
    return edit


def _edit_lines(name: str, change):
    def edit(out):
        lines = (out / name).read_text().splitlines()
        change(lines)
        (out / name).write_text("".join(line + "\n" for line in lines))
    return edit


def test_weights_one_short_exit_2(tmp_path, planned_out, small_corpus_path, capsys):
    q = parse_corpus(small_corpus_path).questions[0]

    def cut(lines):
        rec = json.loads(lines[0])
        lines[0] = json.dumps({**rec, "weights": rec["weights"][1:]})

    code, _ = _rerun(tmp_path, planned_out, small_corpus_path, "assess", _edit_lines("weights.jsonl", cut))
    assert code == 2  # the message named the question but not the file
    err = capsys.readouterr().err
    assert f"weights.jsonl: {q.n_tokens - 1} weights for {q.id!r}, which has {q.n_tokens} tokens" in err


@pytest.mark.parametrize("count", [99, -1])
@pytest.mark.parametrize("command", ["shape-loss", "simulate"])
def test_schedule_count_outside_the_steps_exit_2(tmp_path, planned_out, small_corpus_path, capsys, command, count):
    q = parse_corpus(small_corpus_path).questions[0]

    def change(doc):
        doc["stages"][1]["c"][q.id] = count

    code, _ = _rerun(tmp_path, planned_out, small_corpus_path, command, _edit_json("schedule.json", change))
    assert code == 2  # the message named the question but not the file
    err = capsys.readouterr().err
    assert f"schedule.json: stage 1: input-step count {count} of {q.id!r} is not an integer in [0, {q.n_steps}]" in err


@pytest.mark.parametrize("n_clusters", [5.9, "x", 0], ids=["5.9", "x", "0"])
def test_n_clusters_must_be_a_positive_integer(tmp_path, planned_out, small_corpus_path, capsys, n_clusters):
    def change(doc):
        doc["n_clusters"] = n_clusters  # 5.9 was read as 5; "x" failed in int() without naming the file

    code, _ = _rerun(tmp_path, planned_out, small_corpus_path, "schedule", _edit_json("clusters.json", change))
    assert code == 2
    assert f"clusters.json: n_clusters must be an integer >= 1, got {n_clusters!r}" in capsys.readouterr().err


def _only_t_and_c(doc):
    del doc["params"]
    doc["stages"] = [{"t": stage["t"], "c": stage["c"]} for stage in doc["stages"]]


_D_T_OF_STAGE_3_X = _edit_json("schedule.json", lambda doc: doc["stages"][3].update(D_t="x"))


@pytest.mark.parametrize(
    "command, artifact, edit",
    [
        ("shape-loss", "losses.jsonl", _D_T_OF_STAGE_3_X),
        ("simulate", "trace.json", _D_T_OF_STAGE_3_X),
        ("simulate", "trace.json", _edit_json("schedule.json", _only_t_and_c)),
        ("schedule", "schedule.json", _edit_json("clusters.json", lambda doc: doc.update(centroids="x"))),
    ],
    ids=["shape-loss-D_t", "simulate-D_t", "simulate-only-t-and-c", "schedule-centroids"],
)
def test_fields_no_stage_uses_are_not_read(tmp_path, planned_out, small_corpus_path, command, artifact, edit):
    # a D_t or centroids of "x" exited 2 with "could not convert string to
    # float: 'x'", naming no file, although no stage uses either field
    written = []
    for name, change in (("unedited", lambda out: None), ("edited", edit)):
        (tmp_path / name).mkdir()
        code, out = _rerun(tmp_path / name, planned_out, small_corpus_path, command, change)
        assert code == 0, name
        written.append((out / artifact).read_bytes())
    assert written[0] == written[1]


def _swap_stages_2_and_3(doc):
    doc["stages"][2], doc["stages"][3] = doc["stages"][3], doc["stages"][2]


@pytest.mark.parametrize(
    "change, message",
    [
        (_swap_stages_2_and_3, "stage 2: t must be the integer 2, got 3"),
        (lambda doc: doc["stages"][3].update(t="3"), "stage 3: t must be the integer 3, got '3'"),
        (lambda doc: doc["stages"][1].update(t=True), "stage 1: t must be the integer 1, got True"),
    ],
    ids=["swapped", "string", "bool"],
)
@pytest.mark.parametrize("command, artifact", [("shape-loss", "losses.jsonl"), ("simulate", "trace.json")])
def test_a_stage_out_of_place_exit_2(tmp_path, planned_out, small_corpus_path, capsys, command, artifact, change, message):
    # each exited 0: stages were looked up by int(t), which takes "3" for 3
    # and true for 1
    code, out = _rerun(tmp_path, planned_out, small_corpus_path, command, _edit_json("schedule.json", change))
    assert code == 2
    assert f"schedule.json: {message}" in capsys.readouterr().err
    assert not (out / artifact).exists()


def test_shape_loss_needs_a_stage_per_epoch(tmp_path, planned_out, small_corpus_path, capsys):
    # shape-loss exited 0 and wrote an empty losses.jsonl, while simulate on
    # the same schedule exited 2
    def stage_0_only(doc):
        doc["stages"] = doc["stages"][:1]

    for command, artifact in (("shape-loss", "losses.jsonl"), ("simulate", "trace.json")):
        (tmp_path / command).mkdir()
        code, out = _rerun(tmp_path / command, planned_out, small_corpus_path, command, _edit_json("schedule.json", stage_0_only))
        assert code == 2, command
        assert "schedule has no stage 1 but the student trains for 4 epochs" in capsys.readouterr().err
        assert not (out / artifact).exists()


def test_schedule_plans_only_the_stages_the_student_trains_on(tmp_path, small_corpus_path, capsys):
    # schedule planned max(epochs, horizon) stages: --t-max 2000 wrote 2001
    # of them, and shape-loss shaped windows up to stage 2000, while the
    # student trains on stages 1..20. A horizon past the last epoch now cuts
    # the curriculum there.
    argv = ["--corpus", str(small_corpus_path), "--out", str(tmp_path), "--seed", "1", "--t-max", "2000"]
    for command in ("assess", "cluster", "schedule", "shape-loss", "simulate"):
        assert main([command, *argv]) == 0, command
    stages = json.loads((tmp_path / "schedule.json").read_text())["stages"]
    assert [rec["t"] for rec in stages] == list(range(21))
    assert any(stages[-1]["c"].values())  # the horizon is not reached
    lines = [json.loads(line) for line in (tmp_path / "losses.jsonl").read_text().splitlines()]
    assert lines and max(line["t"] for line in lines) <= 20


def test_shape_loss_reads_no_weights(tmp_path, planned_out, small_corpus_path):
    # shape-loss read and checked weights.jsonl although losses.jsonl holds
    # token ranges only, so a malformed file exited 2
    written = []
    for name, edit in (("kept", lambda out: None), ("malformed", _edit_lines("weights.jsonl", _truncate_line(1)))):
        (tmp_path / name).mkdir()
        code, out = _rerun(tmp_path / name, planned_out, small_corpus_path, "shape-loss", edit)
        assert code == 0, name
        written.append((out / "losses.jsonl").read_bytes())
    assert written[0] == written[1]


def test_corpus_token_weights_reach_the_student(tmp_path, capsys):
    # with no weights.jsonl, assess scored the corpus's token_weights and
    # simulate scored every token as 1, so trace.json depended on where the
    # same weights were kept
    corpus = make_arith_corpus(10, seed=77)
    rng = np.random.default_rng(77)
    weights = {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}
    plain_path = tmp_path / "plain.jsonl"
    write_corpus(corpus, plain_path)
    for q in corpus.questions:
        q.token_weights = weights[q.id].tolist()
    weighted_path = tmp_path / "weighted.jsonl"
    write_corpus(corpus, weighted_path)
    outs = {"in-corpus": (weighted_path, tmp_path / "a"), "weights.jsonl": (plain_path, tmp_path / "b")}
    outs["weights.jsonl"][1].mkdir()
    write_weights(weights, outs["weights.jsonl"][1] / "weights.jsonl")
    for corpus_path, out in outs.values():
        for stage in ("assess", "cluster", "schedule", "shape-loss", "simulate"):
            argv = [stage, "--corpus", str(corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
            assert main(argv) == 0, stage
    names = ["difficulty.jsonl", "clusters.json", "schedule.json", "losses.jsonl", "trace.json"]
    a, b = (_read_artifacts(out, names) for _, out in outs.values())
    assert a == b
    unweighted = tmp_path / "c"
    for stage in ("assess", "cluster", "schedule", "simulate"):
        assert main([stage, "--corpus", str(plain_path), "--out", str(unweighted), "--seed", "1", "--epochs", "4"]) == 0
    assert (unweighted / "trace.json").read_bytes() != a["trace.json"]


def test_a_corpus_with_some_token_weights_scores_ones_for_the_rest(tmp_path, capsys):
    # with no weights.jsonl, assess and simulate take each question's corpus
    # token_weights where it has them and a weight of 1 per token where not
    corpus = make_arith_corpus(10, seed=78)
    rng = np.random.default_rng(78)
    weights = {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}
    plain_path = tmp_path / "plain.jsonl"
    write_corpus(corpus, plain_path)
    for q in corpus.questions[::2]:
        q.token_weights = weights[q.id].tolist()
    for q in corpus.questions[1::2]:
        weights[q.id] = np.ones(q.n_tokens)
    mixed_path = tmp_path / "mixed.jsonl"
    write_corpus(corpus, mixed_path)
    outs = {"in-corpus": (mixed_path, tmp_path / "a"), "weights.jsonl": (plain_path, tmp_path / "b")}
    outs["weights.jsonl"][1].mkdir()
    write_weights(weights, outs["weights.jsonl"][1] / "weights.jsonl")
    for corpus_path, out in outs.values():
        for stage in ("assess", "cluster", "schedule", "shape-loss", "simulate"):
            argv = [stage, "--corpus", str(corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
            assert main(argv) == 0, stage
    names = ["difficulty.jsonl", "clusters.json", "schedule.json", "losses.jsonl", "trace.json"]
    a, b = (_read_artifacts(out, names) for _, out in outs.values())
    assert a == b
    assert not (tmp_path / "a" / "weights.jsonl").exists()


def test_synthetic_logprobs_replace_the_corpus_logprobs(tmp_path, capsys):
    corpus = make_arith_corpus(8, seed=79)
    assert all(q.token_logprobs is not None for q in corpus.questions)
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    corpus = parse_corpus(path)
    base = ["assess", "--corpus", str(path), "--seed", "1"]
    assert main([*base, "--out", str(tmp_path / "synthetic"), "--synthetic-logprobs", "5"]) == 0
    assert main([*base, "--out", str(tmp_path / "corpus")]) == 0
    expected = compute_table(corpus, uniform_weights(corpus), synthetic_logprobs(corpus, 5))
    write_table(expected, tmp_path / "expected.jsonl")
    synthetic = (tmp_path / "synthetic" / "difficulty.jsonl").read_bytes()
    assert synthetic == (tmp_path / "expected.jsonl").read_bytes()
    assert synthetic != (tmp_path / "corpus" / "difficulty.jsonl").read_bytes()


def test_trace_does_not_depend_on_the_blas_thread_count(tmp_path, bundled_corpus_path):
    # each epoch loss was an OpenBLAS dot over the pair table, whose sum
    # OpenBLAS splits by thread: on the bundled corpus some of the 20 epoch
    # losses changed their last bit between 1 and 2 threads
    corpus = parse_corpus(bundled_corpus_path)
    rng = np.random.default_rng(1)
    base = tmp_path / "base"
    base.mkdir()
    weights = {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}
    write_weights(weights, base / "weights.jsonl")
    args = ["--corpus", str(bundled_corpus_path), "--seed", "1"]
    for stage in ("assess", "cluster", "schedule"):
        assert main([stage, *args, "--out", str(base)]) == 0
    traces = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        shutil.copytree(base, out)
        _cli_with_blas_threads(threads, "simulate", *args, "--out", str(out))
        traces.append((out / "trace.json").read_bytes())
    assert traces[0] == traces[1]


def test_weigh_does_not_depend_on_the_blas_thread_count(tmp_path, bundled_corpus_path):
    # the trainer's matmuls are small; larger ones can take OpenBLAS's
    # threaded paths, whose sums split by thread
    args = ["--corpus", str(bundled_corpus_path), "--seed", "1", "--weight-epochs", "4", "--restarts", "2"]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        _cli_with_blas_threads(threads, "weigh", *args, "--out", str(out))
        written.append([(out / name).read_bytes() for name in ("weights.jsonl", "weight_model.json")])
    assert written[0] == written[1]


def _cli_with_blas_threads(threads: str, *argv: str) -> None:
    """Run a cotpace command from this checkout in a fresh interpreter
    whose OpenBLAS uses the given number of threads."""
    src = str(Path(cotpace.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "cotpace.cli", *argv]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)


def test_schedule_budget_ends_at_the_summed_step_difficulty(planned_out):
    rows = [json.loads(line) for line in (planned_out / "difficulty.jsonl").read_text().splitlines()]
    assert all(set(row) == {"id", "step_difficulties"} for row in rows)  # no stored totals
    total = math.fsum(math.fsum(row["step_difficulties"]) for row in rows)
    doc = json.loads((planned_out / "schedule.json").read_text())
    assert doc["params"]["total_difficulty"] == total
    assert doc["stages"][-1]["H"] == total


def test_difficulty_total_row_exit_2(tmp_path, planned_out, small_corpus_path, capsys):
    # a {"B": total} row was taken on trust: with B 1.0, schedule exited 0 and
    # planned a budget curve that ended far below the summed step difficulties
    code, _ = _rerun(
        tmp_path, planned_out, small_corpus_path, "schedule",
        _edit_lines("difficulty.jsonl", lambda lines: lines.append(json.dumps({"B": 1.0}))),
    )
    assert code == 2
    assert "difficulty.jsonl: line 11: missing key(s) ['id', 'step_difficulties']" in capsys.readouterr().err


def _truncate_line(k: int):
    def change(lines):
        lines[k] = lines[k][: len(lines[k]) // 2]
    return change


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("validate", None, "small.jsonl: line 3: invalid JSON"),
        ("assess", _edit_lines("weights.jsonl", lambda lines: lines.__setitem__(3, '{"weights": []}')),
         "weights.jsonl: line 4: missing key(s) ['id']"),
        ("schedule", _edit_lines("difficulty.jsonl", _truncate_line(1)), "difficulty.jsonl: line 2: invalid JSON"),
        ("schedule", _edit_json("clusters.json", lambda doc: doc.pop("assignment")),
         "clusters.json: missing key(s) ['assignment']"),
        ("simulate", _edit_lines("schedule.json", _truncate_line(2)), "schedule.json: invalid JSON"),
        ("shape-loss", _edit_json("schedule.json", lambda doc: doc["stages"][2].pop("c")),
         "schedule.json: stage 2: missing key(s) ['c']"),
    ],
    ids=["corpus", "weights", "difficulty", "clusters", "schedule", "schedule-stage"],
)
def test_malformed_file_names_the_file(tmp_path, planned_out, small_corpus_path, capsys, command, edit, message):
    corpus_path = small_corpus_path
    if edit is None:  # the corpus itself, cut short on line 3
        corpus_path = tmp_path / "small.jsonl"
        lines = small_corpus_path.read_text().splitlines()
        _truncate_line(2)(lines)
        corpus_path.write_text("".join(line + "\n" for line in lines))
    code, _ = _rerun(tmp_path, planned_out, corpus_path, command, edit or (lambda out: None))
    assert code == 2  # the message named neither the file nor the line
    assert message in capsys.readouterr().err


def _corpus_with_line(tmp_path, corpus_path, k: int, line: bytes, newline: bytes = b"\n") -> Path:
    """A copy of corpus_path whose line k (from 1) is line, lines ending in newline."""
    lines = corpus_path.read_bytes().splitlines()
    lines[k - 1] = line
    path = tmp_path / corpus_path.name
    path.write_bytes(b"".join(line + newline for line in lines))
    return path


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_a_corpus_byte_that_is_not_utf8_exits_2_naming_the_file_and_line(
    tmp_path, small_corpus_path, capsys, newline
):
    # the message was the codec's alone: "'utf-8' codec can't decode byte 0xff ..."
    line = small_corpus_path.read_bytes().splitlines()[2]
    corpus = _corpus_with_line(tmp_path, small_corpus_path, 3, line[:40] + b"\xff" + line[41:], newline)
    assert main(["validate", "--corpus", str(corpus), "--seed", "1"]) == 2
    assert f"error: {corpus}: line 3: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 40" in (
        capsys.readouterr().err
    )


def test_an_artifact_byte_that_is_not_utf8_exits_2_naming_the_file_and_line(
    tmp_path, planned_out, small_corpus_path, capsys
):
    def edit(out):
        lines = (out / "weights.jsonl").read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b"0.5", b"0.\xff", 1)
        (out / "weights.jsonl").write_bytes(b"".join(lines))

    code, out = _rerun(tmp_path, planned_out, small_corpus_path, "assess", edit)
    assert code == 2
    assert f"error: {out / 'weights.jsonl'}: line 4: not UTF-8" in capsys.readouterr().err


def test_a_config_byte_that_is_not_utf8_exits_2_naming_the_file_and_line(tmp_path, small_corpus_path, capsys):
    cfg = tmp_path / "pace.ini"
    cfg.write_bytes(b"seed = 1\nalpha = \xff\n")
    assert main(["validate", "--corpus", str(small_corpus_path), "--config", str(cfg)]) == 2
    assert f"error: {cfg}: line 2: not UTF-8" in capsys.readouterr().err


_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("validate", lambda line: b'{"id": ' + _DEEP + b"}", "small.jsonl: line 2: maximum recursion depth exceeded"),
        ("simulate", None, "schedule.json: maximum recursion depth exceeded"),
        ("validate", lambda line: re.sub(rb'"step_spans": \[\[0, \d+', b'"step_spans": [[0, ' + b"9" * 5000, line),
         "small.jsonl: line 2: Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["corpus-nesting", "schedule-nesting", "corpus-digits"],
)
def test_json_that_the_decoder_cannot_take_exits_2_naming_the_file(
    tmp_path, planned_out, small_corpus_path, capsys, command, edit, message
):
    # nesting exited 3 as a numeric failure; the digits named no file.
    # Each run nests schedule.json too: validate reads nothing from --out.
    corpus = small_corpus_path
    if edit is not None:
        corpus = _corpus_with_line(tmp_path, small_corpus_path, 2, edit(small_corpus_path.read_bytes().splitlines()[1]))
    code, _ = _rerun(tmp_path, planned_out, corpus, command, lambda out: (out / "schedule.json").write_bytes(_DEEP))
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, field, value",
    [
        ("validate", "small.jsonl", "token_logprobs", -10**400),
        ("validate", "small.jsonl", "token_weights", 10**400),
        ("validate", "small.jsonl", "embedding", 10**400),
        ("assess", "weights.jsonl", "weights", -10**400),
        ("schedule", "difficulty.jsonl", "step_difficulties", 10**400),
    ],
    ids=["token_logprobs", "token_weights", "embedding", "weights", "difficulty"],
)
def test_an_integer_too_large_for_a_float_exits_2_naming_the_field_and_line(
    tmp_path, planned_out, small_corpus_path, capsys, command, name, field, value
):
    # each exited 3 naming nothing: "numeric failure: int too large to convert to float"
    def put(path):  # value as the last entry of field on line 4
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec[field] = [*(rec.get(field) or [0.5] * len(rec["rationale_tokens"]))[:-1], value]
        lines[3] = json.dumps(rec)
        path.write_text("".join(line + "\n" for line in lines))

    corpus, edit = small_corpus_path, lambda out: put(out / name)
    if command == "validate":  # the corpus itself
        corpus, edit = tmp_path / name, lambda out: None
        corpus.write_bytes(small_corpus_path.read_bytes())
        put(corpus)
    code, out = _rerun(tmp_path, planned_out, corpus, command, edit)
    assert code == 2
    path = corpus if command == "validate" else out / name
    assert f"field {field!r} of 'q003' ({path}: line 4): an integer entry is too large for a float" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("route", ["flag", "config"])
def test_lenient_mode_drops_an_unknown_corpus_key(tmp_path, small_corpus_path, capsys, route):
    line = small_corpus_path.read_bytes().splitlines()[1]
    corpus = _corpus_with_line(tmp_path, small_corpus_path, 2, line[:-1] + b', "extra": 1}')
    argv = ["validate", "--corpus", str(corpus), "--seed", "1"]
    assert main(argv) == 2
    assert f"{corpus}: line 2: unknown key(s) ['extra']; pass lenient mode to ignore" in capsys.readouterr().err
    if route == "flag":
        argv.append("--lenient")
    else:
        (tmp_path / "lenient.ini").write_text("lenient = yes\n")
        argv += ["--config", str(tmp_path / "lenient.ini")]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("[validate] ok: 10 questions")


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("command", ["validate", "assess", "cluster", "weigh", "run"])
def test_a_corpus_without_questions_exits_2_and_names_it(tmp_path, capsys, command, text):
    # validate said "ok: 0 questions", assess wrote an empty difficulty.jsonl
    # and cluster exited 2 with "no embeddings to cluster", naming no file.
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text(text)
    argv = [command, "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--seed", "1"]
    assert main([*argv, "--synthetic-logprobs", "1"]) == 2
    assert f"{corpus}: no questions" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_key_exits_2(tmp_path, small_corpus_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("seed = 1\nlearning_rate = 0.5\n")
    code = main(["validate", "--corpus", str(small_corpus_path), "--config", str(cfg)])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, knob",
    [
        ("cluster", "--clusters", "0", "n_clusters"),
        ("schedule", "--delta-s", "0", "delta_s"),
        ("schedule", "--beta", "-1", "beta"),
        ("schedule", "--t-max", "0", "t_max"),
        ("schedule", "--p", "0", "p"),
        ("schedule", "--c0-frac", "1.5", "c0_frac"),
        ("schedule", "--eps", "0.7", "eps"),
    ],
)
def test_a_knob_out_of_range_exits_2_and_names_it(tmp_path, planned_out, small_corpus_path, capsys, command, flag, value, knob):
    # the config check is the one place these are refused: the stage code
    # that reads them does not check them again
    out = tmp_path / "out"
    shutil.copytree(planned_out, out)
    before = _read_artifacts(out, ["clusters.json", "schedule.json"])
    argv = [command, "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
    assert main(argv + [flag, value]) == 2
    assert knob in capsys.readouterr().err
    assert _read_artifacts(out, ["clusters.json", "schedule.json"]) == before


def test_invalid_parameter_exits_2(small_corpus_path, capsys):
    code = main(["validate", "--corpus", str(small_corpus_path), "--seed", "1", "--eps", "0.7"])
    assert code == 2


@pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 99999999999999999999])
@pytest.mark.parametrize("command", ["cluster", "weigh", "run"])
def test_seed_outside_64_bits_exits_2(tmp_path, small_corpus_path, capsys, command, seed):
    out = tmp_path / "out"
    argv = [command, "--corpus", str(small_corpus_path), "--out", str(out), f"--seed={seed}"]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_seed_at_the_64_bit_bounds_works(tmp_path, small_corpus_path, seed):
    argv = ["cluster", "--corpus", str(small_corpus_path), "--out", str(tmp_path), f"--seed={seed}"]
    assert main(argv) == 0


@pytest.mark.parametrize("command", ["validate", "assess"])
def test_negative_synthetic_logprobs_exits_2_and_names_it(tmp_path, small_corpus_path, capsys, command):
    argv = [command, "--corpus", str(small_corpus_path), "--out", str(tmp_path), "--seed", "1"]
    assert main(argv + ["--synthetic-logprobs", "-3"]) == 2
    assert "synthetic_logprobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "assess", "cluster", "schedule"])
def test_p_that_overflows_the_budget_curve_exits_2(tmp_path, small_corpus_path, capsys, command):
    argv = [command, "--corpus", str(small_corpus_path), "--out", str(tmp_path), "--seed", "1"]
    assert main(argv + ["--p", "500"]) == 2
    err = capsys.readouterr().err
    assert "p = 500" in err and "horizon 10" in err
    # 1 ** (p + 1) is 1 for any p, so a horizon of 1 takes the same p
    assert main(["validate", "--corpus", str(small_corpus_path), "--seed", "1", "--p", "500", "--t-max", "1"]) == 0


def test_diverging_training_exits_3(tmp_path, small_corpus_path, capsys):
    code = main([
        "weigh", "--corpus", str(small_corpus_path), "--out", str(tmp_path / "out"),
        "--seed", "1", "--weight-lr", "1e12", "--scorer-lr", "1e12", "--head-decay", "0",
        "--weight-epochs", "10", "--restarts", "1",
    ])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--alpha", "1e308"), ("--unmasked-weight", "1e308"), ("--alpha", "1e306")],
    # at 1e306 numpy's sums stay finite and the minibatch loss, a Python
    # float, overflows instead
    ids=["--alpha", "--unmasked-weight", "--alpha-1e306"],
)
def test_an_objective_that_overflows_before_any_update_exits_3_and_names_it(
    tmp_path, small_corpus_path, capsys, flag, value
):
    # the first minibatch overflowed before any update, yet the message
    # told the user to lower the learning rate
    code = main([
        "weigh", "--corpus", str(small_corpus_path), "--out", str(tmp_path / "out"),
        "--seed", "1", flag, value, "--weight-epochs", "1", "--restarts", "1",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "overflows at initialization" in err
    assert "alpha" in err and "unmasked_weight" in err and "learning rate" not in err


@pytest.mark.parametrize("flag", ["--alpha", "--unmasked-weight"])
def test_an_overflow_after_the_first_update_exits_3_without_a_warning(tmp_path, small_corpus_path, capsys, flag):
    # the first minibatch stayed finite, the update it made overflowed the
    # next one: numpy printed 4 or 5 RuntimeWarnings, then the message
    # blamed the learning rate alone
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1",
            flag, "1e200", "--weight-epochs", "20", "--restarts", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "overflow" in err and "at epoch 0" in err
    assert "alpha" in err and "unmasked_weight" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def one_batch_path(tmp_path_factory) -> Path:
    """Six questions, fewer than a batch: one epoch makes a single update,
    so an update that overflows the model shows only after training."""
    path = tmp_path_factory.mktemp("cli") / "six.jsonl"
    write_corpus(make_arith_corpus(6, seed=3), path)
    return path


@pytest.mark.parametrize("flags", [["--scorer-lr", "1e300"], ["--weight-lr", "1e300", "--head-decay", "0"]],
                         ids=["scorer-lr", "weight-lr"])
def test_a_restart_that_overflows_after_training_exits_3_without_a_warning(tmp_path, one_batch_path, capsys, flags):
    # the restart score and the final weights ran outside training's
    # errstate: numpy printed four or five RuntimeWarnings before exit 3
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(one_batch_path), "--out", str(out), "--seed", "1",
            "--weight-epochs", "1", "--restarts", "1", *flags]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert "restart 0 ended with non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-320", "5e-324", "1e-300"])
def test_a_tiny_eps_exits_2_and_names_it(tmp_path, small_corpus_path, capsys, eps):
    # 1e-320 exited 3 with "cannot convert float infinity to integer", 5e-324
    # exited 2 with "math domain error", and 1e-300 printed a 300-digit count
    argv = ["run", "--corpus", str(small_corpus_path), "--out", str(tmp_path / "out"), "--seed", "1",
            "--weight-epochs", "1", "--restarts", "1", "--epochs", "4", "--eps", eps]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"eps = {eps} needs" in err and "threshold passes" in err
    assert not re.search(r"\d{20}", err)


@pytest.mark.parametrize("name", ["bundled", "keypoint", "arith"])
def test_run_simulate_records_no_runtime_warning(tmp_path, bundled_corpus_path, capsys, name):
    path, extra = bundled_corpus_path, []
    if name != "bundled":
        path = tmp_path / "corpus.jsonl"
        if name == "keypoint":  # no teacher logprobs
            write_corpus(make_keypoint_corpus(12, seed=1), path)
            extra = ["--synthetic-logprobs", "1"]
        else:
            write_corpus(make_arith_corpus(12, seed=1), path)
    argv = ["run", "--simulate", "--corpus", str(path), "--out", str(tmp_path / "out"), "--seed", "1",
            "--weight-epochs", "2", "--restarts", "1", *extra]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("decay", ["20", "40", "100"])
def test_a_head_decay_that_zeroes_or_flips_the_head_exits_2(tmp_path, small_corpus_path, capsys, decay):
    # each update scales the head by 1 - weight_lr * head_decay: 0, -1 and -4
    # here. All three exited 0; at 100 max |w_cls| reached 5.9e23
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1",
            "--head-decay", decay, "--weight-epochs", "20", "--restarts", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "weight_lr" in err and "head_decay" in err
    assert not out.exists()


def test_weigh_that_ends_non_finite_exits_3_and_writes_nothing(tmp_path, capsys):
    # the batch losses stayed finite while the last update turned every
    # parameter into NaN: weigh exited 0 and wrote NaN weights
    corpus = make_arith_corpus(4, seed=5)
    q = corpus.questions[1]
    assert q.id == "q001"
    q.embedding[0] = 1e308  # finite, so the corpus is valid
    path = tmp_path / "huge.jsonl"
    write_corpus(corpus, path)
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(path), "--out", str(out), "--seed", "1", "--weight-epochs", "1"]
    assert main(argv) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _diverge_student(tmp_path, capsys, lr: str) -> str:
    """Run the pipeline with a student learning rate that diverges; checks
    that it exits 3 with no RuntimeWarning, names student_lr and writes no
    trace.json, and returns stderr."""
    path = tmp_path / "corpus.jsonl"
    write_corpus(make_arith_corpus(12, seed=3), path)
    out = tmp_path / "out"
    argv = ["run", "--simulate", "--corpus", str(path), "--out", str(out), "--seed", "1",
            "--student-lr", lr, "--weight-epochs", "1", "--restarts", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "numeric failure" in err and "student_lr" in err
    assert (out / "losses.jsonl").exists() and not (out / "trace.json").exists()
    return err


def test_a_student_whose_probabilities_underflow_exits_3_and_writes_no_trace(tmp_path, capsys):
    # the epoch loss went from 20.7 to 9269 and the run exited 0 with a
    # trace.json holding final token probabilities of exactly 0.0
    assert "question 'q0" in _diverge_student(tmp_path, capsys, "1000")


@pytest.mark.parametrize("lr", ["1e307", "1e308"])
def test_a_student_whose_loss_overflows_exits_3_without_a_warning(tmp_path, capsys, lr):
    # numpy printed an overflow RuntimeWarning at 1e308 before the exit-3
    # message, and neither rate's message named student_lr
    _diverge_student(tmp_path, capsys, lr)


def test_an_allocation_failure_exits_3_without_a_traceback(tmp_path, small_corpus_path, capsys):
    # numpy's MemoryError escaped main with a traceback and exit 1, the usage
    # code; a 2.6e17-byte request is refused at once and touches no memory
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1",
            "--d-hidden", str(10**15), "--weight-epochs", "1", "--restarts", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: Unable to allocate") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "cluster", "weigh", "run"])
def test_an_empty_embedding_exits_2_and_names_it(tmp_path, capsys, command):
    # validate said "embedding dim 0" and cluster exited 0, while weigh and
    # run died with a ZeroDivisionError traceback and exit 1
    path = tmp_path / "flat.jsonl"
    write_corpus(make_arith_corpus(4, seed=5), path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**rec, "embedding": []}) + "\n" for rec in records))
    out = tmp_path / "out"
    argv = [command, "--corpus", str(path), "--out", str(out), "--seed", "1", "--weight-epochs", "1"]
    assert main(argv) == 2
    assert f"field 'embedding' of 'q000' ({path}: line 1): empty" in capsys.readouterr().err
    assert not out.exists()


def _huge_embeddings(tmp_path, rng, shared: int) -> Path:
    """make_arith_corpus(6, seed=5) with embeddings of entries +-1e200, the
    first `shared` questions' all one vector."""
    path = tmp_path / "large.jsonl"
    write_corpus(make_arith_corpus(6, seed=5), path)
    vector = lambda: [float(v) for v in np.where(rng.random(64) < 0.5, -1e200, 1e200)]
    common = vector()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(
        json.dumps({**rec, "embedding": common if k < shared else vector()}) + "\n" for k, rec in enumerate(records)
    ))
    return path


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "shared"])
def test_embeddings_whose_distances_overflow_exit_2_and_name_them(tmp_path, capsys, shared):
    # distinct: numpy warned of an overflow in square and an invalid divide,
    # then cluster exited 2 with "Probabilities contain NaN"; shared: a
    # centroid mean one rounding away from the point overflowed in the label
    # kernel, with a warning, and cluster exited 0. Six identical embeddings
    # have no distance to overflow now that a centroid stays on its point
    # (see the next test), so here five share one and the sixth differs
    rng = np.random.default_rng(0)
    path = _huge_embeddings(tmp_path, rng, shared=5 if shared else 0)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["cluster", "--corpus", str(path), "--out", str(out), "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: field 'embedding': a squared distance between question embeddings overflows a float\n"
    )
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_identical_huge_embeddings_cluster_without_a_warning(tmp_path, capsys):
    # every squared distance between them is 0; they exited 2, blamed on an
    # overflow that only the centroid mean's rounding made
    path = _huge_embeddings(tmp_path, np.random.default_rng(0), shared=6)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["cluster", "--corpus", str(path), "--out", str(out), "--seed", "1"]) == 0
    assert [str(w.message) for w in caught] == []
    assert len(set(json.loads((out / "clusters.json").read_text())["assignment"].values())) == 1


def test_clusters_json_does_not_grow_with_the_cluster_count(tmp_path, capsys):
    # one 64-float centroid per requested cluster was written: 10,023,217
    # bytes for 20,000 clusters of 4 questions
    path = tmp_path / "c.jsonl"
    write_corpus(make_arith_corpus(4, seed=5), path)
    out = tmp_path / "out"
    assert main(["cluster", "--corpus", str(path), "--out", str(out), "--seed", "5", "--clusters", "20000"]) == 0
    doc = json.loads((out / "clusters.json").read_text())
    assert set(doc) == {"n_clusters", "assignment"} and doc["n_clusters"] == 20000
    assert (out / "clusters.json").stat().st_size < 1000


def test_assess_whose_total_overflows_exits_3_and_names_the_question(tmp_path, capsys):
    # exited 3 with "intermediate overflow in fsum", naming nothing
    corpus = make_arith_corpus(3, seed=5)
    for q in corpus.questions:
        q.token_logprobs = np.full(q.n_tokens, -1e308)
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    out = tmp_path / "out"
    assert main(["assess", "--corpus", str(path), "--out", str(out), "--seed", "1"]) == 3
    assert capsys.readouterr().err == "numeric failure: total difficulty overflows a float at question 'q000'\n"
    assert not out.exists()


def test_schedule_whose_total_overflows_exits_3_and_names_the_file(tmp_path, planned_out, small_corpus_path, capsys):
    # each row sums to 1e308, so the running total leaves the float range at
    # the second question; schedule said only "intermediate overflow in fsum"
    def huge(lines):
        for k, line in enumerate(lines):
            rec = json.loads(line)
            rec["step_difficulties"] = [1e308] + [0.0] * (len(rec["step_difficulties"]) - 1)
            lines[k] = json.dumps(rec)

    code, out = _rerun(tmp_path, planned_out, small_corpus_path, "schedule", _edit_lines("difficulty.jsonl", huge))
    assert code == 3
    assert capsys.readouterr().err == (
        f"numeric failure: {out / 'difficulty.jsonl'}: total difficulty overflows a float at question 'q001'\n"
    )


def test_schedule_whose_budget_curve_overflows_exits_2_and_names_p_c0_frac_and_the_file(
    tmp_path, planned_out, small_corpus_path, capsys
):
    # a total of 1.5e308 is finite, but (total - warm start) * (p + 1)
    # is not: schedule exited 2 with "budget must be finite and >= 0, got
    # inf", naming neither the knobs nor the file
    def huge(lines):
        for k, line in enumerate(lines):
            rec = json.loads(line)
            rec["step_difficulties"] = [1.5e308 if k == 0 else 0.0] + [0.0] * (len(rec["step_difficulties"]) - 1)
            lines[k] = json.dumps(rec)

    out = tmp_path / "out"
    shutil.copytree(planned_out, out)
    _edit_lines("difficulty.jsonl", huge)(out)
    argv = ["schedule", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--epochs", "4"]
    assert main(argv + ["--p", "1"]) == 2
    err = capsys.readouterr().err
    assert "p = 1.0" in err and "c0_frac" in err and "difficulty.jsonl" in err
    assert (out / "schedule.json").read_bytes() == (planned_out / "schedule.json").read_bytes()


@pytest.mark.parametrize(
    "text",
    ["seed = 1\nseed = 2\n", "seed = 1\nno equals sign here\n", "seed = 1\nalpha = 50%\n"],
    ids=["duplicate-key", "line-without-equals", "percent-in-value"],
)
def test_malformed_config_file_exits_2_and_names_it(tmp_path, small_corpus_path, capsys, text):
    cfg = tmp_path / "malformed.ini"
    cfg.write_text(text)
    assert main(["validate", "--corpus", str(small_corpus_path), "--config", str(cfg)]) == 2
    assert "malformed.ini" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("epochs", "1.5"), ("alpha", "abc")])
def test_unconvertible_config_value_names_key_and_file(tmp_path, small_corpus_path, capsys, key, value):
    cfg = tmp_path / "values.ini"
    cfg.write_text(f"seed = 1\n{key} = {value}\n")
    assert main(["validate", "--corpus", str(small_corpus_path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "values.ini" in err and key in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_KNOBS)
@pytest.mark.parametrize("route", ["flag", "config"])
def test_non_finite_float_knob_exits_2_and_names_it(
    tmp_path, small_corpus_path, capsys, route, name, value
):
    argv = ["validate", "--corpus", str(small_corpus_path), "--seed", "1"]
    if route == "flag":
        argv += [_flag(next(f for f in KNOBS if f.name == name)), value]
    else:
        cfg = tmp_path / "knob.ini"
        cfg.write_text(f"{name} = {value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert name in capsys.readouterr().err


def test_every_number_knob_declares_its_range():
    numbers = [f for f in KNOBS if f.type.removesuffix(" | None") in ("int", "float")]
    assert [f.name for f in numbers if not f.metadata["bounds"]] == []


def _past(field, op, bound):
    """The first value outside bound: the bound itself where it is open,
    else the next int or float beyond it."""
    if op in (">", "<"):
        return bound
    lower = op == ">="
    if field.type.startswith("int"):
        return bound - 1 if lower else bound + 1
    return math.nextafter(bound, -math.inf if lower else math.inf)


# One case per bound of every ranged knob, plus the values the stage
# configs' own validators were tested with where those differ.
_EDGES = [(f, op, b, _past(f, op, b)) for f in KNOBS for op, b in f.metadata["bounds"]]
_EARLIER = {"alpha": -1.0, "scorer_lr": -0.1, "head_decay": -1e-3, "unmasked_weight": -0.5}
_RANGE_CASES = [(f, bad) for f, _, _, bad in _EDGES] + [(_KNOBS[k], v) for k, v in _EARLIER.items()]


def _knob_argv(tmp_path, route: str, values: dict) -> list[str]:
    """A run command that sets values by flags (--flag=value, so that -1e-3
    is not taken for a flag), or by a config file."""
    if route == "flag":
        return ["run", *(f"{_flag(_KNOBS[k])}={v}" for k, v in values.items())]
    cfg = tmp_path / "knobs.ini"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return ["run", "--config", str(cfg)]


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("field, value", _RANGE_CASES, ids=[f"{f.name}={v}" for f, v in _RANGE_CASES])
def test_a_value_past_a_knob_range_exits_2_and_names_key_and_flag(tmp_path, small_corpus_path, capsys, route, field, value):
    # the stage configs' validators named the stage field: --weight-epochs 0
    # exited 2 with "WeightingConfig: epochs, batch_size and prefix_samples
    # must be >= 1", and --clusters 0 with "delta_s and n_clusters must be >= 1"
    out = tmp_path / "out"
    values = {"corpus": small_corpus_path, "out": out, "seed": 1, field.name: value}
    assert main(_knob_argv(tmp_path, route, values)) == 2
    assert f"error: {field.name} ({_flag(field)}) must " in capsys.readouterr().err
    assert not out.exists()


_CLOSED = [(f, b) for f, op, b, _ in _EDGES if op in (">=", "<=")]


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("field, bound", _CLOSED, ids=[f"{f.name}={b}" for f, b in _CLOSED])
def test_a_knob_at_its_closed_bound_is_accepted(tmp_path, route, field, bound):
    values = {"corpus": "c.jsonl", "seed": 1, field.name: bound}
    cfg = make_config(_args(_knob_argv(tmp_path, route, values)))
    assert getattr(cfg, field.name) == bound


def test_the_planner_does_not_grow_with_the_cluster_count(tmp_path, small_corpus_path):
    # value_of and greedy_admit sized their counts by --clusters: at 2**62,
    # schedule exited 2 with numpy's "array is too big"
    fast = ["--corpus", str(small_corpus_path), "--seed", "1", "--weight-epochs", "1", "--restarts", "1",
            "--epochs", "4"]
    stages = []
    for clusters in (len(parse_corpus(small_corpus_path).questions), 2**62):
        out = tmp_path / str(clusters)
        assert main(["run", *fast, "--out", str(out), "--clusters", str(clusters)]) == 0
        stages.append([stage["c"] for stage in json.loads((out / "schedule.json").read_text())["stages"]])
    assert stages[0] == stages[1]


# --- config layering ---------------------------------------------------------------


def _args(argv):
    return build_parser().parse_args(argv)


def test_defaults_then_config_then_flags(tmp_path, small_corpus_path):
    cfg_file = tmp_path / "pipeline.ini"
    cfg_file.write_text("seed = 3\nalpha = 0.9\nweight-lr = 0.01\nlenient = yes\n")
    base = ["--corpus", str(small_corpus_path), "--config", str(cfg_file)]
    cfg = make_config(_args(["validate", *base]))
    assert (cfg.seed, cfg.alpha, cfg.weight_lr, cfg.lenient) == (3, 0.9, 0.01, True)
    assert cfg.tau == 1.0  # untouched default
    over = make_config(_args(["validate", *base, "--alpha", "0.25", "--seed", "8"]))
    assert (over.seed, over.alpha) == (8, 0.25)
    assert over.weight_lr == 0.01  # config survives where no flag was given


def test_config_accepts_missing_section_header(tmp_path):
    bare = tmp_path / "bare.ini"
    bare.write_text("seed = 5\nsimulate = on\n")
    assert load_config(bare) == {"seed": 5, "simulate": True}
    headed = tmp_path / "headed.ini"
    headed.write_text("[pipeline]\nseed = 5\nsimulate = on\n")
    assert load_config(headed) == load_config(bare)
    # a comment before the header made it a bare file with a second [pipeline]
    commented = tmp_path / "commented.ini"
    commented.write_text("# pace settings\n\n; seed first\n[pipeline]\nseed = 5\nsimulate = on\n")
    assert load_config(commented) == load_config(bare)


@pytest.mark.parametrize("header", ["", "[pipeline]\n"], ids=["bare", "headed"])
@pytest.mark.parametrize(
    "body, pattern",
    [
        ("seed = 1\nalpha = 0.5\nseed = 2\n", r"\[line +{}\]: option 'seed'"),
        ("seed = 1\nalpha = 0.5\nno equals sign\n", r"\[line +{}\]: 'no equals sign"),
    ],
    ids=["duplicate-key", "line-without-equals"],
)
def test_config_errors_give_the_line_of_the_file(tmp_path, header, body, pattern):
    path = tmp_path / "lines.ini"
    path.write_text(header + body)
    line = 3 + header.count("\n")
    with pytest.raises(ValueError, match=pattern.format(line)):
        load_config(path)


@pytest.mark.parametrize(
    "text, section",
    [
        ("[pipeline]\nseed = 1\n[weigh]\nseed = 2\n", "weigh"),
        ("[pipline]\nseed = 1\n", "pipline"),
        ("seed = 1\n[weigh]\nalpha = 0.2\n", "weigh"),
        ("[DEFAULT]\nseed = 2\n[pipeline]\nseed = 1\n", "DEFAULT"),
    ],
    ids=["second-section", "misspelled-header", "bare-then-section", "default-section"],
)
def test_a_config_section_other_than_pipeline_exits_2_and_names_it(
    tmp_path, small_corpus_path, capsys, text, section
):
    # the keys of every section merged into one, whatever its name
    cfg = tmp_path / "sections.ini"
    cfg.write_text(text)
    assert main(["validate", "--corpus", str(small_corpus_path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config {cfg}: section [{section}]" in err


def test_config_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("sedd = 5\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(bad)


def test_a_config_key_in_both_spellings_exits_2_and_names_both(tmp_path, small_corpus_path, capsys):
    # loaded as {'weight_lr': 0.2}: the later spelling won without a word
    cfg = tmp_path / "both.ini"
    cfg.write_text("seed = 1\nweight-lr = 0.01\nweight_lr = 0.2\n")
    assert main(["validate", "--corpus", str(small_corpus_path), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {cfg}: key 'weight_lr' is given as both 'weight-lr' and 'weight_lr'\n"


def test_to_bool_parses_common_spellings():
    assert all(_to_bool(s) for s in ("1", "true", "Yes", "ON"))
    assert not any(_to_bool(s) for s in ("0", "false", "No", "OFF"))
    with pytest.raises(ValueError, match="boolean"):
        _to_bool("maybe")


def _other_value(field):
    """A valid value for a knob that differs from its default."""
    if field.type == "bool":
        return True
    if field.type == "str":
        return f"{field.name}-alt"
    if field.type == "float":
        return field.default / 2
    return 2 if field.default != 2 else 3


def _as_flags(values: dict) -> list[str]:
    argv = []
    for name, value in values.items():
        argv.append(_flag(_KNOBS[name]))
        if value is not True:
            argv.append(str(value))
    return argv


@pytest.mark.parametrize("field", KNOBS, ids=lambda f: f.name)
def test_every_knob_is_a_flag_and_a_config_key(tmp_path, field):
    values = {"corpus": "c.jsonl", "seed": 1, field.name: _other_value(field)}
    by_flag = make_config(_args(["validate", *_as_flags(values)]))
    cfg_file = tmp_path / "knobs.ini"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    by_key = make_config(_args(["validate", "--config", str(cfg_file)]))
    assert by_flag == by_key
    assert getattr(by_flag, field.name) == values[field.name]


def test_weigh_records_every_weighting_knob(tmp_path, small_corpus_path, capsys):
    knobs = [f for f in KNOBS if f.metadata["stage"] is WeightingConfig]
    targets = {f.metadata["stage_field"] or f.name: f for f in knobs}
    # every WeightingConfig field but the per-stage seed comes from a knob
    assert set(targets) | {"seed"} == {f.name for f in dataclasses.fields(WeightingConfig)}
    values = {f.name: _other_value(f) for f in knobs}
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "7"]
    assert main([*argv, *_as_flags(values)]) == 0
    recorded = json.loads((out / "weight_model.json").read_text())["config"]
    assert recorded == {
        "seed": stage_seed(7, "weigh"),
        **{target: values[f.name] for target, f in targets.items()},
    }


def test_horizon_defaults_to_half_the_epochs():
    assert PipelineConfig(corpus="x", seed=1, epochs=20).horizon == 10
    assert PipelineConfig(corpus="x", seed=1, epochs=20, t_max=4).horizon == 4
    assert PipelineConfig(corpus="x", seed=1, epochs=1).horizon == 1


def test_stage_seed_is_stable_and_named():
    assert stage_seed(7, "weigh") == stage_seed(7, "weigh")
    assert stage_seed(7, "weigh") != stage_seed(7, "cluster")
    assert stage_seed(7, "weigh") != stage_seed(8, "weigh")
    assert all(stage_seed(s, n) >= 0 for s in (0, 1, -5, 2**40) for n in ("a", "b"))


# --- pipeline runs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def stage_output(small_corpus_path, tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """--out and each stage command's stdout, the seven run in order on FAST_FLAGS."""
    out = tmp_path_factory.mktemp("stages") / "out"
    printed = {}
    for command in ("validate", "weigh", "assess", "cluster", "schedule", "shape-loss", "simulate"):
        with contextlib.redirect_stdout(io.StringIO()) as buffer:
            assert main([command, "--corpus", str(small_corpus_path), "--out", str(out), *FAST_FLAGS]) == 0
        printed[command] = buffer.getvalue()
    return out, printed


@pytest.mark.parametrize(
    "command, line",
    [
        ("validate", "[validate] ok: 10 questions, 31 steps, 10 with logprobs, embedding dim 64"),
        ("weigh", "[weigh] wrote {out}/weights.jsonl (final loss 13.0616)"),
        ("assess", "[assess] wrote {out}/difficulty.jsonl (total difficulty 26.8689)"),
        ("cluster", "[cluster] wrote {out}/clusters.json (2 clusters)"),
        ("schedule", "[schedule] wrote {out}/schedule.json (7 stages)"),
        ("shape-loss", "[shape-loss] wrote {out}/losses.jsonl (22 loss windows, one per change)"),
        ("simulate", "[simulate] wrote {out}/trace.json (final loss 2.9047, mean scored weight 0.0308 -> 0.0307)"),
    ],
)
def test_each_stage_prints_one_line(stage_output, command, line):
    out, printed = stage_output
    assert printed[command] == line.format(out=out) + "\n"


def test_an_epoch_that_scores_no_token_reports_none(tmp_path, small_corpus_path, capsys):
    # every question keeps all its input steps, so no token is scored
    corpus = parse_corpus(small_corpus_path)
    stages = [{"t": t, "c": {q.id: q.n_steps for q in corpus.questions}} for t in range(3)]
    (tmp_path / "schedule.json").write_text(json.dumps({"stages": stages}), encoding="utf-8")
    argv = ["simulate", "--corpus", str(small_corpus_path), "--out", str(tmp_path), "--seed", "1", "--epochs", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().out.endswith("(final loss 0.0000, mean scored weight none -> none)\n")
    losses = json.loads((tmp_path / "trace.json").read_text())["epoch_losses"]
    assert losses == [0.0, 0.0]
    assert all(math.copysign(1.0, x) == 1.0 for x in losses)


def test_a_stage_that_fails_leaves_no_out_directory(tmp_path, small_corpus_path, capsys):
    out = tmp_path / "fresh"
    assert main(["schedule", "--corpus", str(small_corpus_path), "--out", str(out), *FAST_FLAGS]) == 2
    assert "difficulty.jsonl" in capsys.readouterr().err
    assert not out.exists()


def test_a_writer_that_fails_leaves_no_tmp_and_no_output(tmp_path, small_corpus_path, capsys, monkeypatch):
    # weights.jsonl was moved into place before weight_model.json was written
    def full(model, path):
        raise OSError(f"no space left writing {path}")

    monkeypatch.setattr(cli, "save_model", full)
    out = tmp_path / "out"
    argv = ["weigh", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--weight-epochs", "1"]
    assert main(argv) == 2
    assert "weight_model.json.tmp" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "existed, out_path",
    [(False, "out"), (True, "out"), (False, "nest/a/b/out")],
    ids=["fresh-out", "existing-out", "nested-out"],
)
def test_a_writer_that_fails_removes_only_an_out_it_created(
    tmp_path, small_corpus_path, capsys, monkeypatch, existed, out_path
):
    # a fresh --out was left behind, created and empty; a nested one left
    # the parent directories mkdir made for it
    def full(result, path):
        raise OSError(f"no space left writing {path}")

    monkeypatch.setattr(cli, "write_clusters", full)
    out = tmp_path / out_path
    if existed:
        out.mkdir()
    assert main(["cluster", "--corpus", str(small_corpus_path), "--out", str(out), *FAST_FLAGS]) == 2
    assert "clusters.json.tmp" in capsys.readouterr().err
    assert out.exists() == existed
    assert not existed or list(out.iterdir()) == []
    assert list(tmp_path.iterdir()) == ([out] if existed else [])


def test_an_output_that_is_a_directory_exits_2_and_leaves_no_tmp(tmp_path, small_corpus_path, capsys):
    # weight_model.json.tmp stayed behind
    out = tmp_path / "out"
    (out / "weight_model.json").mkdir(parents=True)
    argv = ["weigh", "--corpus", str(small_corpus_path), "--out", str(out), "--seed", "1", "--weight-epochs", "1"]
    assert main(argv) == 2
    assert str(out / "weight_model.json") in capsys.readouterr().err
    assert list(out.glob("*.tmp")) == []


def test_full_run_writes_all_artifacts_and_repeats_byte_identically(
    tmp_path, small_corpus_path, capsys
):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ["run", "--corpus", str(small_corpus_path), *FAST_FLAGS, "--simulate"]
    assert main([*base, "--out", str(out_a)]) == 0
    assert main([*base, "--out", str(out_b)]) == 0
    names = ARTIFACTS + ["trace.json"]
    bytes_a = _read_artifacts(out_a, names)
    assert bytes_a == _read_artifacts(out_b, names)
    assert json.loads((out_a / "trace.json").read_text())["epoch_losses"]


def test_stagewise_run_matches_full_run(tmp_path, small_corpus_path, capsys):
    out_full, out_steps = tmp_path / "full", tmp_path / "steps"
    base = ["--corpus", str(small_corpus_path), *FAST_FLAGS]
    assert main(["run", *base, "--out", str(out_full)]) == 0
    for command in ("validate", "weigh", "assess", "cluster", "schedule", "shape-loss"):
        assert main([command, *base, "--out", str(out_steps)]) == 0
    assert _read_artifacts(out_full) == _read_artifacts(out_steps)


def test_rerunning_one_stage_only_touches_its_artifact(tmp_path, small_corpus_path, capsys):
    out = tmp_path / "out"
    base = ["--corpus", str(small_corpus_path), *FAST_FLAGS, "--out", str(out)]
    assert main(["run", *base]) == 0
    before = _read_artifacts(out)
    assert main(["cluster", *base]) == 0
    after = _read_artifacts(out)
    assert after == before


def test_replan_commands_repeat_byte_identically(tmp_path, capsys):
    """assess..simulate as separate commands, twice, on 60 questions with given
    weights: every artifact, trace.json included, is the same file again."""
    corpus = make_arith_corpus(60, seed=31)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    rng = np.random.default_rng(31)
    weights = {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        out.mkdir()
        write_weights(weights, out / "weights.jsonl")
        for stage in ("assess", "cluster", "schedule", "shape-loss", "simulate"):
            assert main([stage, "--corpus", str(corpus_path), "--out", str(out), "--seed", "31"]) == 0
    names = ["weights.jsonl", "difficulty.jsonl", "clusters.json", "schedule.json", "losses.jsonl", "trace.json"]
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(names)
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
