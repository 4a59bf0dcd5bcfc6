"""The JSON artifacts: documents equal to the indented ones written before,
encoded one record at a time as compact JSON, and still read in the spaced
encoding written before that."""
from __future__ import annotations

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from cotpace.cli import main
from cotpace.corpus import parse_corpus, write_corpus
from cotpace.difficulty import compute_table, corpus_logprobs, read_table
from cotpace.loss_shaping import StudentConfig, StudentTrace, simulate_student, write_trace
from cotpace.schedule import (
    BudgetCurve,
    Schedule,
    StageRecord,
    plan_full_schedule,
    read_schedule,
    write_schedule,
)
from cotpace.selection import kmeans_cluster, read_clusters, write_clusters
from cotpace.synth import make_arith_corpus
from cotpace.weighting import read_weights, write_weights
from oracles import uniform_weights


@pytest.fixture(scope="module")
def planned():
    """A schedule, its clusters and the simulated student on 60 questions."""
    corpus = make_arith_corpus(60, seed=5)
    weights = uniform_weights(corpus)
    table = compute_table(corpus, weights, corpus_logprobs(corpus))
    clusters = kmeans_cluster({q.id: q.embedding for q in corpus.questions}, 3, seed=2)
    curve = BudgetCurve.solve(b_total=table.corpus_total, c0=0.3 * table.corpus_total, p=0.5, t_max=5)
    plan = plan_full_schedule(
        corpus, table, curve, clusters, beta=12.0, eps=0.1, step_reduction=1, total_stages=10
    )
    trace = simulate_student(corpus, plan.counts, weights, StudentConfig(epochs=10, seed=4))
    return plan, clusters, trace


def _indented(doc: dict, path) -> dict:
    """doc written as the writers used to write it, then loaded back."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_schedule_loads_equal_to_the_indented_document(tmp_path, planned):
    plan, _, _ = planned
    doc = {  # as before, less "selected": a stage admitted the ids whose "c" fell
        "stages": [
            {
                "t": t,
                "D_t": rec.budget,
                "delta_D": rec.delta_budget,
                "delta_H": rec.delta_h,
                "H": rec.h_after,
                "c": dict(zip(plan.ids, row)),
            }
            for t, (rec, row) in enumerate(zip(plan.stages, plan.counts.tolist()))
        ],
        "params": plan.params,
    }
    write_schedule(plan, tmp_path / "schedule.json")
    text = (tmp_path / "schedule.json").read_text(encoding="utf-8")
    assert len(text.splitlines()) == len(plan.stages) + 3  # one stage per line
    assert _load(tmp_path / "schedule.json") == _indented(doc, tmp_path / "old.json")


def test_trace_loads_equal_to_the_indented_document_without_counts(tmp_path, planned):
    _, _, trace = planned
    doc = {  # as before, less "input_steps": schedule.json stage e's "c" for epoch e
        "epoch_losses": trace.epoch_losses,
        "final_token_probs": {qid: [float(v) for v in p] for qid, p in trace.final_token_probs.items()},
    }
    write_trace(trace, tmp_path / "trace.json")
    text = (tmp_path / "trace.json").read_text(encoding="utf-8")
    assert len(text.splitlines()) == len(trace.final_token_probs) + 3  # one question per line
    assert _load(tmp_path / "trace.json") == _indented(doc, tmp_path / "old.json")


def test_clusters_load_equal_to_the_indented_document(tmp_path, planned):
    _, clusters, _ = planned
    doc = {"n_clusters": clusters.n_clusters, "assignment": clusters.assignment}
    write_clusters(clusters, tmp_path / "clusters.json")
    assert len((tmp_path / "clusters.json").read_text(encoding="utf-8").splitlines()) == 1
    assert _load(tmp_path / "clusters.json") == _indented(doc, tmp_path / "old.json")


def test_an_empty_trace_is_one_document(tmp_path):
    trace = StudentTrace(epoch_losses=[], scored_weight_means=[], final_token_probs={}, unigram=None, bigram=None)
    write_trace(trace, tmp_path / "trace.json")
    assert _load(tmp_path / "trace.json") == {"epoch_losses": [], "final_token_probs": {}}


def _peak_bytes(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


IDS = [f"q{i:04d}" for i in range(2000)]


def test_write_schedule_encodes_one_stage_at_a_time(tmp_path):
    # Encoding the whole document in one call holds all of it in memory at
    # once (several times its size as the encoder's pieces); a line holds
    # one stage, a 60th of this document.
    rng = np.random.default_rng(0)
    stages = [StageRecord(budget=1.5 * t, delta_budget=0.3, delta_h=0.2, h_after=1 / 3) for t in range(61)]
    counts = rng.integers(0, 5, size=(61, len(IDS)))
    path = tmp_path / "schedule.json"
    peak = _peak_bytes(lambda: write_schedule(Schedule(stages, counts, IDS, {"horizon": 30}), path))
    assert peak < path.stat().st_size / 2


def test_write_trace_encodes_one_question_at_a_time(tmp_path):
    rng = np.random.default_rng(1)
    probs = {qid: rng.random(int(rng.integers(15, 40))) for qid in IDS}
    trace = StudentTrace(epoch_losses=list(rng.random(20)), scored_weight_means=[None] * 20,
                         final_token_probs=probs, unigram=None, bigram=None)
    path = tmp_path / "trace.json"
    peak = _peak_bytes(lambda: write_trace(trace, path))
    assert peak < path.stat().st_size / 2


# --- the encoding of every artifact the pipeline writes ----------------------


REPLAN_STAGES = ("assess", "cluster", "schedule", "shape-loss", "simulate")


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


@pytest.fixture(scope="module")
def written(tmp_path_factory, bundled_corpus_path):
    """(--out of each pipeline, the replan corpus path): run --simulate on the
    bundled corpus with a short trainer, and the five replan commands on 60
    questions with given weights."""
    base = tmp_path_factory.mktemp("written")
    outs = {"run": base / "run", "replan": base / "replan"}
    _cli("run", "--simulate", "--corpus", str(bundled_corpus_path), "--out", str(outs["run"]),
         "--weight-epochs", "2", "--restarts", "1", "--seed", "1", "--epochs", "6")
    corpus = make_arith_corpus(60, seed=5)
    corpus_path = base / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    outs["replan"].mkdir()
    rng = np.random.default_rng(5)
    write_weights({q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions},
                  outs["replan"] / "weights.jsonl")
    for stage in REPLAN_STAGES:
        _cli(stage, "--corpus", str(corpus_path), "--out", str(outs["replan"]), "--seed", "1", "--epochs", "8")
    return outs, corpus_path


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("pipeline, names", [
    ("run", ["clusters.json", "difficulty.jsonl", "losses.jsonl", "schedule.json", "trace.json",
             "weight_model.json", "weights.jsonl"]),
    ("replan", ["clusters.json", "difficulty.jsonl", "losses.jsonl", "schedule.json", "trace.json",
                "weights.jsonl"]),
])
def test_every_artifact_is_compact_json(written, pipeline, names):
    # every writer put a space after each "," and ":"
    out = written[0][pipeline]
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        if name.endswith(".jsonl"):
            for line in text.splitlines():
                assert line == _compact(json.loads(line)), name
        else:  # one record per line: the newlines between records are all it adds
            assert text.replace("\n", "") == _compact(json.loads(text)), name


@pytest.mark.parametrize("pipeline", ["run", "replan"])
def test_losses_jsonl_has_one_line_per_stage_with_a_change(written, pipeline):
    # losses.jsonl had one line per window change
    out = written[0][pipeline]
    stages = [rec["c"] for rec in json.loads((out / "schedule.json").read_text())["stages"]]
    epochs = len(json.loads((out / "trace.json").read_text())["epoch_losses"])
    lines = [json.loads(line) for line in (out / "losses.jsonl").read_text().splitlines()]
    changed = [t for t in range(1, epochs + 1) if t == 1 or stages[t] != stages[t - 1]]
    assert len(changed) > 1
    assert [rec["t"] for rec in lines] == changed  # ascending, each stage once
    assert list(lines[0]["input_end"]) == list(stages[1])  # stage 1 lists every question, in corpus order


def _spaced(path, out) -> None:
    """path rewritten into out as the writers wrote it before they were
    compact: json.dumps with its default separators, in the same layout."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        spaced = "".join(json.dumps(json.loads(line)) + "\n" for line in text.splitlines())
    elif path.name == "schedule.json":
        doc = json.loads(text)
        stages = ",".join("\n" + json.dumps(stage) for stage in doc["stages"])
        spaced = '{"stages": [' + stages + '\n],\n"params": ' + json.dumps(doc["params"]) + "}\n"
    else:
        spaced = json.dumps(json.loads(text)) + "\n"
    assert spaced != text
    (out / path.name).write_text(spaced, encoding="utf-8")


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def test_an_out_directory_in_the_spaced_encoding_reads_the_same(written, tmp_path):
    outs, corpus_path = written
    compact = outs["replan"]
    corpus = parse_corpus(corpus_path)
    readers = {
        "weights.jsonl": read_weights,
        "difficulty.jsonl": lambda path, corpus: read_table(path, corpus).steps,
        "clusters.json": read_clusters,
        "schedule.json": read_schedule,
    }
    old = tmp_path / "old"
    old.mkdir()
    for name, read in readers.items():
        _spaced(compact / name, old)
        assert _same(read(old / name, corpus), read(compact / name, corpus)), name
    # the stages downstream of each file write what they wrote from the compact ones
    argv = ["--corpus", str(corpus_path), "--out", str(old), "--seed", "1", "--epochs", "8"]
    for stage, artifact in (("shape-loss", "losses.jsonl"), ("simulate", "trace.json"), ("schedule", "schedule.json")):
        _cli(stage, *argv)
        assert (old / artifact).read_bytes() == (compact / artifact).read_bytes(), stage
