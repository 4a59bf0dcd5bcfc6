"""The JSON artifacts: documents equal to the indented ones written before,
encoded one record at a time."""
from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from cotpace.difficulty import compute_table
from cotpace.loss_shaping import StudentConfig, StudentTrace, simulate_student, write_trace
from cotpace.schedule import (
    BudgetCurve,
    Schedule,
    StageRecord,
    plan_full_schedule,
    write_schedule,
)
from cotpace.selection import kmeans_cluster, write_clusters
from cotpace.synth import make_arith_corpus


@pytest.fixture(scope="module")
def planned():
    """A schedule, its clusters and the simulated student on 60 questions."""
    corpus = make_arith_corpus(60, seed=5)
    table = compute_table(corpus)
    clusters = kmeans_cluster({q.id: q.embedding for q in corpus.questions}, 3, seed=2)
    curve = BudgetCurve.solve(b_total=table.corpus_total, c0=0.3 * table.corpus_total, p=0.5, t_max=5)
    plan = plan_full_schedule(
        corpus, table, curve, clusters, beta=12.0, eps=0.1, step_reduction=1, total_stages=10
    )
    trace = simulate_student(corpus, plan.counts, None, StudentConfig(epochs=10, seed=4))
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
