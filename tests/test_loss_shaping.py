"""Stagewise loss windows and the tabular student used to sanity-check them."""
from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  imported here, so that no measurement below counts its import
import pytest

from cotpace import loss_shaping
from cotpace.corpus import Corpus, Question
from cotpace.difficulty import compute_table, corpus_logprobs
from cotpace.loss_shaping import (
    BOS_ID,
    StudentConfig,
    build_stage_loss_specs,
    shape_stage_loss,
    simulate_student,
    write_loss_specs,
    write_trace,
)
from cotpace.schedule import BudgetCurve, plan_full_schedule, read_schedule, write_schedule
from cotpace.selection import kmeans_cluster
from cotpace.synth import make_arith_corpus
from oracles import count_matrix, evaluate_loss, train_plain, uniform_weights


def _question(qid: str = "q", spans=((0, 3), (3, 5))) -> Question:
    n = spans[-1][1]
    return Question(
        id=qid,
        question_text="what happens next",
        answer_text="five",
        rationale_tokens=[f"tok{i}" for i in range(n)],
        step_spans=[tuple(s) for s in spans],
        token_logprobs=None,
        token_weights=None,
        embedding=None,
    )


def _zero_schedule(corpus, n_stages: int) -> np.ndarray:
    """Input-step counts of stages 0..n_stages, every one 0."""
    return count_matrix(corpus, [{q.id: 0 for q in corpus.questions}] * (n_stages + 1))


# --- shape_stage_loss -----------------------------------------------------------


def test_zero_input_steps_covers_whole_rationale():
    assert shape_stage_loss(_question(), 0) == 0


def test_all_input_steps_leaves_nothing_generated():
    assert shape_stage_loss(_question(), 2) == 5


def test_partial_input_starts_at_step_boundary():
    assert shape_stage_loss(_question(), 1) == 3


def test_weights_are_sliced_to_generated_range():
    w = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    lp = np.array([-1.0, -2.0, -3.0, -4.0, -5.0])
    assert abs(evaluate_loss(shape_stage_loss(_question(), 1), lp, w) - (0.4 * 4.0 + 0.5 * 5.0)) < 1e-12


def test_weight_vector_must_cover_rationale():
    with pytest.raises(ValueError, match="3 weights for 5 rationale tokens"):
        evaluate_loss(shape_stage_loss(_question(), 1), np.full(5, -1.0), np.ones(3))


def test_spec_validation_rejects_bad_weights():
    for bad in ([0.5, 1.5], [0.5, -0.1], [np.nan, 0.5]):
        with pytest.raises(ValueError, match="lie in"):
            evaluate_loss(0, np.full(2, -1.0), np.array(bad))


# --- evaluate_loss --------------------------------------------------------------


def test_evaluate_empty_generation_range_is_zero():
    end = shape_stage_loss(_question(), 2)
    assert evaluate_loss(end, np.full(5, -1.0)) == 0.0


def test_evaluate_hand_value():
    end = shape_stage_loss(_question(), 1)
    lp = np.array([0.0, 0.0, 0.0, math.log(0.5), math.log(0.5)])
    assert abs(evaluate_loss(end, lp) - 2.0 * math.log(2.0)) < 1e-12
    assert abs(evaluate_loss(end, lp) - 1.3863) < 1e-4


def test_evaluate_zero_weights_ignore_tokens():
    end = shape_stage_loss(_question(), 0)
    assert evaluate_loss(end, np.full(5, -9.0), np.zeros(5)) == 0.0


def test_evaluate_is_linear_in_weights():
    rng = np.random.default_rng(0)
    q = _question()
    lp = -rng.exponential(1.0, size=5)
    w1 = rng.uniform(0, 1, size=5)
    w2 = rng.uniform(0, 1, size=5)
    mid = 0.5 * (w1 + w2)
    end = shape_stage_loss(q, 0)
    a = evaluate_loss(end, lp, w1)
    b = evaluate_loss(end, lp, w2)
    c = evaluate_loss(end, lp, mid)
    assert abs(c - 0.5 * (a + b)) < 1e-12


def test_evaluate_input_validation():
    end = shape_stage_loss(_question(), 1)
    with pytest.raises(ValueError, match="cover"):
        evaluate_loss(end, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        evaluate_loss(end, np.array([0.0, 0.0, 0.0, 0.1, -1.0]))
    with pytest.raises(ValueError, match="finite"):
        evaluate_loss(end, np.array([0.0, 0.0, 0.0, np.nan, -1.0]))


def test_evaluate_ignores_logprobs_in_input_range():
    end = shape_stage_loss(_question(), 1)
    lp_a = np.array([np.inf, 99.0, -5.0, -1.0, -1.0])
    lp_b = np.array([0.0, 0.0, 0.0, -1.0, -1.0])
    assert evaluate_loss(end, lp_a) == evaluate_loss(end, lp_b)


def test_loss_shrinks_as_input_steps_grow():
    rng = np.random.default_rng(1)
    q = _question(spans=((0, 2), (2, 5), (5, 9)))
    lp = -rng.exponential(1.0, size=9)
    losses = [evaluate_loss(shape_stage_loss(q, c), lp) for c in range(4)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] == 0.0


# --- windows from a schedule ----------------------------------------------------


def test_a_zero_schedule_lists_stage_1_only(bundled_corpus):
    sched = _zero_schedule(bundled_corpus, 3)
    windows = build_stage_loss_specs(bundled_corpus, sched, 3)
    assert [windows.ids[i] for i in windows.row] == [q.id for q in bundled_corpus.questions]
    assert windows.stage.tolist() == [1] * len(windows) and not windows.input_end.any()


def test_build_specs_requires_a_stage_per_epoch(bundled_corpus):
    sched = _zero_schedule(bundled_corpus, 2)
    with pytest.raises(ValueError, match="no stage 3 but the student trains for 10 epochs"):
        build_stage_loss_specs(bundled_corpus, sched, 10)


def _stepped_schedule(corpus, n_stages: int, seed: int) -> list[dict[str, int]]:
    """Each question starts with all its input steps and loses one at
    random stages, so counts drop and then hold, and reach 0 by the end."""
    rng = np.random.default_rng(seed)
    counts = {q.id: q.n_steps for q in corpus.questions}
    stages = []
    for t in range(n_stages + 1):
        if t > 0:
            for q in corpus.questions:
                if counts[q.id] and (t == n_stages or rng.random() < 0.3):
                    counts[q.id] = 0 if t == n_stages else counts[q.id] - 1
        stages.append(dict(counts))
    return stages


def _distinct_pairs(stages: list[dict[str, int]], last_stage: int) -> int:
    return len({(qid, c) for counts in stages[1 : last_stage + 1] for qid, c in counts.items()})


def _count_shape_calls(monkeypatch) -> list[int]:
    calls = [0]
    shape = loss_shaping.shape_stage_loss

    def counted(*args, **kwargs):
        calls[0] += 1
        return shape(*args, **kwargs)

    monkeypatch.setattr(loss_shaping, "shape_stage_loss", counted)
    return calls


def test_build_specs_lists_each_window_change_once(monkeypatch, bundled_corpus):
    sched = _stepped_schedule(bundled_corpus, 8, seed=4)
    calls = _count_shape_calls(monkeypatch)
    windows = build_stage_loss_specs(bundled_corpus, count_matrix(bundled_corpus, sched), 8)
    assert calls[0] == len(windows) == _distinct_pairs(sched, 8) < 8 * len(bundled_corpus.questions)
    monkeypatch.undo()
    want, last = [], {}
    for t, counts in enumerate(sched[1:], start=1):
        for i, q in enumerate(bundled_corpus.questions):
            c = counts[q.id]
            if last.get(q.id) != c:
                last[q.id] = c
                want.append((t, i, shape_stage_loss(q, c)))
    assert list(zip(windows.stage.tolist(), windows.row.tolist(), windows.input_end.tolist())) == want


def test_a_held_count_is_listed_once(monkeypatch):
    q = _question(spans=((0, 2), (2, 5), (5, 9)))
    corpus = Corpus(questions=[q], embedding_dim=None)
    sched = count_matrix(corpus, [{"q": c} for c in (3, 3, 1, 1, 1, 1, 0)])  # drops at stage 2, holds through stage 5
    calls = _count_shape_calls(monkeypatch)
    windows = build_stage_loss_specs(corpus, sched, 6)
    assert calls[0] == 3
    assert windows.stage.tolist() == [1, 2, 6]
    assert windows.input_end.tolist() == [9, 2, 0]
    calls[0] = 0
    simulate_student(corpus, sched, {"q": np.linspace(0.1, 0.9, 9)}, StudentConfig(epochs=6))
    assert calls[0] == 3  # the student shapes once per window change, never once per epoch


def test_the_student_trains_on_the_windows_shape_stage_loss_cuts(monkeypatch, bundled_corpus):
    def empty(question, input_steps):
        return question.n_tokens

    monkeypatch.setattr(loss_shaping, "shape_stage_loss", empty)
    sched = _zero_schedule(bundled_corpus, 5)  # every token scored, had the student cut its own windows
    trace = simulate_student(bundled_corpus, sched, uniform_weights(bundled_corpus), StudentConfig(epochs=5))
    assert trace.epoch_losses == [0.0] * 5


def _expand(lines: list[str], stages: list[int]) -> dict[int, dict[str, int]]:
    """losses.jsonl carried forward: at each stage, every id's window start
    from its last line at or before that stage, one line per stage."""
    records = [json.loads(line) for line in lines]
    assert [r["t"] for r in records] == sorted({r["t"] for r in records})
    held: dict[str, int] = {}
    out = {}
    for t in stages:
        held.update(next((r["input_end"] for r in records if r["t"] == t), {}))
        out[t] = dict(held)
    return out


def test_losses_file_expands_to_every_stage(tmp_path, bundled_corpus):
    sched = _stepped_schedule(bundled_corpus, 6, seed=12)
    path = tmp_path / "losses.jsonl"
    write_loss_specs(build_stage_loss_specs(bundled_corpus, count_matrix(bundled_corpus, sched), 6), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    changed = [t for t in range(1, 7) if t == 1 or sched[t] != sched[t - 1]]
    assert len(lines) == len(changed)
    assert any(  # a count that drops and then holds
        sched[t - 1][qid] > sched[t][qid] == sched[t + 1][qid] for t in range(2, 6) for qid in sched[t]
    )
    expanded = _expand(lines, range(1, len(sched)))
    for t in range(1, len(sched)):
        want = {}
        for q in bundled_corpus.questions:  # the window start of stage t's count
            c = sched[t][q.id]
            want[q.id] = q.n_tokens if c == q.n_steps else q.step_spans[c][0]
        assert expanded[t] == want


def test_losses_file_holds_ranges_only(tmp_path, bundled_corpus):
    sched = _stepped_schedule(bundled_corpus, 4, seed=9)
    windows = build_stage_loss_specs(bundled_corpus, count_matrix(bundled_corpus, sched), 4)
    path = tmp_path / "losses.jsonl"
    write_loss_specs(windows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(set(windows.stage.tolist()))
    for line in lines:
        rec = json.loads(line)
        assert list(rec) == ["t", "input_end"]
        at = windows.stage == rec["t"]
        ids = [bundled_corpus.questions[i].id for i in windows.row[at]]
        assert rec["input_end"] == dict(zip(ids, windows.input_end[at].tolist()))
        assert list(rec["input_end"]) == ids  # in corpus order


# --- the tabular student ---------------------------------------------------------


def test_zero_curriculum_matches_plain_training_bitwise(bundled_corpus):
    corpus_slice = type(bundled_corpus)(
        questions=bundled_corpus.questions[:6], embedding_dim=bundled_corpus.embedding_dim
    )
    cfg = StudentConfig(epochs=5, lr=0.5, seed=3)
    sched = _zero_schedule(corpus_slice, cfg.epochs)
    weights = uniform_weights(corpus_slice)
    sim = simulate_student(corpus_slice, sched, weights, cfg)
    plain = train_plain(corpus_slice, weights, cfg)
    assert sim.epoch_losses == plain.epoch_losses
    assert np.array_equal(sim.unigram, plain.unigram)
    assert np.array_equal(sim.bigram, plain.bigram)
    for qid, probs in sim.final_token_probs.items():
        assert np.array_equal(probs, plain.final_token_probs[qid])


def test_plain_training_reduces_loss(bundled_corpus):
    corpus_slice = type(bundled_corpus)(
        questions=bundled_corpus.questions[:8], embedding_dim=bundled_corpus.embedding_dim
    )
    trace = train_plain(corpus_slice, uniform_weights(corpus_slice), StudentConfig(epochs=15, lr=0.5, seed=0))
    assert trace.epoch_losses[-1] < trace.epoch_losses[0]


def test_student_is_deterministic(bundled_corpus):
    corpus_slice = type(bundled_corpus)(
        questions=bundled_corpus.questions[:4], embedding_dim=bundled_corpus.embedding_dim
    )
    cfg = StudentConfig(epochs=4, lr=0.5, seed=12)
    a = train_plain(corpus_slice, uniform_weights(corpus_slice), cfg)
    b = train_plain(corpus_slice, uniform_weights(corpus_slice), cfg)
    assert a.epoch_losses == b.epoch_losses
    assert np.array_equal(a.unigram, b.unigram)


def test_simulate_requires_stage_per_epoch(bundled_corpus):
    sched = _zero_schedule(bundled_corpus, 2)
    with pytest.raises(ValueError, match="no stage 3 but the student trains for 10 epochs"):
        simulate_student(bundled_corpus, sched, uniform_weights(bundled_corpus), StudentConfig(epochs=10))


def test_trace_written_as_json(tmp_path, bundled_corpus):
    corpus_slice = type(bundled_corpus)(
        questions=bundled_corpus.questions[:3], embedding_dim=bundled_corpus.embedding_dim
    )
    trace = train_plain(corpus_slice, uniform_weights(corpus_slice), StudentConfig(epochs=2))
    path = tmp_path / "trace.json"
    write_trace(trace, path)
    doc = json.loads(path.read_text())
    assert len(doc["epoch_losses"]) == 2
    assert set(doc["final_token_probs"]) == {q.id for q in corpus_slice.questions}


def _reference_student(corpus, epoch_ends, weights, cfg):
    """The student as a per-question loop: one softmax per generated token,
    gradients scattered with np.add.at. epoch_ends[e] maps id -> input_end;
    weights maps id -> the whole rationale's weights."""
    vocab = {"<bos>": BOS_ID}
    for q in corpus.questions:
        for tok in q.rationale_tokens:
            vocab.setdefault(tok, len(vocab))
    enc = {q.id: np.asarray([vocab[t] for t in q.rationale_tokens]) for q in corpus.questions}
    nv, nq = len(vocab), len(corpus.questions)

    def context(idx, start):
        if start == 0:
            return np.concatenate(([BOS_ID], idx[:-1]))
        return idx[start - 1 : idx.size - 1]

    rng = np.random.default_rng(cfg.seed)
    unigram = rng.normal(0.0, loss_shaping.INIT_SCALE, size=nv)
    bigram = rng.normal(0.0, loss_shaping.INIT_SCALE, size=(nv, nv))
    losses = []
    for ends in epoch_ends:
        g_uni, g_bi, total = np.zeros(nv), np.zeros((nv, nv)), 0.0
        for q in corpus.questions:
            end = ends[q.id]
            m = q.n_tokens - end
            if m == 0:
                continue
            w = weights[q.id][end:]
            idx = enc[q.id]
            prev, tgt = context(idx, end), idx[end:]
            logits = unigram[None, :] + bigram[prev]
            mx = logits.max(axis=1, keepdims=True)
            ez = np.exp(logits - mx)
            sz = ez.sum(axis=1, keepdims=True)
            logp = logits[np.arange(m), tgt] - mx[:, 0] - np.log(sz[:, 0])
            total += -float(np.dot(w, logp))
            probs = ez / sz
            probs[np.arange(m), tgt] -= 1.0
            probs *= w[:, None]
            g_uni += probs.sum(axis=0)
            np.add.at(g_bi, prev, probs)
        unigram -= cfg.lr / nq * g_uni
        bigram -= cfg.lr / nq * g_bi
        losses.append(total / nq)
    final = {}
    for q in corpus.questions:
        idx = enc[q.id]
        logits = unigram[None, :] + bigram[context(idx, 0)]
        mx = logits.max(axis=1, keepdims=True)
        sz = np.exp(logits - mx).sum(axis=1)
        final[q.id] = np.exp(logits[np.arange(idx.size), idx] - mx[:, 0] - np.log(sz))
    return losses, unigram, bigram, final


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_an_epoch_table_with_zeros_equals_the_scored_tokens_alone(bundled_corpus):
    """The student bins every token, an unscored one with weight 0.0: since
    np.bincount adds in input order and x + 0.0 is x, each pair's sum is bit
    for bit the sum over the scored tokens alone."""
    questions = bundled_corpus.questions
    pos = np.concatenate([np.arange(q.n_tokens) for q in questions])
    n_tokens = np.array([q.n_tokens for q in questions])
    rng = np.random.default_rng(17)
    for nv in (3, 10, 40):  # few pairs, so most sums add many tokens
        pair = rng.integers(0, nv * nv, size=pos.size)
        w = rng.uniform(0.0, 1.0, size=pos.size)
        for _ in range(20):
            ends = np.array([shape_stage_loss(q, rng.integers(0, q.n_steps + 1)) for q in questions])
            scored = pos >= np.repeat(ends, n_tokens)
            table = np.bincount(pair, weights=np.where(scored, w, 0.0), minlength=nv * nv)
            alone = np.bincount(pair[scored], weights=w[scored], minlength=nv * nv)
            assert table.tobytes() == alone.tobytes()


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "curriculum", ["none", "random", "stepped"], ids=["no-curriculum", "curriculum", "stepped"]
)
def test_student_matches_the_per_question_loop(bundled_corpus, weighted, curriculum):
    corpus = type(bundled_corpus)(
        questions=bundled_corpus.questions[:12], embedding_dim=bundled_corpus.embedding_dim
    )
    cfg = StudentConfig(epochs=6, lr=0.8, seed=5)
    rng = np.random.default_rng(11)
    weights = (
        {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}
        if weighted
        else uniform_weights(corpus)
    )
    sched = [{q.id: 0 for q in corpus.questions}] * (cfg.epochs + 1)
    if curriculum == "random":  # every question a random number of input steps at every stage
        sched = [{q.id: int(rng.integers(0, q.n_steps + 1)) for q in corpus.questions} for _ in sched]
    elif curriculum == "stepped":  # counts that drop and then hold
        sched = _stepped_schedule(corpus, cfg.epochs, seed=3)
        assert any(sched[t - 1][q] > sched[t][q] == sched[t + 1][q] for t in range(2, 6) for q in sched[t])
    epoch_ends = [{q.id: shape_stage_loss(q, counts[q.id]) for q in corpus.questions} for counts in sched[1:]]
    assert (curriculum != "none") == any(end > 0 for ends in epoch_ends for end in ends.values())
    losses, unigram, bigram, final = _reference_student(corpus, epoch_ends, weights, cfg)
    trace = simulate_student(corpus, count_matrix(corpus, sched), weights, cfg)
    _close(trace.epoch_losses, losses)
    _close(trace.unigram, unigram)
    _close(trace.bigram, bigram)
    assert trace.final_token_probs.keys() == final.keys()
    for qid, probs in final.items():
        _close(trace.final_token_probs[qid], probs)


# --- memory ----------------------------------------------------------------------

MiB = 2**20


def test_the_schedule_and_the_student_stay_small(tmp_path):
    # Each bound lies between two designs' readings (numpy 2.4.6): one
    # {id: count} dict per stage, one spec object per window change and one
    # pair array per question read 1.15 and 4.18 MiB; the count matrix,
    # column windows and one flat pair array read 0.33 and 2.57 MiB.
    corpus = make_arith_corpus(2000, seed=1)
    rng = np.random.default_rng(1)
    weights = {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in corpus.questions}
    table = compute_table(corpus, weights, corpus_logprobs(corpus))
    clusters = kmeans_cluster({q.id: q.embedding for q in corpus.questions}, 5, seed=1)
    curve = BudgetCurve.solve(b_total=table.corpus_total, c0=0.3 * table.corpus_total, p=0.5, t_max=10)
    plan = plan_full_schedule(corpus, table, curve, clusters, beta=12.0, eps=0.1, step_reduction=1, total_stages=20)
    write_schedule(plan, tmp_path / "schedule.json")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stages = read_schedule(tmp_path / "schedule.json", corpus)
        kept = tracemalloc.get_traced_memory()[0] - start
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = simulate_student(corpus, stages, weights, StudentConfig(epochs=20, seed=3))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(plan.stages) == 21 and len(trace.epoch_losses) == 20
    assert kept < 0.75 * MiB
    assert peak < 3.4 * MiB
