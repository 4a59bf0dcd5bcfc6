"""Step difficulty scoring: softmax weight normalization and weighted NLL."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotpace.cli import READERS, WEIGHTS
from cotpace.corpus import Corpus, Question
from cotpace.difficulty import (
    compute_table,
    corpus_logprobs,
    corpus_total,
    normalize_step_weights,
    question_generation_difficulty,
    read_table,
    step_difficulty,
    synthetic_logprobs,
    write_table,
)
from cotpace.weighting import write_weights
from oracles import uniform_weights


def _question(qid, logprobs, weights=None, steps=None):
    tokens = [f"t{i}" for i in range(len(logprobs))]
    return Question(
        id=qid,
        question_text="q",
        answer_text="a",
        rationale_tokens=tokens,
        step_spans=steps or [(0, len(tokens))],
        token_logprobs=np.array(logprobs, dtype=np.float64),
        token_weights=np.array(weights, dtype=np.float64) if weights is not None else None,
        embedding=np.zeros(4),
    )


def _uniform_table(corpus):
    """The table assess writes for a corpus without token_weights and with no
    weights.jsonl: ones for every token, the corpus token_logprobs."""
    return compute_table(corpus, uniform_weights(corpus), corpus_logprobs(corpus))


# --- normalize_step_weights ---------------------------------------------------


def test_normalize_uniform_for_equal_weights():
    out = normalize_step_weights(np.array([0.7, 0.7, 0.7, 0.7]), (0, 4))
    assert np.allclose(out, 0.25)


def test_normalize_hand_computed_pair():
    out = normalize_step_weights(np.array([0.9, 0.1]), (0, 2))
    expect = np.exp([0.9, 0.1]) / np.exp([0.9, 0.1]).sum()
    assert np.allclose(out, expect, atol=1e-12)
    assert abs(out[0] - 0.6900) < 5e-5 and abs(out[1] - 0.3100) < 5e-5


def test_normalize_single_token():
    assert np.array_equal(normalize_step_weights(np.array([0.3]), (0, 1)), np.array([1.0]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_normalize_sums_to_one(weights):
    out = normalize_step_weights(np.asarray(weights), (0, len(weights)))
    assert abs(float(out.sum()) - 1.0) < 1e-6
    assert np.all(out > 0.0)


def test_normalize_shift_invariance():
    w = np.array([0.2, 0.8, 0.5])
    lp = np.array([-0.7, -0.2, -1.1])
    base = step_difficulty(lp, normalize_step_weights(w, (0, 3)), (0, 3))
    shifted = step_difficulty(lp, normalize_step_weights(w + 0.37, (0, 3)), (0, 3))
    assert abs(base - shifted) < 1e-9


# --- step_difficulty ----------------------------------------------------------


def test_step_difficulty_single_token():
    d = step_difficulty(np.array([math.log(0.5)]), np.array([1.0]), (0, 1))
    assert abs(d - 0.6931471805599453) < 1e-12


def test_step_difficulty_zero_logprobs():
    assert step_difficulty(np.zeros(3), np.full(3, 1 / 3), (0, 3)) == 0.0


def test_step_difficulty_zero_weight_annihilates():
    lp = np.array([math.log(0.5), math.log(0.01)])
    d = step_difficulty(lp, np.array([1.0, 0.0]), (0, 2))
    assert abs(d - 0.6931471805599453) < 1e-12


# --- question/corpus totals ---------------------------------------------------


def test_generation_difficulty_boundaries():
    q = _question("q", [-1.0, -2.0, -3.0], steps=[(0, 1), (1, 2), (2, 3)])
    table = _uniform_table(Corpus([q], 4))
    assert question_generation_difficulty(table, "q", 3) == 0.0
    assert question_generation_difficulty(table, "q", 0) == math.fsum(table["q"])


def test_generation_difficulty_hand_case():
    table = {"q": np.array([1.0, 2.0, 3.0])}
    assert question_generation_difficulty(table, "q", 1) == 5.0


def test_corpus_total_empty_and_sum():
    assert corpus_total(_uniform_table(Corpus([], 4))) == 0.0
    qa = _question("a", [-1.5])
    qb = _question("b", [-2.5])
    table = _uniform_table(Corpus([qa, qb], 4))
    assert table["a"].tolist() == [1.5] and table["b"].tolist() == [2.5]
    assert corpus_total(table) == 4.0


def test_totals_match_parts(bundled_corpus):
    table = _uniform_table(bundled_corpus)
    for qid, d in table.items():
        assert np.all(d >= 0.0)
    # the fsum of each question's fsum, in any order (fsum is exactly rounded)
    parts = [math.fsum(d) for d in table.values()]
    assert corpus_total(table) == math.fsum(parts) == math.fsum(reversed(parts))


def test_bundled_corpus_golden_total(bundled_corpus, golden_dir):
    doc = json.loads((golden_dir / "golden_difficulty_total.json").read_text())
    table = _uniform_table(bundled_corpus)
    assert abs(corpus_total(table) - doc["B"]) < 1e-9


# --- compute_table plumbing ---------------------------------------------------


def test_assess_weights_come_from_the_file_else_the_corpus_else_ones(tmp_path):
    # cli.READERS is the one place that picks the weights assess and simulate
    # score; compute_table scores only the map it is given
    q = _question("q", [-1.0, -2.0], weights=[0.0, 1.0])
    bare = _question("bare", [-1.0, -2.0])
    corpus = Corpus([q, bare], 4)
    read = READERS[WEIGHTS]
    # no weights.jsonl: the record's weights, else a weight of 1 per token
    fallback = read(tmp_path / "weights.jsonl", corpus)
    assert np.array_equal(fallback["q"], [0.0, 1.0]) and np.array_equal(fallback["bare"], [1.0, 1.0])
    table = compute_table(corpus, fallback, corpus_logprobs(corpus))
    # a weight of 1 per token scores every step uniformly
    assert table["bare"][0] == 1.5
    expected_record = -float(np.dot(normalize_step_weights(np.array([0.0, 1.0]), (0, 2)), [-1.0, -2.0]))
    assert abs(table["q"][0] - expected_record) < 1e-12
    # weights.jsonl's weights are the ones scored, over the record's
    write_weights({"q": np.array([1.0, 0.0]), "bare": np.array([0.5, 0.5])}, tmp_path / "weights.jsonl")
    override = compute_table(corpus, read(tmp_path / "weights.jsonl", corpus), corpus_logprobs(corpus))["q"][0]
    expected_override = -float(np.dot(normalize_step_weights(np.array([1.0, 0.0]), (0, 2)), [-1.0, -2.0]))
    assert abs(override - expected_override) < 1e-12


def test_corpus_logprobs_refuses_a_question_without_them():
    q = _question("q", [-1.0])
    q.token_logprobs = None
    with pytest.raises(ValueError, match="synthetic_logprobs"):
        corpus_logprobs(Corpus([_question("first", [-2.0]), q], 4))


def test_synthetic_logprobs_deterministic(bundled_corpus):
    a = synthetic_logprobs(bundled_corpus, 11)
    b = synthetic_logprobs(bundled_corpus, 11)
    questions = {q.id: q for q in bundled_corpus.questions}
    for qid in a:
        assert np.array_equal(a[qid], b[qid])
        assert np.all(a[qid] < 0.0)
        assert a[qid].size == questions[qid].n_tokens
    c = synthetic_logprobs(bundled_corpus, 12)
    assert any(not np.array_equal(a[qid], c[qid]) for qid in a)


# --- persistence --------------------------------------------------------------


def test_table_round_trip(bundled_corpus, tmp_path):
    table = _uniform_table(bundled_corpus)
    path = tmp_path / "difficulty.jsonl"
    write_table(table, path)
    back = read_table(path, bundled_corpus)
    assert corpus_total(back) == corpus_total(table)
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"id", "step_difficulties"}  # no stored totals
    for qid in table:
        assert np.array_equal(back[qid], table[qid])


def test_read_table_refuses_a_stored_total_row(tmp_path):
    # tables once ended with a {"B": total} row, which was taken on trust
    corpus = Corpus([_question("q", [-1.0])], 4)
    path = tmp_path / "old.jsonl"
    rows = [{"id": "q", "step_difficulties": [1.0], "total": 1.0}, {"B": 0.5}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=r"old.jsonl: line 2: missing key\(s\) \['id', 'step_difficulties'\]"):
        read_table(path, corpus)


# --- property: h non-increasing in c -------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_h_non_increasing_in_input_steps(data):
    n_steps = data.draw(st.integers(1, 4))
    widths = [data.draw(st.integers(1, 4)) for _ in range(n_steps)]
    spans, pos = [], 0
    for w in widths:
        spans.append((pos, pos + w))
        pos += w
    lp = [data.draw(st.floats(-5.0, 0.0)) for _ in range(pos)]
    tw = [data.draw(st.floats(0.0, 1.0)) for _ in range(pos)]
    q = _question("q", lp, weights=tw, steps=spans)
    corpus = Corpus([q], 4)
    table = compute_table(corpus, {"q": np.array(tw)}, corpus_logprobs(corpus))
    values = [question_generation_difficulty(table, "q", c) for c in range(n_steps + 1)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12
