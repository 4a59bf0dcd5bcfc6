"""Corpus parsing, step segmentation, and hashed question embeddings."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotpace.corpus import (
    Corpus,
    ParseError,
    Question,
    ValidationError,
    embed_question,
    parse_corpus,
    question_to_record,
    segment_steps,
    write_corpus,
)
from cotpace.synth import make_arith_corpus


# --- segment_steps ----------------------------------------------------------


def test_segment_splits_on_periods():
    tokens = ["30", "+", "80", "=", "110", ".", "Therefore", "110", "."]
    assert segment_steps(tokens) == [(0, 6), (6, 9)]


def test_segment_decimal_guard():
    assert segment_steps(["3.5", "cups", "needed", "."]) == [(0, 4)]


def test_segment_trailing_tokens_close_last_step():
    assert segment_steps(["done"]) == [(0, 1)]
    assert segment_steps(["a", ".", "b", "c"]) == [(0, 2), (2, 4)]


def test_segment_period_inside_word():
    # "ends." has a period with a non-digit neighbour, so it terminates
    assert segment_steps(["it", "ends.", "here"]) == [(0, 2), (2, 3)]
    # both neighbours digits on every period: no boundary anywhere
    assert segment_steps(["1.2.3", "x"]) == [(0, 2)]
    # digit before but end-of-token after: boundary
    assert segment_steps(["9.", "x"]) == [(0, 1), (1, 2)]


def test_segment_empty_input_rejected():
    with pytest.raises(ValidationError):
        segment_steps([])


def _closes_step(token: str) -> bool:
    # independent restatement of the boundary rule used as a test oracle
    for j, ch in enumerate(token):
        if ch != ".":
            continue
        prev_ch = token[j - 1] if j > 0 else " "
        next_ch = token[j + 1] if j + 1 < len(token) else " "
        if not (prev_ch.isdigit() and next_ch.isdigit()):
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(["3.5", ".", "abc", "12", "end.", "a.b", "1.2.3", "x", "9.", "so"]),
        min_size=1,
        max_size=25,
    )
)
def test_segment_spans_cover_and_order(tokens):
    spans = segment_steps(tokens)
    assert spans[0][0] == 0
    assert spans[-1][1] == len(tokens)
    for k, (s, e) in enumerate(spans):
        assert s < e
        if k > 0:
            assert s == spans[k - 1][1]
        # only a span's last token may close a step
        for i in range(s, e - 1):
            assert not _closes_step(tokens[i])
    assert segment_steps(tokens) == spans  # pure function


# --- embed_question ---------------------------------------------------------


def test_embed_deterministic_and_normalized():
    a = embed_question("add the calories", dim=64, seed=7)
    b = embed_question("add the calories", dim=64, seed=7)
    assert np.array_equal(a, b)
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-9


def test_embed_golden_vector(golden_dir):
    doc = json.loads((golden_dir / "golden_embedding.json").read_text())
    vec = embed_question(doc["text"], dim=doc["dim"], seed=doc["seed"])
    assert np.array_equal(vec, np.asarray(doc["vector"]))


def test_embed_varies_with_seed_and_text():
    base = embed_question("add the calories", dim=64, seed=7)
    assert not np.array_equal(base, embed_question("add the calories", dim=64, seed=8))
    assert not np.array_equal(base, embed_question("subtract the calories", dim=64, seed=7))


def test_embed_rejects_empty_text_and_bad_dim():
    with pytest.raises(ValidationError):
        embed_question("   ", dim=64, seed=0)
    with pytest.raises(ValueError):
        embed_question("fine", dim=0, seed=0)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=40))
def test_embed_is_pure_and_unit_norm(text):
    a = embed_question(text, dim=16, seed=3)
    assert np.array_equal(a, embed_question(text, dim=16, seed=3))
    norm = float(np.linalg.norm(a))
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


# --- parse_corpus -----------------------------------------------------------


def _record(qid="q1", **overrides):
    rec = {
        "id": qid,
        "question": "how many apples",
        "answer": "3",
        "rationale_tokens": ["one", "plus", "two", ".", "so", "three", "."],
    }
    rec.update(overrides)
    return rec


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_parse_two_valid_records(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("a"), _record("b")])
    corpus = parse_corpus(path)
    assert [q.id for q in corpus.questions] == ["a", "b"]
    assert corpus.questions[0].step_spans == [(0, 4), (4, 7)]
    assert corpus.questions[0].embedding is not None
    assert corpus.embedding_dim == 64


def test_parse_fills_spans_and_embeddings(tmp_path):
    rec = _record(step_spans=[[0, 7]], embedding=[1.0, 0.0, 0.0])
    path = _write_jsonl(tmp_path / "c.jsonl", [rec])
    corpus = parse_corpus(path)
    assert corpus.questions[0].step_spans == [(0, 7)]  # supplied spans win
    assert corpus.embedding_dim == 3  # dim inferred from supplied vector


def test_parse_logprob_length_mismatch_names_id(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("bad", token_logprobs=[-0.5])])
    with pytest.raises(ValidationError, match="bad"):
        parse_corpus(path)


def test_parse_positive_logprob_rejected(tmp_path):
    lp = [0.0] * 6 + [0.5]
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(token_logprobs=lp)])
    with pytest.raises(ValidationError, match="token_logprobs"):
        parse_corpus(path)


def test_parse_duplicate_id_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("dup"), _record("dup")])
    with pytest.raises(ValidationError, match="dup"):
        parse_corpus(path)


@pytest.mark.parametrize("spans", [[[0.7, 2.2], [2, 7]], [[0, 4], [4.0, 7]]])
def test_parse_float_step_span_rejected(tmp_path, spans):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("fl", step_spans=spans)])
    with pytest.raises(ValidationError, match=r"step_spans.*'fl'"):
        parse_corpus(path)


def test_parse_bool_step_span_rejected(tmp_path):
    rec = _record("bo", step_spans=[[0, True], [True, 7]])
    path = _write_jsonl(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ValidationError, match=r"step_spans.*'bo'"):
        parse_corpus(path)


def test_parse_unknown_key_strict_vs_lenient(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(extra_field=1)])
    with pytest.raises(ParseError, match="unknown key"):
        parse_corpus(path)
    corpus = parse_corpus(path, strict=False)
    assert len(corpus) == 1


def test_parse_bad_json_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_record()) + "\n{not json\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_corpus(path)


def test_parse_non_object_line_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ParseError, match="object"):
        parse_corpus(path)


def test_parse_missing_required_key(tmp_path):
    rec = _record()
    del rec["answer"]
    path = _write_jsonl(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ValidationError, match="answer"):
        parse_corpus(path)


def test_parse_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n" + json.dumps(_record()) + "\n\n")
    assert len(parse_corpus(path)) == 1


def test_parse_weights_out_of_range(tmp_path):
    tw = [0.5] * 6 + [1.5]
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(token_weights=tw)])
    with pytest.raises(ValidationError, match="token_weights"):
        parse_corpus(path)


NUMBER_FIELDS = {"token_logprobs": -0.5, "token_weights": 0.5, "embedding": 0.5}


@pytest.mark.parametrize("bad", [True, "0.5"], ids=["true", "string"])
@pytest.mark.parametrize("field", list(NUMBER_FIELDS))
def test_parse_non_number_entry_rejected(tmp_path, field, bad):
    values = [NUMBER_FIELDS[field]] * 7
    values[3] = bad
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("nn", **{field: values})])
    message = f"field '{field}' of 'nn' (line 1): entries must be numbers"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_corpus(path)


def test_parse_integer_entries_become_floats(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(token_logprobs=[0, -1, -1.5, 0, -2, 0, -1],
                                                       embedding=[1, 0.5])])
    q = parse_corpus(path).questions[0]
    assert type(q.token_logprobs) is np.ndarray and q.token_logprobs.dtype == np.float64
    assert q.token_logprobs.tolist() == [0.0, -1.0, -1.5, 0.0, -2.0, 0.0, -1.0]
    assert q.embedding.dtype == np.float64 and q.embedding.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("embedding", [None, [0.6, 0.8]], ids=["derived", "given"])
def test_blank_question_text_names_file_line_and_id(tmp_path, embedding):
    # without an embedding the error was "cannot embed empty question text",
    # raised after every record was read, naming neither question nor file
    blank = _record("blank", question="  ")
    if embedding is not None:
        blank["embedding"] = embedding
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("ok"), blank])
    message = f"field 'question' of 'blank' ({path}: line 2): empty text"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_corpus(path)


def test_a_token_in_two_questions_is_one_object(bundled_corpus):
    # one str per distinct token, not one per occurrence
    tokens = [t for q in bundled_corpus for t in q.rationale_tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens) / 5


def test_parsed_and_synthetic_vectors_are_float64_arrays(tmp_path):
    rec = _record(token_logprobs=[-0.5] * 7, token_weights=[0.25] * 7)
    parsed = parse_corpus(_write_jsonl(tmp_path / "c.jsonl", [rec])).questions[0]
    made = make_arith_corpus(3, seed=5).questions[0]
    for q, v in ((parsed, parsed.token_logprobs), (parsed, parsed.token_weights), (made, made.token_logprobs)):
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (q.n_tokens,)


def test_the_bundled_corpus_regenerates_byte_for_byte(bundled_corpus, bundled_corpus_path, tmp_path):
    made, parsed = tmp_path / "made.jsonl", tmp_path / "parsed.jsonl"
    write_corpus(make_arith_corpus(), made)
    write_corpus(bundled_corpus, parsed)
    assert made.read_bytes() == parsed.read_bytes() == bundled_corpus_path.read_bytes()


@pytest.mark.parametrize(
    "token, message",
    [
        (5, "field 'rationale_tokens' of 'tk' (line 1): expected str, got int"),
        ("", "field 'rationale_tokens' of 'tk': tokens must be non-empty strings"),
    ],
    ids=["non-string", "empty"],
)
def test_parse_bad_token_rejected(tmp_path, token, message):
    tokens = ["one", "plus", "two", token, ".", "so", "three", "."]
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("tk", rationale_tokens=tokens)])
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_corpus(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize(
    "field, message",
    [
        ("token_logprobs", "field 'token_logprobs' of 'nf': entries must be finite and <= 0"),
        ("embedding", "field 'embedding' of 'nf': non-finite values"),
    ],
)
def test_parse_non_finite_literal_rejected(tmp_path, field, message, literal):
    values = ", ".join([str(NUMBER_FIELDS[field])] * 3 + [literal] + [str(NUMBER_FIELDS[field])] * 3)
    line = json.dumps(_record("nf"))[:-1] + f', "{field}": [{values}]}}\n'
    path = tmp_path / "c.jsonl"
    path.write_text(line)
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_corpus(path)


# --- Question / Corpus validation -------------------------------------------


def _question(**overrides):
    fields = dict(
        id="q0",
        question_text="text",
        answer_text="a",
        rationale_tokens=["x", "y"],
        step_spans=[(0, 2)],
    )
    fields.update(overrides)
    return Question(**fields)


def test_validate_span_gap_rejected():
    q = _question(rationale_tokens=["x", "y", "z"], step_spans=[(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="contiguous"):
        q.validate()


def test_validate_span_coverage_rejected():
    q = _question(step_spans=[(0, 1)])
    with pytest.raises(ValidationError, match="cover"):
        q.validate()


def test_validate_empty_span_rejected():
    q = _question(step_spans=[(0, 2), (2, 2)])
    with pytest.raises(ValidationError, match="cover|empty"):
        q.validate()


def test_corpus_embedding_dim_mismatch():
    q = _question(embedding=np.zeros(3))
    corpus = Corpus(questions=[q], embedding_dim=4)
    with pytest.raises(ValidationError, match="dim"):
        corpus.validate()


def test_corpus_by_id(bundled_corpus):
    q = bundled_corpus.questions[3]
    assert bundled_corpus.by_id(q.id) is q
    with pytest.raises(KeyError):
        bundled_corpus.by_id("nope")


# --- round-trips -------------------------------------------------------------


def test_round_trip_bundled_corpus(bundled_corpus, tmp_path):
    out = tmp_path / "out.jsonl"
    write_corpus(bundled_corpus, out)
    back = parse_corpus(out)
    assert len(back) == len(bundled_corpus)
    for a, b in zip(bundled_corpus.questions, back.questions):
        assert question_to_record(a) == question_to_record(b)


def test_round_trip_preserves_optional_fields(tmp_path):
    rec = _record(
        token_logprobs=[-0.1] * 7,
        token_weights=[0.5] * 7,
        embedding=[0.6, 0.8],
    )
    path = _write_jsonl(tmp_path / "c.jsonl", [rec])
    corpus = parse_corpus(path)
    out = tmp_path / "o.jsonl"
    write_corpus(corpus, out)
    again = parse_corpus(out)
    assert question_to_record(corpus.questions[0]) == question_to_record(again.questions[0])
