"""Corpus parsing, step segmentation, and hashed question embeddings."""
from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotpace.corpus import (
    embed_question,
    parse_corpus,
    question_to_record,
    segment_steps,
    write_corpus,
)
from cotpace.cli import main
from cotpace.synth import make_arith_corpus, make_keypoint_corpus


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
    a = embed_question("add the calories", dim=64)
    b = embed_question("add the calories", dim=64)
    assert np.array_equal(a, b)
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-9


def test_embed_golden_vector(golden_dir):
    doc = json.loads((golden_dir / "golden_embedding.json").read_text())
    vec = embed_question(doc["text"], dim=doc["dim"])
    assert np.array_equal(vec, np.asarray(doc["vector"]))


def test_embed_varies_with_text():
    base = embed_question("add the calories", dim=64)
    assert not np.array_equal(base, embed_question("subtract the calories", dim=64))


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=40))
def test_embed_is_pure_and_unit_norm(text):
    a = embed_question(text, dim=16)
    assert np.array_equal(a, embed_question(text, dim=16))
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
    message = f"field 'token_logprobs' of 'bad' ({path}: line 1): length 1 != 7 tokens"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


def test_parse_positive_logprob_rejected(tmp_path):
    lp = [0.0] * 6 + [0.5]
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(token_logprobs=lp)])
    with pytest.raises(ValueError, match="token_logprobs"):
        parse_corpus(path)


def test_parse_duplicate_id_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("dup"), _record("ok"), _record("dup")])
    message = f"field 'id' of 'dup' ({path}: line 3): duplicate of line 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


@pytest.mark.parametrize("spans", [[[0.7, 2.2], [2, 7]], [[0, 4], [4.0, 7]]])
def test_parse_float_step_span_rejected(tmp_path, spans):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("fl", step_spans=spans)])
    with pytest.raises(ValueError, match=r"step_spans.*'fl'"):
        parse_corpus(path)


def test_parse_bool_step_span_rejected(tmp_path):
    rec = _record("bo", step_spans=[[0, True], [True, 7]])
    path = _write_jsonl(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ValueError, match=r"step_spans.*'bo'"):
        parse_corpus(path)


def test_parse_unknown_key_strict_vs_lenient(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(extra_field=1)])
    with pytest.raises(ValueError, match="unknown key"):
        parse_corpus(path)
    corpus = parse_corpus(path, strict=False)
    assert len(corpus) == 1


def test_parse_bad_json_reports_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_record()) + "\n{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_corpus(path)


def test_parse_non_object_line_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="object"):
        parse_corpus(path)


def test_parse_missing_required_key(tmp_path):
    rec = _record()
    del rec["answer"]
    path = _write_jsonl(tmp_path / "c.jsonl", [rec])
    with pytest.raises(ValueError, match="answer"):
        parse_corpus(path)


def test_parse_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n" + json.dumps(_record()) + "\n\n")
    assert len(parse_corpus(path)) == 1


def test_parse_weights_out_of_range(tmp_path):
    tw = [0.5] * 6 + [1.5]
    path = _write_jsonl(tmp_path / "c.jsonl", [_record(token_weights=tw)])
    with pytest.raises(ValueError, match="token_weights"):
        parse_corpus(path)


NUMBER_FIELDS = {"token_logprobs": -0.5, "token_weights": 0.5, "embedding": 0.5}


@pytest.mark.parametrize("bad", [True, "0.5"], ids=["true", "string"])
@pytest.mark.parametrize("field", list(NUMBER_FIELDS))
def test_parse_non_number_entry_rejected(tmp_path, field, bad):
    values = [NUMBER_FIELDS[field]] * 7
    values[3] = bad
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("nn", **{field: values})])
    message = f"field '{field}' of 'nn' ({path}: line 1): entries must be numbers"
    with pytest.raises(ValueError, match=re.escape(message)):
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
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


def test_a_token_in_two_questions_is_one_object(bundled_corpus):
    # one str per distinct token, not one per occurrence
    tokens = [t for q in bundled_corpus.questions for t in q.rationale_tokens]
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
        (5, "field 'rationale_tokens' of 'tk' ({path}: line 1): expected str, got int"),
        ("", "field 'rationale_tokens' of 'tk' ({path}: line 1): tokens must be non-empty strings"),
    ],
    ids=["non-string", "empty"],
)
def test_parse_bad_token_rejected(tmp_path, token, message):
    tokens = ["one", "plus", "two", token, ".", "so", "three", "."]
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("tk", rationale_tokens=tokens)])
    with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
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
    head, reason = message.split(": ", 1)  # the message without the file and line
    with pytest.raises(ValueError, match=re.escape(f"{head} ({path}: line 1): {reason}")):
        parse_corpus(path)


# --- checks spanning fields and records --------------------------------------


def test_validate_span_gap_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("sg", step_spans=[[0, 4], [5, 7]])])
    message = f"field 'step_spans' of 'sg' ({path}: line 1): span 1 not contiguous"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


def test_validate_span_coverage_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("sc", step_spans=[[0, 4]])])
    message = f"field 'step_spans' of 'sc' ({path}: line 1): must cover [0, 7)"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


def test_validate_empty_span_rejected(tmp_path):
    path = _write_jsonl(tmp_path / "c.jsonl", [_record("se", step_spans=[[0, 7], [7, 7]])])
    message = f"field 'step_spans' of 'se' ({path}: line 1): span 1 is empty"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


def test_corpus_embedding_dim_mismatch(tmp_path):
    records = [_record("a", embedding=[0.6, 0.8]), _record("b", embedding=[1.0, 0.0, 0.0])]
    path = _write_jsonl(tmp_path / "c.jsonl", records)
    message = f"field 'embedding' of 'b' ({path}: line 2): dim 3 != dim 2 of line 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_corpus(path)


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


@pytest.mark.parametrize(
    "make, n, seed, dim",
    [
        (make_arith_corpus, 1, 0, 64),
        (make_arith_corpus, 17, 5, 64),
        (make_arith_corpus, 60, 99, 8),
        (make_keypoint_corpus, 1, 7, 64),
        (make_keypoint_corpus, 25, 3, 16),
    ],
)
def test_synthetic_corpora_round_trip(tmp_path, make, n, seed, dim):
    # the generators build Question objects directly, unchecked; parsing
    # what they write is what checks them
    corpus = make(n, seed=seed, dim=dim)
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    back = parse_corpus(path)
    assert back.embedding_dim == corpus.embedding_dim == dim
    assert [question_to_record(q) for q in back.questions] == [question_to_record(q) for q in corpus.questions]


# --- every corpus refusal through the CLI -----------------------------------

# (change to the record on line 2, field, the id as the message shows it,
# reason); in a reason, n is the record's token count and m is n - 1
FIELD_REFUSALS = {
    "id-type": (lambda rec: rec.update(id=5), "id", "5", "expected str, got int"),
    "id-empty": (lambda rec: rec.update(id=""), "id", "''", "empty"),
    "id-duplicate": (lambda rec: rec.update(id="q000"), "id", "'q000'", "duplicate of line 1"),
    "question-type": (lambda rec: rec.update(question=7), "question", "'q001'", "expected str, got int"),
    "question-blank": (lambda rec: rec.update(question="  "), "question", "'q001'", "empty text"),
    "answer-type": (lambda rec: rec.update(answer=None), "answer", "'q001'", "expected str, got NoneType"),
    "tokens-type": (lambda rec: rec.update(rationale_tokens="x"), "rationale_tokens", "'q001'", "expected list, got str"),
    "tokens-empty": (lambda rec: rec.update(rationale_tokens=[]), "rationale_tokens", "'q001'", "empty"),
    "token-type": (
        lambda rec: rec["rationale_tokens"].__setitem__(1, 5), "rationale_tokens", "'q001'", "expected str, got int"
    ),
    "token-empty": (
        lambda rec: rec["rationale_tokens"].__setitem__(1, ""),
        "rationale_tokens", "'q001'", "tokens must be non-empty strings",
    ),
    "spans-type": (lambda rec: rec.update(step_spans="x"), "step_spans", "'q001'", "expected list, got str"),
    "spans-pair": (lambda rec: rec.update(step_spans=[[0]]), "step_spans", "'q001'", "spans are [start, end] pairs"),
    "spans-float": (
        lambda rec: rec.update(step_spans=[[0, float(len(rec["rationale_tokens"]))]]),
        "step_spans", "'q001'", "bounds must be integers",
    ),
    "spans-none": (lambda rec: rec.update(step_spans=[]), "step_spans", "'q001'", "empty"),
    "spans-short": (
        lambda rec: rec.update(step_spans=[[0, len(rec["rationale_tokens"]) - 1]]),
        "step_spans", "'q001'", "must cover [0, {n})",
    ),
    "span-empty": (
        lambda rec: rec.update(step_spans=[[0, 0], [0, len(rec["rationale_tokens"])]]),
        "step_spans", "'q001'", "span 0 is empty",
    ),
    "span-gap": (
        lambda rec: rec.update(step_spans=[[0, 1], [2, len(rec["rationale_tokens"])]]),
        "step_spans", "'q001'", "span 1 not contiguous",
    ),
    "logprobs-short": (
        lambda rec: rec.update(token_logprobs=rec["token_logprobs"][:-1]),
        "token_logprobs", "'q001'", "length {m} != {n} tokens",
    ),
    "logprobs-positive": (
        lambda rec: rec["token_logprobs"].__setitem__(0, 0.5),
        "token_logprobs", "'q001'", "entries must be finite and <= 0",
    ),
    "logprobs-nan": (
        lambda rec: rec["token_logprobs"].__setitem__(0, math.nan),
        "token_logprobs", "'q001'", "entries must be finite and <= 0",
    ),
    "logprobs-string": (
        lambda rec: rec["token_logprobs"].__setitem__(0, "x"), "token_logprobs", "'q001'", "entries must be numbers"
    ),
    "weights-short": (
        lambda rec: rec.update(token_weights=[0.5] * (len(rec["rationale_tokens"]) - 1)),
        "token_weights", "'q001'", "length {m} != {n} tokens",
    ),
    "weights-range": (
        lambda rec: rec.update(token_weights=[1.5] * len(rec["rationale_tokens"])),
        "token_weights", "'q001'", "entries must lie in [0, 1]",
    ),
    "embedding-type": (lambda rec: rec.update(embedding="x"), "embedding", "'q001'", "expected list, got str"),
    "embedding-bool": (
        lambda rec: rec["embedding"].__setitem__(0, True), "embedding", "'q001'", "entries must be numbers"
    ),
    "embedding-empty": (lambda rec: rec.update(embedding=[]), "embedding", "'q001'", "empty"),
    "embedding-nan": (
        lambda rec: rec["embedding"].__setitem__(0, math.nan), "embedding", "'q001'", "non-finite values"
    ),
    "embedding-dim": (
        lambda rec: rec.update(embedding=[1.0, 0.0, 0.0]), "embedding", "'q001'", "dim 3 != dim 64 of line 1"
    ),
}

# (change to line 2's text, what the refusal says after "<path>: line 2: ")
LINE_REFUSALS = {
    "not-json": (lambda line: line[:-1], "invalid JSON"),
    "not-object": (lambda line: "[1, 2]", "expected a JSON object, got list"),
    "missing-key": (
        lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "answer"}),
        "missing key(s) ['answer']",
    ),
    "unknown-key": (lambda line: line[:-1] + ', "extra": 1}', "unknown key(s) ['extra']; pass lenient mode to ignore"),
    "repeated-key": (lambda line: line[:-1] + ', "answer": "7"}', "repeated key 'answer'"),
}


def _validate_with_line_2(tmp_path, change):
    """Exit code of `cotpace validate` on make_arith_corpus(3, seed=5) with
    line 2 changed, and the corpus path."""
    path = tmp_path / "c.jsonl"
    write_corpus(make_arith_corpus(3, seed=5), path)
    lines = path.read_text().splitlines()
    lines[1] = change(lines[1])
    path.write_text("".join(line + "\n" for line in lines))
    return main(["validate", "--corpus", str(path), "--seed", "1"]), path


def _change_record(change):
    def edit(line):
        rec = json.loads(line)
        change(rec)
        return json.dumps(rec)

    return edit


@pytest.mark.parametrize("case", list(FIELD_REFUSALS))
def test_every_field_refusal_names_field_id_file_and_line(tmp_path, capsys, case):
    change, field, qid, reason = FIELD_REFUSALS[case]
    code, path = _validate_with_line_2(tmp_path, _change_record(change))
    n = make_arith_corpus(3, seed=5).questions[1].n_tokens
    assert code == 2
    message = f"error: field '{field}' of {qid} ({path}: line 2): {reason.format(n=n, m=n - 1)}\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("case", list(LINE_REFUSALS))
def test_every_line_refusal_names_file_and_line(tmp_path, capsys, case):
    change, reason = LINE_REFUSALS[case]
    code, path = _validate_with_line_2(tmp_path, change)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: line 2: {reason}")
