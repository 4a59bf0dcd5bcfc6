"""Corpus data model: JSONL records, step segmentation, hashed embeddings.

One record per line:

    {"id": str, "question": str, "answer": str,
     "rationale_tokens": [str, ...],
     "token_logprobs": [float <= 0, ...]?,      # teacher log P per token
     "token_weights": [float in [0,1], ...]?,   # learned significance
     "step_spans": [[start, end], ...]?,        # derived when absent
     "embedding": [float, ...]?}                # derived when absent

Strict parsing rejects unknown keys; lenient mode ignores them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import sys

import numpy as np


class CorpusError(ValueError):
    """Base class for corpus problems."""


class ParseError(CorpusError):
    """Malformed line: bad JSON, wrong container type, unknown key."""


class ValidationError(CorpusError):
    """Well-formed record violating an invariant; names field and id."""


REQUIRED_KEYS = ("id", "question", "answer", "rationale_tokens")
OPTIONAL_KEYS = ("token_logprobs", "token_weights", "step_spans", "embedding")


def segment_steps(rationale_tokens: list[str]) -> list[tuple[int, int]]:
    """Split a token list into contiguous step spans [start, end).

    Tokens are conceptually joined with single spaces. A token closes a
    step iff it contains a period that is NOT flanked by digits on both
    sides in that joined text (so "3.5" stays inside a step while "ends."
    or a lone "." terminates one). Any trailing tokens close the last step.
    """
    if not rationale_tokens:
        raise ValidationError("rationale_tokens is empty; need at least one token")
    spans: list[tuple[int, int]] = []
    start = 0
    for i, tok in enumerate(rationale_tokens):
        boundary = False
        for j, ch in enumerate(tok):
            if ch != ".":
                continue
            prev_ch = tok[j - 1] if j > 0 else " "  # space-joined neighbours
            next_ch = tok[j + 1] if j + 1 < len(tok) else " "
            if not (prev_ch.isdigit() and next_ch.isdigit()):
                boundary = True
                break
        if boundary:
            spans.append((start, i + 1))
            start = i + 1
    if start < len(rationale_tokens):
        spans.append((start, len(rationale_tokens)))
    return spans


def embed_question(text: str, dim: int = 64, seed: int = 0) -> np.ndarray:
    """Deterministic hashed bag-of-words embedding, L2-normalized.

    Each lowercased whitespace word hashes (blake2b keyed by the seed) to
    a bucket and a sign; the signed counts are averaged and normalized.
    """
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    words = text.lower().split()
    if not words:
        raise ValidationError("cannot embed empty question text")
    key = struct.pack("<q", seed)
    vec = np.zeros(dim, dtype=np.float64)
    for word in words:
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % dim] += sign
    vec /= len(words)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


@dataclasses.dataclass
class Question:
    id: str
    question_text: str
    answer_text: str
    rationale_tokens: list[str]
    step_spans: list[tuple[int, int]]
    token_logprobs: np.ndarray | None = None  # float64, one per token
    token_weights: np.ndarray | None = None  # float64, one per token
    embedding: np.ndarray | None = None

    @property
    def n_tokens(self) -> int:
        return len(self.rationale_tokens)

    @property
    def n_steps(self) -> int:
        return len(self.step_spans)

    def validate(self) -> None:
        qid = self.id
        if not isinstance(qid, str) or not qid:
            raise ValidationError(f"field 'id': must be a non-empty string, got {qid!r}")
        if not self.question_text.strip():
            raise ValidationError(f"field 'question' of {qid!r}: empty text")
        if not self.rationale_tokens:
            raise ValidationError(f"field 'rationale_tokens' of {qid!r}: empty")
        if not set(map(type, self.rationale_tokens)) <= {str} or "" in self.rationale_tokens:
            raise ValidationError(f"field 'rationale_tokens' of {qid!r}: tokens must be non-empty strings")
        n = self.n_tokens
        spans = self.step_spans
        if not spans:
            raise ValidationError(f"field 'step_spans' of {qid!r}: empty")
        if spans[0][0] != 0 or spans[-1][1] != n:
            raise ValidationError(f"field 'step_spans' of {qid!r}: must cover [0, {n})")
        for k, (s, e) in enumerate(spans):
            if e <= s:
                raise ValidationError(f"field 'step_spans' of {qid!r}: span {k} is empty")
            if k > 0 and s != spans[k - 1][1]:
                raise ValidationError(f"field 'step_spans' of {qid!r}: span {k} not contiguous")
        if self.token_logprobs is not None:
            lp = np.asarray(self.token_logprobs, dtype=np.float64)
            if len(lp) != n:
                raise ValidationError(
                    f"field 'token_logprobs' of {qid!r}: length {len(lp)} != {n} tokens"
                )
            if not ((lp > -np.inf) & (lp <= 0.0)).all():  # NaN fails both comparisons
                raise ValidationError(
                    f"field 'token_logprobs' of {qid!r}: entries must be finite and <= 0"
                )
        if self.token_weights is not None:
            tw = np.asarray(self.token_weights, dtype=np.float64)
            if len(tw) != n:
                raise ValidationError(
                    f"field 'token_weights' of {qid!r}: length {len(tw)} != {n} tokens"
                )
            if not ((tw >= 0.0) & (tw <= 1.0)).all():
                raise ValidationError(
                    f"field 'token_weights' of {qid!r}: entries must lie in [0, 1]"
                )
        if self.embedding is not None and not np.isfinite(self.embedding).all():
            raise ValidationError(f"field 'embedding' of {qid!r}: non-finite values")


@dataclasses.dataclass
class Corpus:
    questions: list[Question]
    embedding_dim: int

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self):
        return iter(self.questions)

    def by_id(self, qid: str) -> Question:
        for q in self.questions:
            if q.id == qid:
                return q
        raise KeyError(qid)

    def validate(self) -> None:
        seen: set[str] = set()
        for q in self.questions:
            q.validate()
            if q.id in seen:
                raise ValidationError(f"field 'id': duplicate id {q.id!r}")
            seen.add(q.id)
            if q.embedding is not None and q.embedding.shape != (self.embedding_dim,):
                raise ValidationError(
                    f"field 'embedding' of {q.id!r}: dim {q.embedding.shape[0]}"
                    f" != corpus dim {self.embedding_dim}"
                )

    def check_ids(self, where, found, what: str) -> None:
        """found (keyed by question id, read from the file named in where) must
        hold exactly the corpus ids: a file written for another corpus, or cut
        short, would otherwise be used without a word. Names the first
        missing corpus id, else the first extra one."""
        missing = next((q.id for q in self.questions if q.id not in found), None)
        if missing is not None:
            raise ValidationError(f"{where}: no {what} for corpus question {missing!r}")
        if len(found) != len(self.questions):
            known = {q.id for q in self.questions}
            extra = next(qid for qid in found if qid not in known)
            raise ValidationError(f"{where}: {what} for {extra!r}, which is not a corpus question")


def expect_type(value, types, field: str, where: str):
    if not isinstance(value, types):
        names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ValidationError(f"field {field!r} of {where}: expected {names}, got {type(value).__name__}")
    return value


def float_array(value, field: str, where: str) -> np.ndarray:
    """The JSON list of numbers as a float64 array. type() keeps bool out,
    which isinstance(v, int) would let in."""
    if not set(map(type, expect_type(value, list, field, where))) <= {int, float}:
        raise ValidationError(f"field {field!r} of {where}: entries must be numbers")
    return np.asarray(value, dtype=np.float64)


def json_object(value, keys, where: str) -> dict:
    """value, which must be a JSON object holding every key in keys."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected a JSON object, got {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValidationError(f"{where}: missing key(s) {missing}")
    return value


def _decode(text: str, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON: {exc}") from None


def read_jsonl(path, keys=()):
    """(line number, object) for each non-blank line of a JSONL file; a line
    that is not JSON, not an object or without one of keys raises an error
    naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}: line {lineno}"
                yield lineno, json_object(_decode(line, where), keys, where)


def read_json(path, keys=()) -> dict:
    """A JSON document that must be an object holding every key in keys;
    errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json_object(_decode(fh.read(), str(path)), keys, str(path))


def _optional_array(rec: dict, field: str, where: str) -> np.ndarray | None:
    return float_array(rec[field], field, where) if field in rec else None


def _record_to_question(rec: dict, path, lineno: int) -> Question:
    where = f"line {lineno}"
    qid = expect_type(rec["id"], str, "id", where)
    where = f"{qid!r} ({where})"
    tokens = expect_type(rec["rationale_tokens"], list, "rationale_tokens", where)
    if not set(map(type, tokens)) <= {str}:
        for t in tokens:  # name the type of the first entry that is not a string
            expect_type(t, str, "rationale_tokens", where)
    # a corpus repeats a small vocabulary; one string per distinct token keeps
    # the parsed corpus at vocabulary size, not at one object per occurrence
    tokens = list(map(sys.intern, tokens))
    if "step_spans" in rec:
        raw = expect_type(rec["step_spans"], list, "step_spans", where)
        spans = []
        for item in raw:
            expect_type(item, list, "step_spans", where)
            if len(item) != 2:
                raise ValidationError(f"field 'step_spans' of {where}: spans are [start, end] pairs")
            start, end = item
            if type(start) is not int or type(end) is not int:  # rejects bool too
                raise ValidationError(f"field 'step_spans' of {where}: bounds must be integers")
            spans.append((start, end))
    else:
        spans = segment_steps(tokens)
    embedding = _optional_array(rec, "embedding", where)
    text = expect_type(rec["question"], str, "question", where)
    if not text.strip():  # Question.validate refuses it too, but without the file and line
        raise ValidationError(f"field 'question' of {qid!r} ({path}: line {lineno}): empty text")
    return Question(
        id=qid,
        question_text=text,
        answer_text=expect_type(rec["answer"], str, "answer", where),
        rationale_tokens=tokens,
        step_spans=spans,
        token_logprobs=_optional_array(rec, "token_logprobs", where),
        token_weights=_optional_array(rec, "token_weights", where),
        embedding=embedding,
    )


def parse_corpus(path, *, embedding_dim: int = 64, embed_seed: int = 0, strict: bool = True) -> Corpus:
    """Read a JSONL corpus, fill derived fields, validate everything.

    Missing step_spans are derived by segment_steps; missing embeddings by
    embed_question (dim inferred from any supplied embedding, else
    embedding_dim). Blank lines are skipped. Raises ParseError naming the
    file and line for malformed lines, ValidationError for invariant breaks
    and for a file without questions.
    """
    questions: list[Question] = []
    for lineno, rec in read_jsonl(path, REQUIRED_KEYS):
        unknown = set(rec) - set(REQUIRED_KEYS) - set(OPTIONAL_KEYS)
        if unknown and strict:
            raise ParseError(
                f"{path}: line {lineno}: unknown key(s) {sorted(unknown)}; pass lenient mode to ignore"
            )
        for key in unknown:
            del rec[key]
        questions.append(_record_to_question(rec, path, lineno))
    if not questions:
        raise ValidationError(f"{path}: no questions")
    dim = embedding_dim
    for q in questions:
        if q.embedding is not None:
            dim = int(q.embedding.shape[0])
            break
    for q in questions:
        if q.embedding is None:
            q.embedding = embed_question(q.question_text, dim=dim, seed=embed_seed)
    corpus = Corpus(questions=questions, embedding_dim=dim)
    corpus.validate()
    return corpus


def question_to_record(q: Question) -> dict:
    rec = {
        "id": q.id,
        "question": q.question_text,
        "answer": q.answer_text,
        "rationale_tokens": list(q.rationale_tokens),
    }
    if q.token_logprobs is not None:
        rec["token_logprobs"] = np.asarray(q.token_logprobs, dtype=np.float64).tolist()
    if q.token_weights is not None:
        rec["token_weights"] = np.asarray(q.token_weights, dtype=np.float64).tolist()
    rec["step_spans"] = [[s, e] for s, e in q.step_spans]
    if q.embedding is not None:
        rec["embedding"] = [float(v) for v in q.embedding]
    return rec


def write_corpus(corpus: Corpus, path) -> None:
    """Serialize to JSONL with a fixed key order (round-trips exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in corpus.questions:
            fh.write(json.dumps(question_to_record(q)) + "\n")
