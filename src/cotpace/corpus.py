"""Corpus data model: JSONL records, step segmentation, hashed embeddings.

One record per line:

    {"id": str, "question": str, "answer": str,
     "rationale_tokens": [str, ...],
     "token_logprobs": [float <= 0, ...]?,      # teacher log P per token
     "token_weights": [float in [0,1], ...]?,   # learned significance
     "step_spans": [[start, end], ...]?,        # derived when absent
     "embedding": [float, ...]?}                # derived when absent

Strict parsing rejects unknown keys; lenient mode ignores them.

Each check is made once, as the file is read: read_jsonl refuses a line that
is not UTF-8, not a JSON object with the required keys, or that repeats a key
in any object, _record_to_question checks each field of a record, and
parse_corpus unknown keys, repeated ids and embedding sizes. Each refusal is a
ValueError reading "field '<f>' of '<id>' (<path>: line <n>): <reason>", or
"<path>: line <n>: <reason>" for a whole line. Code-built Questions are unchecked.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import struct
import sys
from pathlib import Path

import numpy as np


REQUIRED_KEYS = ("id", "question", "answer", "rationale_tokens")
OPTIONAL_KEYS = ("token_logprobs", "token_weights", "step_spans", "embedding")


def segment_steps(rationale_tokens: list[str]) -> list[tuple[int, int]]:
    """Split a token list into contiguous step spans [start, end).

    Tokens are conceptually joined with single spaces. A token closes a
    step iff it contains a period that is NOT flanked by digits on both
    sides in that joined text (so "3.5" stays inside a step while "ends."
    or a lone "." terminates one). Any trailing tokens close the last step.
    """
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


# blake2b key of embed_question's word hashes, fixed so every run embeds alike
_EMBED_KEY = struct.pack("<q", 0)


def embed_question(text: str, dim: int = 64) -> np.ndarray:
    """Deterministic hashed bag-of-words embedding, L2-normalized.

    Each lowercased whitespace word hashes (blake2b under a fixed key) to a
    bucket and a sign; the signed counts are averaged and normalized.
    """
    words = text.lower().split()
    vec = np.zeros(dim, dtype=np.float64)
    for word in words:
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8, key=_EMBED_KEY).digest()
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


@dataclasses.dataclass
class Corpus:
    questions: list[Question]
    embedding_dim: int

    def __len__(self) -> int:
        return len(self.questions)

    def check_ids(self, where, found, what: str) -> None:
        """found (keyed by question id, read from the file named in where) must
        hold exactly the corpus ids: a file written for another corpus, or cut
        short, would otherwise be used without a word. Names the first
        missing corpus id, else the first extra one."""
        missing = next((q.id for q in self.questions if q.id not in found), None)
        if missing is not None:
            raise ValueError(f"{where}: no {what} for corpus question {missing!r}")
        if len(found) != len(self.questions):
            known = {q.id for q in self.questions}
            extra = next(qid for qid in found if qid not in known)
            raise ValueError(f"{where}: {what} for {extra!r}, which is not a corpus question")


def check_ints(where, found: dict, what: str, hi: dict[str, int], *, closed: bool) -> None:
    """Each value of found (keyed by question id, read from the file named in
    where) must be a JSON integer in [0, hi[id]], or in [0, hi[id]) unless
    closed. type() keeps out a bool and a float, which int() would take:
    true for 1, a hand-edited 0.9 for 0."""
    for qid, v in found.items():
        top = hi[qid]
        if type(v) is not int or not (0 <= v <= top if closed else 0 <= v < top):
            raise ValueError(
                f"{where}: {what} {v!r} of {qid!r} is not an integer in [0, {top}{']' if closed else ')'}"
            )


def token_numbering(corpus: Corpus, reserved: str) -> dict[str, int]:
    """Row 0 for the reserved token, then one row per distinct rationale
    token in order of first appearance; a rationale token spelled like the
    reserved one shares its row."""
    tokens = itertools.chain([reserved], *(q.rationale_tokens for q in corpus.questions))
    return {tok: row for row, tok in enumerate(dict.fromkeys(tokens))}


def expect_type(value, types, field: str, where: str):
    if not isinstance(value, types):
        names = types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)
        raise ValueError(f"field {field!r} of {where}: expected {names}, got {type(value).__name__}")
    return value


def float_array(value, field: str, where: str) -> np.ndarray:
    """The JSON list of numbers as a float64 array. type() keeps bool out,
    which isinstance(v, int) would let in; an integer past the float range
    is refused here, where its field and line are known."""
    if not set(map(type, expect_type(value, list, field, where))) <= {int, float}:
        raise ValueError(f"field {field!r} of {where}: entries must be numbers")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"field {field!r} of {where}: an integer entry is too large for a float") from None


def json_object(value, keys, where: str) -> dict:
    """value, which must be a JSON object holding every key in keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(value).__name__}")
    missing = [k for k in keys if k not in value]
    if missing:
        raise ValueError(f"{where}: missing key(s) {missing}")
    return value


def _unique_keys(pairs: list) -> dict:
    """The JSON object of pairs. A repeated key is refused: json.loads would
    keep its last value without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


# One decoder for every read: json.loads with a hook builds a new one per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
# One encoder for every artifact: json.dumps(value, separators=(",", ":")),
# which would also build a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode(value) -> str:
    """value as compact JSON, with no space after a "," or a ":"."""
    return _ENCODER.encode(value)


def _decode(text: str, where: str):
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # a repeated key, an integer too long, nesting too deep
        raise ValueError(f"{where}: {exc}") from None


def _not_utf8(path) -> ValueError:
    """The refusal of a file that is not UTF-8, naming its first line that is not."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):  # as text mode splits
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ValueError(f"{path}: line {lineno}: not UTF-8: {exc}")


def read_text(path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is refused naming its line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_jsonl(path, keys=()):
    """(line number, object) for each non-blank line of a JSONL file; a line
    that is not UTF-8, not JSON, not an object or without one of keys raises
    an error naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    where = f"{path}: line {lineno}"
                    yield lineno, json_object(_decode(line, where), keys, where)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def read_json(path, keys=()) -> dict:
    """A JSON document that must be an object holding every key in keys;
    errors name the file."""
    return json_object(_decode(read_text(path), str(path)), keys, str(path))


def write_vectors(vectors: dict[str, np.ndarray], field: str, path) -> None:
    """JSONL: one {"id", field: [numbers]} row per question."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, v in vectors.items():
            fh.write(encode({"id": qid, field: v.tolist()}) + "\n")


def read_vectors(
    path, corpus: Corpus, field: str, what: str, unit: str, hi: float, outside: str
) -> dict[str, np.ndarray]:
    """A per-question vector file for corpus, written by write_vectors: {id:
    vector}, one row per corpus question, each id once, one number per token
    or step of the question (unit "tokens" or "steps"), and every number
    finite and in [0, hi]. Refusals name the file and the question, call the
    vectors what, and say '<number> <outside>' of a number outside [0, hi]."""
    vectors: dict[str, np.ndarray] = {}
    for lineno, rec in read_jsonl(path, ("id", field)):
        where = f"{path}: line {lineno}"
        qid = expect_type(rec["id"], str, "id", where)
        if qid in vectors:
            raise ValueError(f"{path}: {what} for {qid!r} appear twice")
        v = float_array(rec[field], field, f"{qid!r} ({where})")
        bad = v[~np.isfinite(v)]
        if bad.size:
            raise ValueError(f"{path}: {what} for {qid!r}: {bad[0]} is not finite")
        bad = v[(v < 0.0) | (v > hi)]
        if bad.size:
            raise ValueError(f"{path}: {what} for {qid!r}: {bad[0]} {outside}")
        vectors[qid] = v
    corpus.check_ids(path, vectors, what)
    for q in corpus.questions:
        n, size = vectors[q.id].size, getattr(q, f"n_{unit}")
        if n != size:
            raise ValueError(f"{path}: {n} {what} for {q.id!r}, which has {size} {unit}")
    return vectors


def _per_token(rec: dict, field: str, where: str, n: int, lo: float, hi: float, rule: str) -> np.ndarray | None:
    """rec[field], when present: one finite number in [lo, hi] per token."""
    if field not in rec:
        return None
    values = float_array(rec[field], field, where)
    if len(values) != n:
        raise ValueError(f"field {field!r} of {where}: length {len(values)} != {n} tokens")
    if not (np.isfinite(values) & (values >= lo) & (values <= hi)).all():
        raise ValueError(f"field {field!r} of {where}: entries must {rule}")
    return values


def _spans(raw, n: int, where: str) -> list[tuple[int, int]]:
    """Given step_spans: [start, end] integer pairs, each non-empty, each
    starting where the last ended, together covering [0, n)."""
    spans = []
    for item in expect_type(raw, list, "step_spans", where):
        expect_type(item, list, "step_spans", where)
        if len(item) != 2:
            raise ValueError(f"field 'step_spans' of {where}: spans are [start, end] pairs")
        start, end = item
        if type(start) is not int or type(end) is not int:  # rejects bool too
            raise ValueError(f"field 'step_spans' of {where}: bounds must be integers")
        spans.append((start, end))
    if not spans:
        raise ValueError(f"field 'step_spans' of {where}: empty")
    if spans[0][0] != 0 or spans[-1][1] != n:
        raise ValueError(f"field 'step_spans' of {where}: must cover [0, {n})")
    for k, (s, e) in enumerate(spans):
        if e <= s:
            raise ValueError(f"field 'step_spans' of {where}: span {k} is empty")
        if k > 0 and s != spans[k - 1][1]:
            raise ValueError(f"field 'step_spans' of {where}: span {k} not contiguous")
    return spans


def _record_to_question(rec: dict, path, lineno: int) -> Question:
    """The question on line lineno; every check on one record is made here,
    and each refusal names the field, the id, the file and the line."""
    qid = rec["id"]
    where = f"{qid!r} ({path}: line {lineno})"
    if not expect_type(qid, str, "id", where):
        raise ValueError(f"field 'id' of {where}: empty")
    text = expect_type(rec["question"], str, "question", where)
    if not text.strip():
        raise ValueError(f"field 'question' of {where}: empty text")
    tokens = expect_type(rec["rationale_tokens"], list, "rationale_tokens", where)
    if not tokens:
        raise ValueError(f"field 'rationale_tokens' of {where}: empty")
    if not set(map(type, tokens)) <= {str}:
        for t in tokens:  # name the type of the first entry that is not a string
            expect_type(t, str, "rationale_tokens", where)
    if "" in tokens:
        raise ValueError(f"field 'rationale_tokens' of {where}: tokens must be non-empty strings")
    # a corpus repeats a small vocabulary; one string per distinct token keeps
    # the parsed corpus at vocabulary size, not at one object per occurrence
    tokens = list(map(sys.intern, tokens))
    n = len(tokens)
    embedding = None
    if "embedding" in rec:
        embedding = float_array(rec["embedding"], "embedding", where)
        if embedding.size == 0:  # the trainer divides by its dim
            raise ValueError(f"field 'embedding' of {where}: empty")
        if not np.isfinite(embedding).all():
            raise ValueError(f"field 'embedding' of {where}: non-finite values")
    return Question(
        id=qid,
        question_text=text,
        answer_text=expect_type(rec["answer"], str, "answer", where),
        rationale_tokens=tokens,
        step_spans=_spans(rec["step_spans"], n, where) if "step_spans" in rec else segment_steps(tokens),
        token_logprobs=_per_token(rec, "token_logprobs", where, n, -np.inf, 0.0, "be finite and <= 0"),
        token_weights=_per_token(rec, "token_weights", where, n, 0.0, 1.0, "lie in [0, 1]"),
        embedding=embedding,
    )


def parse_corpus(path, *, strict: bool = True) -> Corpus:
    """Read a JSONL corpus and fill derived fields, checking each record once.

    Missing step_spans are derived by segment_steps; missing embeddings by
    embed_question (dim taken from the first supplied embedding, else 64).
    Blank lines are skipped. Raises ValueError, naming the file and the line,
    for a malformed line (a repeated key among them) or a broken invariant
    (a repeated id names both lines), and for a file without questions.
    """
    questions: list[Question] = []
    lines: dict[str, int] = {}  # id -> its line
    dim = dim_line = None  # the first supplied embedding's size, and its line
    for lineno, rec in read_jsonl(path, REQUIRED_KEYS):
        unknown = set(rec) - set(REQUIRED_KEYS) - set(OPTIONAL_KEYS)
        if unknown and strict:
            raise ValueError(f"{path}: line {lineno}: unknown key(s) {sorted(unknown)}; pass lenient mode to ignore")
        for key in unknown:
            del rec[key]
        q = _record_to_question(rec, path, lineno)
        where = f"{q.id!r} ({path}: line {lineno})"
        if q.id in lines:
            raise ValueError(f"field 'id' of {where}: duplicate of line {lines[q.id]}")
        lines[q.id] = lineno
        if q.embedding is not None:
            if dim is None:
                dim, dim_line = q.embedding.size, lineno
            elif q.embedding.size != dim:
                raise ValueError(
                    f"field 'embedding' of {where}: dim {q.embedding.size} != dim {dim} of line {dim_line}"
                )
        questions.append(q)
    if not questions:
        raise ValueError(f"{path}: no questions")
    dim = 64 if dim is None else dim
    for q in questions:
        if q.embedding is None:
            q.embedding = embed_question(q.question_text, dim=dim)
    return Corpus(questions=questions, embedding_dim=dim)


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
