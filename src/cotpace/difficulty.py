"""Step difficulty scoring from teacher log-probabilities.

A step's difficulty is the significance-weighted negative log-likelihood
of its tokens: weights are softmax-normalized within the step, so each
step's weights sum to one and difficulties are always >= 0. Totals use
math.fsum so sums of parts match wholes to machine precision; they are
computed from the step difficulties whenever needed, never stored.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .corpus import Corpus, Question, expect_type, float_array, read_jsonl


class DifficultyError(ValueError):
    """Raised when difficulty inputs are missing or malformed."""


def normalize_step_weights(weights: np.ndarray, span: tuple[int, int]) -> np.ndarray:
    """Softmax of the raw weights inside one step span (max-subtracted)."""
    s, e = span
    w = np.asarray(weights, dtype=np.float64)[s:e]
    if w.size == 0:
        raise DifficultyError(f"empty span {span}")
    z = np.exp(w - w.max())
    return z / z.sum()


def step_difficulty(logprobs: np.ndarray, normalized_weights: np.ndarray, span: tuple[int, int]) -> float:
    """Weighted NLL of one step: -sum(w_hat * logprob) over the span."""
    s, e = span
    lp = np.asarray(logprobs, dtype=np.float64)[s:e]
    w = np.asarray(normalized_weights, dtype=np.float64)
    if lp.shape != w.shape:
        raise DifficultyError(f"span {span}: {lp.size} logprobs vs {w.size} weights")
    if np.any(lp > 0.0) or not np.all(np.isfinite(lp)):
        raise DifficultyError(f"span {span}: logprobs must be finite and <= 0")
    return -math.fsum(w * lp)


@dataclasses.dataclass
class DifficultyTable:
    steps: dict[str, np.ndarray]  # id -> per-step difficulty vector

    @property
    def corpus_total(self) -> float:
        """fsum of each question's fsum (exactly rounded, so in any order)."""
        return math.fsum(math.fsum(d) for d in self.steps.values())


def _question_logprobs(q: Question, logprobs: dict[str, np.ndarray] | None) -> np.ndarray:
    if logprobs is not None and q.id in logprobs:
        return np.asarray(logprobs[q.id], dtype=np.float64)
    if q.token_logprobs is not None:
        return np.asarray(q.token_logprobs, dtype=np.float64)
    raise DifficultyError(
        f"question {q.id!r} has no token_logprobs; supply them in the corpus, pass a logprobs"
        " map, or generate synthetic ones (synthetic_logprobs)"
    )


def compute_table(
    corpus: Corpus,
    weights: dict[str, np.ndarray] | None = None,
    logprobs: dict[str, np.ndarray] | None = None,
) -> DifficultyTable:
    """Score every step of every question.

    Raw significance weights come from the weights map, else a constant
    (softmax of a constant is uniform, so unweighted scoring falls out as
    the default).
    """
    steps: dict[str, np.ndarray] = {}
    for q in corpus.questions:
        lp = _question_logprobs(q, logprobs)
        if lp.size != q.n_tokens:
            raise DifficultyError(f"question {q.id!r}: {lp.size} logprobs vs {q.n_tokens} tokens")
        if weights is not None and q.id in weights:
            w = np.asarray(weights[q.id], dtype=np.float64)
        else:
            w = np.zeros(q.n_tokens, dtype=np.float64)
        if w.size != q.n_tokens:
            raise DifficultyError(f"question {q.id!r}: {w.size} weights vs {q.n_tokens} tokens")
        d = np.empty(q.n_steps, dtype=np.float64)
        for k, span in enumerate(q.step_spans):
            d[k] = step_difficulty(lp, normalize_step_weights(w, span), span)
        steps[q.id] = d
    return DifficultyTable(steps=steps)


def question_generation_difficulty(table: DifficultyTable, qid: str, input_steps: int) -> float:
    """Difficulty the student must generate when the first input_steps
    steps of the rationale are given as input: sum of the tail steps."""
    if qid not in table.steps:
        raise KeyError(qid)
    d = table.steps[qid]
    c = int(input_steps)
    if c < 0 or c > d.size:
        raise DifficultyError(f"question {qid!r}: input_steps {c} outside [0, {d.size}]")
    return math.fsum(d[c:])


def synthetic_logprobs(corpus: Corpus, seed: int) -> dict[str, np.ndarray]:
    """Seeded per-token log-probabilities, ln(Beta(2,2)); always < 0."""
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}
    for q in corpus.questions:
        p = np.clip(rng.beta(2.0, 2.0, size=q.n_tokens), 1e-12, 1.0 - 1e-12)
        out[q.id] = np.log(p)
    return out


def write_table(table: DifficultyTable, path) -> None:
    """JSONL: one {"id", "step_difficulties"} row per question."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, d in table.steps.items():
            fh.write(json.dumps({"id": qid, "step_difficulties": [float(v) for v in d]}) + "\n")


def read_table(path, corpus: Corpus) -> DifficultyTable:
    """difficulty.jsonl for corpus: one row per corpus question, each id once,
    one step difficulty per step, and every one finite and >= 0."""
    steps: dict[str, np.ndarray] = {}
    for lineno, rec in read_jsonl(path, ("id", "step_difficulties")):
        where = f"{path}: line {lineno}"
        qid = expect_type(rec["id"], str, "id", where)
        if qid in steps:
            raise DifficultyError(f"{path}: step difficulties for {qid!r} appear twice")
        d = float_array(rec["step_difficulties"], "step_difficulties", f"{qid!r} ({where})")
        bad = d[~np.isfinite(d)]
        if bad.size:
            raise DifficultyError(f"{path}: step difficulties for {qid!r}: {bad[0]} is not finite")
        bad = d[d < 0.0]
        if bad.size:
            raise DifficultyError(f"{path}: step difficulties for {qid!r}: {bad[0]} is below 0")
        steps[qid] = d
    corpus.check_ids(path, steps, "step difficulties")
    for q in corpus.questions:
        n = steps[q.id].size
        if n != q.n_steps:
            raise DifficultyError(f"{path}: {n} step difficulties for {q.id!r}, which has {q.n_steps} steps")
    return DifficultyTable(steps=steps)
