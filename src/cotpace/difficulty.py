"""Step difficulty scoring from teacher log-probabilities.

A step's difficulty is the significance-weighted negative log-likelihood
of its tokens: weights are softmax-normalized within the step, so each
step's weights sum to one and difficulties are always >= 0. Totals use
math.fsum so sums of parts match wholes to machine precision; they are
computed from the step difficulties whenever needed, never stored.
"""
from __future__ import annotations

import math

import numpy as np

from .corpus import Corpus, read_vectors, write_vectors


def normalize_step_weights(weights: np.ndarray, span: tuple[int, int]) -> np.ndarray:
    """Softmax of the raw weights inside one step span (max-subtracted)."""
    w = weights[slice(*span)]
    z = np.exp(w - w.max())
    return z / z.sum()


def step_difficulty(logprobs: np.ndarray, normalized_weights: np.ndarray, span: tuple[int, int]) -> float:
    """Weighted NLL of one step: -sum(w_hat * logprob) over the span."""
    return -math.fsum(normalized_weights * logprobs[slice(*span)])


def corpus_total(table: dict[str, np.ndarray]) -> float:
    """fsum of each question's fsum of the {id: step difficulties} map
    (exactly rounded, so in any order). OverflowError names the question at
    which the running total leaves the float range."""
    try:
        return math.fsum(math.fsum(d) for d in table.values())
    except OverflowError:
        totals = []  # found again one question at a time, only on failure
        for qid, d in table.items():
            try:
                totals.append(math.fsum(d))
                math.fsum(totals)
            except OverflowError:
                raise OverflowError(f"total difficulty overflows a float at question {qid!r}") from None


def corpus_logprobs(corpus: Corpus) -> dict[str, np.ndarray]:
    """Every question's token_logprobs from the corpus; refuses a question
    without them."""
    for q in corpus.questions:
        if q.token_logprobs is None:
            raise ValueError(
                f"question {q.id!r} has no token_logprobs; supply them in the corpus, or generate"
                " synthetic ones (synthetic_logprobs)"
            )
    return {q.id: q.token_logprobs for q in corpus.questions}


def compute_table(corpus: Corpus, weights: dict[str, np.ndarray], logprobs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The {id: step difficulties} map: every step of every question scored
    from its raw significance weights weights[id] and its log-probabilities
    logprobs[id]; each map holds every corpus question."""
    steps: dict[str, np.ndarray] = {}
    for q in corpus.questions:
        lp, w = logprobs[q.id], weights[q.id]
        d = np.empty(q.n_steps, dtype=np.float64)
        for k, span in enumerate(q.step_spans):
            d[k] = step_difficulty(lp, normalize_step_weights(w, span), span)
        steps[q.id] = d
    return steps


def question_generation_difficulty(table: dict[str, np.ndarray], qid: str, input_steps: int) -> float:
    """Difficulty the student must generate when the first input_steps
    steps of the rationale are given as input: sum of the tail steps of
    question qid in the {id: step difficulties} map."""
    return math.fsum(table[qid][input_steps:])


def beta_logprobs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n log-probabilities ln(Beta(2,2)), clipped away from 0 and 1; always < 0."""
    return np.log(np.clip(rng.beta(2.0, 2.0, size=n), 1e-12, 1.0 - 1e-12))


def synthetic_logprobs(corpus: Corpus, seed: int) -> dict[str, np.ndarray]:
    """Seeded per-token log-probabilities, one beta_logprobs draw per question."""
    rng = np.random.default_rng(seed)
    return {q.id: beta_logprobs(rng, q.n_tokens) for q in corpus.questions}


def write_table(table: dict[str, np.ndarray], path) -> None:
    """The {id: step difficulties} map as JSONL: one {"id",
    "step_difficulties"} row per question."""
    write_vectors(table, "step_difficulties", path)


def read_table(path, corpus: Corpus) -> dict[str, np.ndarray]:
    """The {id: step difficulties} map in difficulty.jsonl for corpus: one
    row per corpus question, each id once, one step difficulty per step, and
    every one finite and >= 0; their total must be finite too (OverflowError
    otherwise)."""
    table = read_vectors(path, corpus, "step_difficulties", "step difficulties", "steps", math.inf, "is below 0")
    try:
        corpus_total(table)
    except OverflowError as exc:
        raise OverflowError(f"{path}: {exc}") from None
    return table
