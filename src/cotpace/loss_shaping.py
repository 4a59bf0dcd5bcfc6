"""Stagewise loss ranges and a tabular student simulator.

A LossSpec splits one question's rationale at a stage's input-step count:
tokens before the cut are fed as input (no loss), tokens from the cut on
are generated and scored with significance-weighted NLL. The simulator
trains a unigram+bigram softmax student under a schedule, full batch, so
curriculum effects are observable end to end without a real LM. Both work
from the input-step counts alone: a spec holds token ranges, and the
student scores a token when its step index is at least its question's
count, so neither copies a weight.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np

from .corpus import Corpus, Question

BOS_ID = 0
BOS_TOKEN = "<bos>"


class LossShapingError(ValueError):
    pass


@dataclasses.dataclass
class LossSpec:
    question_id: str
    stage: int
    input_end: int  # first generated token index; input range is [0, input_end)
    gen_end: int  # exclusive; generation range is [input_end, gen_end)

    def validate(self) -> None:
        if not (0 <= self.input_end <= self.gen_end):
            raise LossShapingError(
                f"spec for {self.question_id!r}: ranges [0,{self.input_end}) /"
                f" [{self.input_end},{self.gen_end}) are inconsistent"
            )


def shape_stage_loss(question: Question, input_steps: int, stage: int = 0) -> LossSpec:
    """Build the loss ranges for one question at one stage."""
    c = int(input_steps)
    n_steps = question.n_steps
    n = question.n_tokens
    if c < 0 or c > n_steps:
        raise LossShapingError(
            f"question {question.id!r}: input_steps {c} outside [0, {n_steps}]"
        )
    input_end = n if c == n_steps else question.step_spans[c][0]
    spec = LossSpec(question_id=question.id, stage=stage, input_end=input_end, gen_end=n)
    spec.validate()
    return spec


def evaluate_loss(spec: LossSpec, logprobs: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted NLL over the generation range. logprobs and weights index
    the whole rationale (length gen_end); logprobs inside the range must be
    <= 0, and weights (uniform when None) must lie in [0, 1]."""
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.shape != (spec.gen_end,):
        raise LossShapingError(
            f"spec for {spec.question_id!r}: {lp.size} logprobs do not cover"
            f" [0, {spec.gen_end})"
        )
    window = lp[spec.input_end : spec.gen_end]
    if window.size and (not np.all(np.isfinite(window)) or window.max() > 0.0):
        raise LossShapingError(
            f"spec for {spec.question_id!r}: generation-range logprobs must be finite and <= 0"
        )
    w = np.ones(spec.gen_end) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (spec.gen_end,):
        raise LossShapingError(
            f"spec for {spec.question_id!r}: {w.size} weights for {spec.gen_end} rationale tokens"
        )
    if w.size and (not np.all(np.isfinite(w)) or w.min() < 0.0 or w.max() > 1.0):
        raise LossShapingError(f"spec for {spec.question_id!r}: weights must lie in [0, 1]")
    return -float(np.dot(w[spec.input_end :], window))


def write_loss_specs(specs: list[LossSpec], path) -> None:
    """One line of loss ranges per spec: the window of question id from
    stage t until that question's next line. The weights are left out: a
    spec scores the run's token weights over [input_end, gen_end)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in specs:  # the line json.dumps gives for the record's dict, at a fifth of the cost
            qid = json.dumps(s.question_id)
            fh.write(
                f'{{"t": {s.stage}, "id": {qid}, "input_end": {s.input_end}, "gen_end": {s.gen_end}}}\n'
            )


def _check_epochs(stages: list[dict[str, int]], epochs: int) -> None:
    """Epoch e trains on stage e, so the schedule needs stages 1..epochs."""
    if len(stages) <= epochs:
        raise LossShapingError(
            f"schedule has no stage {max(len(stages), 1)} but the student trains for"
            f" {epochs} epochs"
        )


def _stage_counts(corpus: Corpus, stages: list[dict[str, int]]):
    """Yield the input-step counts of stages 1, 2, ... in corpus order. A
    stage that misses a question, or a count outside [0, n_steps], is
    refused when its stage is reached."""
    n_steps = np.array([q.n_steps for q in corpus.questions], dtype=np.int64)
    for t in range(1, len(stages)):
        try:
            counts = np.array([stages[t][q.id] for q in corpus.questions], dtype=np.int64)
        except KeyError as exc:
            raise LossShapingError(f"schedule stage {t} is missing question {exc.args[0]!r}") from None
        bad = np.flatnonzero((counts < 0) | (counts > n_steps))
        if bad.size:
            i = bad[0]
            raise LossShapingError(
                f"question {corpus.questions[i].id!r}: input_steps {counts[i]} outside [0, {n_steps[i]}]"
            )
        yield counts


def build_stage_loss_specs(corpus: Corpus, stages: list[dict[str, int]], epochs: int) -> list[LossSpec]:
    """Every question's spec at training stage 1, then a spec at each later
    stage where that question's input-step count, and so its window,
    changes; in stage order, then corpus order. stages[t] holds stage t's
    input-step counts; a spec holds until the next one for its question.
    The student trains for epochs epochs, so stages 1..epochs must exist,
    and later stages are not shaped."""
    _check_epochs(stages, epochs)
    specs: list[LossSpec] = []
    previous = None
    for t, counts in enumerate(_stage_counts(corpus, stages[: epochs + 1]), start=1):
        changed = range(counts.size) if previous is None else np.flatnonzero(counts != previous)
        specs.extend(shape_stage_loss(corpus.questions[i], counts[i], stage=t) for i in changed)
        previous = counts
    return specs


# --- tabular student -------------------------------------------------------


@dataclasses.dataclass
class StudentConfig:
    epochs: int = 20
    lr: float = 0.5
    init_scale: float = 0.01
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise LossShapingError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr <= 0.0:
            raise LossShapingError(f"lr must be > 0, got {self.lr}")


@dataclasses.dataclass
class StudentTrace:
    epoch_losses: list[float]
    final_token_probs: dict[str, np.ndarray]
    unigram: np.ndarray
    bigram: np.ndarray
    vocab: dict[str, int]


def _build_vocab(corpus: Corpus) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    vocab = {BOS_TOKEN: BOS_ID}
    for q in corpus.questions:
        for tok in q.rationale_tokens:
            if tok not in vocab:
                vocab[tok] = len(vocab)
    enc = {
        q.id: np.asarray([vocab[t] for t in q.rationale_tokens], dtype=np.int64)
        for q in corpus.questions
    }
    return vocab, enc


def _log_softmax_table(unigram: np.ndarray, bigram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log p, p) of the next token, one row per previous token."""
    logp = unigram[None, :] + bigram
    logp -= logp.max(axis=1, keepdims=True)
    probs = np.exp(logp)
    sz = probs.sum(axis=1, keepdims=True)
    logp -= np.log(sz)
    probs /= sz
    return logp, probs


def _descend(counts: np.ndarray, unigram: np.ndarray, bigram: np.ndarray, scale: float) -> float:
    """One full-batch step in place; returns the summed weighted NLL."""
    logp, g_bi = _log_softmax_table(unigram, bigram)
    # einsum's own loop, not a BLAS dot: the sum's order, and so its last
    # bits, must not depend on the BLAS thread count
    total = -float(np.einsum("ij,ij->", counts, logp))
    g_bi *= counts.sum(axis=1)[:, None]
    g_bi -= counts
    unigram -= scale * g_bi.sum(axis=0)
    g_bi *= scale
    bigram -= g_bi
    return total


def _token_weights(corpus: Corpus, weights: dict[str, np.ndarray] | None) -> np.ndarray:
    """Every rationale token's weight in corpus order: weights[id] where the
    map has the question, else 1."""
    parts = []
    for q in corpus.questions:
        w = weights.get(q.id) if weights else None
        w = np.ones(q.n_tokens) if w is None else np.asarray(w, dtype=np.float64)
        if w.shape != (q.n_tokens,):
            raise LossShapingError(f"question {q.id!r}: {w.size} weights for {q.n_tokens} rationale tokens")
        parts.append(w)
    return np.concatenate(parts)


def _run_student(
    corpus: Corpus,
    weights: dict[str, np.ndarray] | None,
    epoch_counts,
    config: StudentConfig,
) -> StudentTrace:
    """Full-batch gradient descent on weighted NLL. epoch_counts yields each
    epoch's input-step counts in corpus order; simulate and plain training
    share this engine so they differ only in the counts fed in.

    The student's next-token distribution depends only on the previous
    token, so an epoch's loss and gradient follow from the summed weight
    of each (previous, target) pair and one softmax table. A token whose
    step index is below its question's count adds an exact 0.0 to its
    pair, and np.bincount adds in input order, so each pair's sum is the
    sum over the scored tokens alone."""
    config.validate()
    questions = corpus.questions
    vocab, pairs = _build_vocab(corpus)
    nv = len(vocab)
    nq = len(questions)
    for idx in pairs.values():  # token id t -> pair id (previous token) * nv + t
        idx += np.concatenate(([BOS_ID], idx[:-1])) * nv
    pair = np.concatenate([pairs[q.id] for q in questions])
    w = _token_weights(corpus, weights)
    step = np.concatenate([np.repeat(np.arange(q.n_steps), [e - s for s, e in q.step_spans]) for q in questions])
    n_tokens = np.array([q.n_tokens for q in questions])
    rng = np.random.default_rng(config.seed)
    unigram = rng.normal(0.0, config.init_scale, size=nv)
    bigram = rng.normal(0.0, config.init_scale, size=(nv, nv))
    epoch_losses: list[float] = []
    for epoch, counts in zip(range(1, config.epochs + 1), epoch_counts):
        scored = np.where(step >= np.repeat(counts, n_tokens), w, 0.0)
        table = np.bincount(pair, weights=scored, minlength=nv * nv).reshape(nv, nv)
        total = _descend(table, unigram, bigram, config.lr / nq)
        if not math.isfinite(total):
            raise RuntimeError(f"non-finite student loss at epoch {epoch}; lower the learning rate")
        epoch_losses.append(total / nq)
    logp = _log_softmax_table(unigram, bigram)[0].ravel()
    final = {qid: np.exp(logp[p]) for qid, p in pairs.items()}
    return StudentTrace(
        epoch_losses=epoch_losses,
        final_token_probs=final,
        unigram=unigram,
        bigram=bigram,
        vocab=vocab,
    )


def simulate_student(
    corpus: Corpus,
    stages: list[dict[str, int]],
    weights: dict[str, np.ndarray] | None,
    config: StudentConfig,
) -> StudentTrace:
    """Train the tabular student for config.epochs epochs, epoch e using
    stages[e], the input-step counts of schedule stage e."""
    _check_epochs(stages, config.epochs)
    return _run_student(corpus, weights, _stage_counts(corpus, stages), config)


def train_plain(
    corpus: Corpus, weights: dict[str, np.ndarray] | None, config: StudentConfig
) -> StudentTrace:
    """Same student, no curriculum: every epoch scores the whole rationale."""
    zeros = np.zeros(len(corpus.questions), dtype=np.int64)
    return _run_student(corpus, weights, itertools.repeat(zeros), config)


def write_trace(trace: StudentTrace, path) -> None:
    """One JSON document, one question's final token probabilities per line.
    The input-step counts are not repeated here: under simulate, epoch e's
    are schedule.json stage e's "c"; under train_plain they are all 0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"epoch_losses": ' + json.dumps(trace.epoch_losses) + ',\n"final_token_probs": {')
        sep = "\n"
        for qid, p in trace.final_token_probs.items():
            fh.write(sep + json.dumps(qid) + ": " + json.dumps(p.tolist()))
            sep = ",\n"
        fh.write("\n}}\n")
