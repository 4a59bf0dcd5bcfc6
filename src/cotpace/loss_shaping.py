"""Stagewise loss ranges and a tabular student simulator.

A LossSpec splits one question's rationale at a stage's input-step count:
tokens before the cut are fed as input (no loss), tokens from the cut on
are generated and scored with significance-weighted NLL. The simulator
trains a unigram+bigram softmax student under a schedule, full batch, so
curriculum effects are observable end to end without a real LM.
"""
from __future__ import annotations

import dataclasses
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
    weights: np.ndarray  # one weight per generated token

    @property
    def gen_start(self) -> int:
        return self.input_end

    def validate(self) -> None:
        if not (0 <= self.input_end <= self.gen_end):
            raise LossShapingError(
                f"spec for {self.question_id!r}: ranges [0,{self.input_end}) /"
                f" [{self.input_end},{self.gen_end}) are inconsistent"
            )
        if self.weights.shape != (self.gen_end - self.input_end,):
            raise LossShapingError(
                f"spec for {self.question_id!r}: {self.weights.size} weights for"
                f" {self.gen_end - self.input_end} generated tokens"
            )
        if self.weights.size and (
            not np.all(np.isfinite(self.weights))
            or self.weights.min() < 0.0
            or self.weights.max() > 1.0
        ):
            raise LossShapingError(f"spec for {self.question_id!r}: weights must lie in [0, 1]")


def shape_stage_loss(
    question: Question,
    input_steps: int,
    weights: np.ndarray | None = None,
    stage: int = 0,
) -> LossSpec:
    """Build the loss ranges for one question at one stage. weights, when
    given, must cover the whole rationale; the generated slice is kept."""
    c = int(input_steps)
    n_steps = question.n_steps
    n = question.n_tokens
    if c < 0 or c > n_steps:
        raise LossShapingError(
            f"question {question.id!r}: input_steps {c} outside [0, {n_steps}]"
        )
    input_end = n if c == n_steps else question.step_spans[c][0]
    if weights is None:
        w = np.ones(n - input_end, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise LossShapingError(
                f"question {question.id!r}: {w.size} weights for {n} rationale tokens"
            )
        w = w[input_end:].copy()
    spec = LossSpec(question_id=question.id, stage=stage, input_end=input_end, gen_end=n, weights=w)
    spec.validate()
    return spec


def evaluate_loss(spec: LossSpec, logprobs: np.ndarray) -> float:
    """Weighted NLL over the generation range. logprobs index the whole
    rationale (length gen_end); entries inside the range must be <= 0."""
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.shape != (spec.gen_end,):
        raise LossShapingError(
            f"spec for {spec.question_id!r}: {lp.size} logprobs do not cover"
            f" [0, {spec.gen_end})"
        )
    window = lp[spec.gen_start : spec.gen_end]
    if window.size and (not np.all(np.isfinite(window)) or window.max() > 0.0):
        raise LossShapingError(
            f"spec for {spec.question_id!r}: generation-range logprobs must be finite and <= 0"
        )
    return -float(np.dot(spec.weights, window))


def write_loss_specs(specs: list[LossSpec], path) -> None:
    """One line of loss ranges per spec: the window of question id from
    stage t until that question's next line. The weights are left out: a
    spec's are weights.jsonl[id][input_end:gen_end], and gen_start is
    input_end."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in specs:  # the line json.dumps gives for the record's dict, at a fifth of the cost
            qid = json.dumps(s.question_id)
            fh.write(
                f'{{"t": {s.stage}, "id": {qid}, "input_end": {s.input_end}, "gen_end": {s.gen_end}}}\n'
            )


def _stage_specs(corpus: Corpus, weights: dict[str, np.ndarray] | None):
    """specs_at(t, counts) -> {id: LossSpec} for schedule stage t, whose
    input-step counts are counts, in corpus order. A question's loss window
    changes only when its input-step count does, so its spec is built (and
    validated) only then; otherwise the object of the previous call comes
    back as is, still carrying the stage it was built at."""
    last: dict[str, tuple[int, LossSpec]] = {}

    def specs_at(t: int, counts: dict[str, int]) -> dict[str, LossSpec]:
        specs: dict[str, LossSpec] = {}
        for q in corpus.questions:
            c = counts.get(q.id)
            if c is None:
                raise LossShapingError(f"schedule stage {t} is missing question {q.id!r}")
            hit = last.get(q.id)
            if hit is None or hit[0] != c:
                w = weights.get(q.id) if weights else None
                hit = last[q.id] = (c, shape_stage_loss(q, c, w, stage=t))
            specs[q.id] = hit[1]
        return specs

    return specs_at


def build_stage_loss_specs(
    corpus: Corpus,
    stages: list[dict[str, int]],
    weights: dict[str, np.ndarray] | None = None,
) -> list[LossSpec]:
    """Every question's spec at training stage 1, then each spec built at a
    later stage, where that question's window changes; in stage order, then
    corpus order. stages[t] holds stage t's input-step counts; a spec holds
    until the next one for its question."""
    specs_at = _stage_specs(corpus, weights)
    return [
        s
        for t in range(1, len(stages))
        for s in specs_at(t, stages[t]).values()
        if s.stage == t
    ]


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


def _pair_weights(specs: list[LossSpec], pairs: dict[str, np.ndarray], nv: int) -> np.ndarray:
    """counts[r, t]: summed weight of the scored positions whose previous
    token is r and whose target is t."""
    ids = np.concatenate([pairs[s.question_id][s.gen_start : s.gen_end] for s in specs])
    w = np.concatenate([s.weights for s in specs])
    return np.bincount(ids, weights=w, minlength=nv * nv).reshape(nv, nv)


def _descend(counts: np.ndarray, unigram: np.ndarray, bigram: np.ndarray, scale: float) -> float:
    """One full-batch step in place; returns the summed weighted NLL."""
    logp, g_bi = _log_softmax_table(unigram, bigram)
    total = -float(counts.ravel() @ logp.ravel())
    g_bi *= counts.sum(axis=1)[:, None]
    g_bi -= counts
    unigram -= scale * g_bi.sum(axis=0)
    g_bi *= scale
    bigram -= g_bi
    return total


def _run_student(
    corpus: Corpus,
    specs_for_epoch,
    config: StudentConfig,
) -> StudentTrace:
    """Full-batch gradient descent on weighted NLL. specs_for_epoch(e)
    returns {id: LossSpec} for epoch e in 1..epochs; simulate and plain
    training share this engine so they differ only in the ranges fed in.

    The student's next-token distribution depends only on the previous
    token, so an epoch's loss and gradient follow from the summed weight
    of each (previous, target) pair and one softmax table."""
    config.validate()
    vocab, pairs = _build_vocab(corpus)
    nv = len(vocab)
    nq = len(corpus.questions)
    for idx in pairs.values():  # token id t -> pair id (previous token) * nv + t
        idx += np.concatenate(([BOS_ID], idx[:-1])) * nv
    rng = np.random.default_rng(config.seed)
    unigram = rng.normal(0.0, config.init_scale, size=nv)
    bigram = rng.normal(0.0, config.init_scale, size=(nv, nv))
    epoch_losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        specs = specs_for_epoch(epoch)
        scored = [specs[q.id] for q in corpus.questions]
        total = _descend(_pair_weights(scored, pairs, nv), unigram, bigram, config.lr / nq)
        if not math.isfinite(total):
            raise RuntimeError(f"non-finite student loss at epoch {epoch}; lower the learning rate")
        epoch_losses.append(total / nq)
    logp = _log_softmax_table(unigram, bigram)[0].ravel()
    final = {qid: np.exp(logp[pair]) for qid, pair in pairs.items()}
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
    if len(stages) <= config.epochs:
        raise LossShapingError(
            f"schedule has no stage {max(len(stages), 1)} but the student trains for"
            f" {config.epochs} epochs"
        )
    specs_at = _stage_specs(corpus, weights)
    return _run_student(corpus, lambda epoch: specs_at(epoch, stages[epoch]), config)


def train_plain(
    corpus: Corpus, weights: dict[str, np.ndarray] | None, config: StudentConfig
) -> StudentTrace:
    """Same student, no curriculum: every epoch scores the whole rationale."""

    def specs_for_epoch(epoch: int):
        return {
            q.id: shape_stage_loss(q, 0, weights.get(q.id) if weights else None, stage=epoch)
            for q in corpus.questions
        }

    return _run_student(corpus, specs_for_epoch, config)


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
