"""Stagewise loss ranges and a tabular student simulator.

A LossSpec splits one question's rationale at a stage's input-step count:
tokens before the cut are fed as input (no loss), tokens from the cut on
are generated and scored with significance-weighted NLL. The simulator
trains a unigram+bigram softmax student under a schedule, full batch, so
curriculum effects are observable end to end without a real LM. The
student trains on the windows build_stage_loss_specs cuts: it scores a
token whose position is at or past its question's input_end, so neither
a spec nor the student copies a weight.
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .corpus import Corpus, Question, token_numbering

BOS_ID = 0
BOS_TOKEN = "<bos>"


@dataclasses.dataclass
class LossSpec:
    question_id: str
    stage: int
    # first generated token index: the input range is [0, input_end), and
    # the generation range [input_end, n_tokens)
    input_end: int


def shape_stage_loss(question: Question, input_steps: int, stage: int) -> LossSpec:
    """Build the loss ranges for one question at one stage; input_steps lies
    in [0, n_steps]."""
    n = question.n_tokens
    input_end = n if input_steps == question.n_steps else question.step_spans[input_steps][0]
    return LossSpec(question_id=question.id, stage=stage, input_end=input_end)


def write_loss_specs(specs: list[LossSpec], path) -> None:
    """One line of loss ranges per spec: the window of question id from
    stage t until that question's next line. The weights are left out: a
    spec scores the run's token weights over [input_end, n_tokens)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in specs:  # the line json.dumps gives for the record's dict, at a fifth of the cost
            qid = json.dumps(s.question_id)
            fh.write(f'{{"t": {s.stage}, "id": {qid}, "input_end": {s.input_end}}}\n')


def build_stage_loss_specs(corpus: Corpus, stages: list[dict[str, int]], epochs: int) -> list[LossSpec]:
    """Every question's spec at training stage 1, then a spec at each later
    stage where that question's input-step count, and so its window,
    changes; in stage order, then corpus order. stages[t] holds stage t's
    input-step counts; a spec holds until the next one for its question.
    Epoch e trains on stage e, so stages 1..epochs must exist, and later
    stages are not shaped; read_schedule has checked each count."""
    if len(stages) <= epochs:
        raise ValueError(
            f"schedule has no stage {max(len(stages), 1)} but the student trains for"
            f" {epochs} epochs"
        )
    specs: list[LossSpec] = []
    previous = None
    for t in range(1, epochs + 1):
        counts = np.array([stages[t][q.id] for q in corpus.questions], dtype=np.int64)
        changed = range(counts.size) if previous is None else np.flatnonzero(counts != previous)
        specs.extend(shape_stage_loss(corpus.questions[i], counts[i], stage=t) for i in changed)
        previous = counts
    return specs


# --- tabular student -------------------------------------------------------

# standard deviation of the student's initial logits
INIT_SCALE = 0.01


@dataclasses.dataclass
class StudentConfig:
    """The student's settings; cli.PipelineConfig holds and checks their ranges."""

    epochs: int = 20
    lr: float = 0.5
    seed: int = 0


@dataclasses.dataclass
class StudentTrace:
    epoch_losses: list[float]
    final_token_probs: dict[str, np.ndarray]
    unigram: np.ndarray
    bigram: np.ndarray


def _build_vocab(corpus: Corpus) -> tuple[dict[str, int], dict[str, np.ndarray]]:
    vocab = token_numbering(corpus, BOS_TOKEN)  # BOS_ID is row 0
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
        parts.append(np.ones(q.n_tokens) if w is None else w)
    return np.concatenate(parts)


def _run_student(
    corpus: Corpus,
    weights: dict[str, np.ndarray] | None,
    epoch_ends,
    config: StudentConfig,
) -> StudentTrace:
    """Full-batch gradient descent on weighted NLL. epoch_ends yields each
    epoch's window starts (input_end) in corpus order; simulate_student and
    the plain-training oracle (tests/oracles.py) share this engine so they
    differ only in the window starts fed in.

    The student's next-token distribution depends only on the previous
    token, so an epoch's loss and gradient follow from the summed weight
    of each (previous, target) pair and one softmax table. A token whose
    position is before its question's input_end adds an exact 0.0 to its
    pair, and np.bincount adds in input order, so each pair's sum is the
    sum over the scored tokens alone."""
    questions = corpus.questions
    vocab, pairs = _build_vocab(corpus)
    nv = len(vocab)
    nq = len(questions)
    for idx in pairs.values():  # token id t -> pair id (previous token) * nv + t
        idx += np.concatenate(([BOS_ID], idx[:-1])) * nv
    pair = np.concatenate([pairs[q.id] for q in questions])
    w = _token_weights(corpus, weights)
    pos = np.concatenate([np.arange(q.n_tokens) for q in questions])
    n_tokens = np.array([q.n_tokens for q in questions])
    rng = np.random.default_rng(config.seed)
    unigram = rng.normal(0.0, INIT_SCALE, size=nv)
    bigram = rng.normal(0.0, INIT_SCALE, size=(nv, nv))
    epoch_losses: list[float] = []
    for epoch, ends in zip(range(1, config.epochs + 1), epoch_ends):
        scored = np.where(pos >= np.repeat(ends, n_tokens), w, 0.0)
        table = np.bincount(pair, weights=scored, minlength=nv * nv).reshape(nv, nv)
        total = _descend(table, unigram, bigram, config.lr / nq)
        if not math.isfinite(total):
            raise RuntimeError(f"non-finite student loss at epoch {epoch}; lower the learning rate")
        epoch_losses.append(total / nq)
    logp = _log_softmax_table(unigram, bigram)[0].ravel()
    final = {qid: np.exp(logp[p]) for qid, p in pairs.items()}
    for qid, probs in final.items():
        if not probs.all():  # trace.json's probabilities lie in (0, 1]
            raise RuntimeError(
                f"question {qid!r}: a final token probability underflows to 0;"
                " the student diverged, lower the learning rate (student_lr)"
            )
    return StudentTrace(epoch_losses=epoch_losses, final_token_probs=final, unigram=unigram, bigram=bigram)


def simulate_student(
    corpus: Corpus,
    stages: list[dict[str, int]],
    weights: dict[str, np.ndarray] | None,
    config: StudentConfig,
) -> StudentTrace:
    """Train the tabular student for config.epochs epochs, epoch e on the
    loss windows build_stage_loss_specs cuts for schedule stage e."""
    row = {q.id: i for i, q in enumerate(corpus.questions)}
    ends = np.zeros((config.epochs + 1, len(corpus.questions)), dtype=np.int64)
    for s in build_stage_loss_specs(corpus, stages, config.epochs):  # in stage order
        ends[s.stage :, row[s.question_id]] = s.input_end
    return _run_student(corpus, weights, ends[1:], config)


def write_trace(trace: StudentTrace, path) -> None:
    """One JSON document, one question's final token probabilities per line.
    The input-step counts are not repeated here: epoch e's are
    schedule.json stage e's "c"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"epoch_losses": ' + json.dumps(trace.epoch_losses) + ',\n"final_token_probs": {')
        sep = "\n"
        for qid, p in trace.final_token_probs.items():
            fh.write(sep + json.dumps(qid) + ": " + json.dumps(p.tolist()))
            sep = ",\n"
        fh.write("\n}}\n")
