"""Stagewise loss ranges and a tabular student simulator.

shape_stage_loss cuts one question's rationale at a stage's input-step
count, at the token index input_end: tokens before it are fed as input (no
loss), tokens from it on are generated and scored with significance-weighted
NLL. The simulator trains a unigram+bigram softmax student under a schedule,
full batch, so curriculum effects are observable end to end without a real
LM. The student trains on the windows build_stage_loss_specs cuts: it scores
a token whose position is at or past its question's input_end, so neither a
window nor the student copies a weight. write_loss_specs writes the windows
as losses.jsonl, one line per stage at which some window changes.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .corpus import Corpus, Question, encode, token_numbering

BOS_ID = 0
BOS_TOKEN = "<bos>"


def shape_stage_loss(question: Question, input_steps: int) -> int:
    """The window start input_end of one question with input_steps in [0,
    n_steps] input steps: the input range is [0, input_end), and the
    generation range [input_end, n_tokens)."""
    if input_steps == question.n_steps:
        return question.n_tokens
    return question.step_spans[input_steps][0]


@dataclasses.dataclass(frozen=True)
class LossWindows:
    """The loss windows of a schedule in column form, one entry per window
    change, in stage order, then corpus order: from stage stage[k] until its
    next entry, question ids[row[k]] is scored over [input_end[k], n_tokens)."""

    ids: list[str]  # the corpus question ids, which row indexes
    stage: np.ndarray
    row: np.ndarray
    input_end: np.ndarray

    def __len__(self) -> int:
        return self.stage.size


def write_loss_specs(windows: LossWindows, path) -> None:
    """One line of loss ranges per stage at which some window changes:
    {"t", "input_end": {id: input_end}}, the ids in corpus order, each the
    window of question id from stage t until the next line that names it.
    The weights are left out: a window scores the run's token weights over
    [input_end, n_tokens)."""
    stages, firsts = np.unique(windows.stage, return_index=True)
    bounds = [*firsts.tolist(), len(windows)]
    ids, rows, ends = windows.ids, windows.row.tolist(), windows.input_end.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for t, lo, hi in zip(stages.tolist(), bounds, bounds[1:]):
            changed = {ids[i]: end for i, end in zip(rows[lo:hi], ends[lo:hi])}
            fh.write(encode({"t": t, "input_end": changed}) + "\n")


def build_stage_loss_specs(corpus: Corpus, stages: np.ndarray, epochs: int) -> LossWindows:
    """Every question's window at training stage 1, then one at each later
    stage where that question's input-step count, and so its window,
    changes; shape_stage_loss cuts each. stages[t, i] holds corpus question
    i's input-step count at stage t, as read_schedule returns them. Epoch e
    trains on stage e, so stages 1..epochs must exist, and later stages are
    not shaped; read_schedule has checked each count."""
    if len(stages) <= epochs:
        raise ValueError(
            f"schedule has no stage {max(len(stages), 1)} but the student trains for"
            f" {epochs} epochs"
        )
    counts = stages[1 : epochs + 1]
    changed = np.ones(counts.shape, dtype=bool)
    np.not_equal(counts[1:], counts[:-1], out=changed[1:])
    stage, row = np.nonzero(changed)  # in stage order, then corpus order
    stage += 1
    questions = corpus.questions
    cuts = zip(row.tolist(), counts[changed].tolist())
    input_end = np.fromiter((shape_stage_loss(questions[i], c) for i, c in cuts), dtype=np.int64, count=row.size)
    return LossWindows([q.id for q in questions], stage, row, input_end)


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
    # each epoch's mean weight over the tokens it scored; None if it scored none
    scored_weight_means: list[float | None]
    final_token_probs: dict[str, np.ndarray]
    unigram: np.ndarray
    bigram: np.ndarray


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
    # bits, must not depend on the BLAS thread count; + 0.0 turns the -0.0 of
    # a step that scores no token into 0.0 and leaves any other sum alone
    total = -float(np.einsum("ij,ij->", counts, logp)) + 0.0
    g_bi *= counts.sum(axis=1)[:, None]
    g_bi -= counts
    unigram -= scale * g_bi.sum(axis=0)
    g_bi *= scale
    bigram -= g_bi
    return total


def _run_student(corpus: Corpus, weights: dict[str, np.ndarray], epoch_ends, config: StudentConfig) -> StudentTrace:
    """Full-batch gradient descent on weighted NLL, question id's tokens
    weighted by weights[id]. epoch_ends yields each epoch's window starts
    (input_end) in corpus order; simulate_student and the plain-training
    oracle (tests/oracles.py) share this engine so they differ only in the
    window starts fed in.

    The student's next-token distribution depends only on the previous
    token, so an epoch's loss and gradient follow from the summed weight
    of each (previous, target) pair and one softmax table. A token whose
    position is before its question's input_end adds an exact 0.0 to its
    pair, and np.bincount adds in input order, so each pair's sum is the
    sum over the scored tokens alone."""
    questions = corpus.questions
    vocab = token_numbering(corpus, BOS_TOKEN)  # BOS_ID is row 0
    nv = len(vocab)
    nq = len(questions)
    # every rationale token of the corpus in one array, question after question
    n_tokens = np.array([q.n_tokens for q in questions])
    starts = np.cumsum(n_tokens) - n_tokens
    tokens = itertools.chain.from_iterable(q.rationale_tokens for q in questions)
    target = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=n_tokens.sum())
    pair = np.roll(target, 1)  # pair id: (previous token) * nv + target
    pair[starts] = BOS_ID
    pair *= nv
    pair += target
    del target
    w = np.concatenate([weights[q.id] for q in questions])
    rng = np.random.default_rng(config.seed)
    unigram = rng.normal(0.0, INIT_SCALE, size=nv)
    bigram = rng.normal(0.0, INIT_SCALE, size=(nv, nv))
    epoch_losses: list[float] = []
    means: list[float | None] = []
    for epoch, ends in zip(range(1, config.epochs + 1), epoch_ends):
        # a token is scored from its question's first token + input_end on
        scored = np.arange(pair.size) >= np.repeat(starts + ends, n_tokens)
        table = np.bincount(pair, weights=np.where(scored, w, 0.0), minlength=nv * nv).reshape(nv, nv)
        n_scored = np.count_nonzero(scored)
        means.append(float(table.sum()) / n_scored if n_scored else None)
        total = _descend(table, unigram, bigram, config.lr / nq)
        if not math.isfinite(total):
            raise RuntimeError(f"non-finite student loss at epoch {epoch}; lower the learning rate")
        epoch_losses.append(total / nq)
    del w  # the final probabilities need pair alone
    probs = _log_softmax_table(unigram, bigram)[0].ravel()[pair]
    np.exp(probs, out=probs)
    if not probs.all():  # trace.json's probabilities lie in (0, 1]
        first = int(np.searchsorted(starts, np.argmin(probs != 0.0), side="right")) - 1
        raise RuntimeError(
            f"question {questions[first].id!r}: a final token probability underflows to 0;"
            " the student diverged, lower the learning rate (student_lr)"
        )
    final = {q.id: probs[s : s + q.n_tokens] for q, s in zip(questions, starts.tolist())}
    return StudentTrace(
        epoch_losses=epoch_losses, scored_weight_means=means, final_token_probs=final, unigram=unigram, bigram=bigram
    )


def _epoch_window_starts(windows: LossWindows, epochs: int):
    """Each epoch's window starts in corpus order, in one array updated in
    place: epoch e's hold, for each question, the input_end of its last
    window at or before stage e."""
    ends = np.zeros(len(windows.ids), dtype=np.int64)
    cuts = np.searchsorted(windows.stage, np.arange(1, epochs + 2)).tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        ends[windows.row[lo:hi]] = windows.input_end[lo:hi]
        yield ends


def simulate_student(
    corpus: Corpus,
    stages: np.ndarray,
    weights: dict[str, np.ndarray],
    config: StudentConfig,
) -> StudentTrace:
    """Train the tabular student for config.epochs epochs, epoch e on the
    loss windows build_stage_loss_specs cuts for schedule stage e; stages
    is read_schedule's count matrix, and weights holds every corpus
    question's token weights."""
    windows = build_stage_loss_specs(corpus, stages, config.epochs)
    return _run_student(corpus, weights, _epoch_window_starts(windows, config.epochs), config)


def write_trace(trace: StudentTrace, path) -> None:
    """One JSON document, one question's final token probabilities per line.
    The input-step counts are not repeated here: epoch e's are
    schedule.json stage e's "c"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"epoch_losses":' + encode(trace.epoch_losses) + ',\n"final_token_probs":{')
        sep = "\n"
        for qid, p in trace.final_token_probs.items():
            fh.write(sep + encode(qid) + ":" + encode(p.tolist()))
            sep = ",\n"
        fh.write("\n}}\n")
