"""Reference implementations the tests compare the pipeline against.

No cotpace command runs these: the exhaustive best-subset search and its
set-function helpers check select_ftgp, gumbel_sample checks the
relaxed-Bernoulli mask draw, gradient_check checks the trainer's analytic
gradients, and evaluate_loss and train_plain check the loss windows and
the scheduled student. count_matrix turns a schedule a test writes by hand
into read_schedule's matrix; a planned schedule already holds it as
Schedule.counts. uniform_weights is the weights map the command line builds
for a corpus without token_weights when --out holds no weights.jsonl.
scorer_from_checkpoint reads weight_model.json back, which no command does,
so a test can recompute weights.jsonl from it.
"""
from __future__ import annotations

import base64
import itertools
import json
import math
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from cotpace.corpus import Corpus, Question
from cotpace.loss_shaping import StudentConfig, StudentTrace, _run_student
from cotpace.selection import SelectionProblem
from cotpace.weighting import (
    MaskSample,
    TokenWeightModel,
    WeightingConfig,
    _draw_mask,
    _sample_noise,
    weighting_loss_and_grads,
)

# ---------------------------------------------------------------------------
# subset comparison: lexicographic order on the sorted member lists.
# Lowest differing bit p decides: the mask containing p is smaller unless
# the other mask still has members above p (a shorter prefix wins).


def _lex_smaller(a: int, b: int) -> bool:
    if a == b:
        return False
    x = a ^ b
    p_bit = x & (-x)
    above = ~((p_bit << 1) - 1)
    if a & p_bit:
        return (b & above) != 0
    return (a & above) == 0


# ---------------------------------------------------------------------------
# exhaustive best feasible subset (oracle). Subset sums and per-cluster
# counts are built by doubling over items in index order; value is
# (sum - budget) + beta * sum_k sqrt(count_k), added cluster by cluster.


def bruteforce_best_subset(deltas, clusters, n_clusters, budget, beta):
    """Return (best value, best subset bitmask) over all feasible subsets."""
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    clusters = np.ascontiguousarray(clusters, dtype=np.int64)
    budget, beta = float(budget), float(beta)
    n = deltas.shape[0]
    if n == 0:
        return -budget, 0  # value of the empty set (all sqrt counts are 0)
    sums = np.zeros(1, dtype=np.float64)
    for i in range(n):
        sums = np.concatenate([sums, sums + deltas[i]])
    values = sums - budget
    for c in range(n_clusters):
        cnt = np.zeros(1, dtype=np.int64)
        for i in range(n):
            cnt = np.concatenate([cnt, cnt + (1 if clusters[i] == c else 0)])
        values = values + beta * np.sqrt(cnt.astype(np.float64))
    masked = np.where(sums <= budget, values, -np.inf)
    best_val = masked.max()
    best_mask = -1
    for m in np.flatnonzero(masked == best_val):
        m = int(m)
        if best_mask < 0 or _lex_smaller(m, best_mask):
            best_mask = m
    return float(best_val), best_mask


# ---------------------------------------------------------------------------
# the set function and its exhaustive optimum

BRUTEFORCE_MAX = 22


def marginal_gain(problem: SelectionProblem, chosen: Iterable[str], candidate: str) -> float:
    """F(S + x) - F(S) for x not already in S."""
    chosen = set(chosen)
    if candidate in chosen:
        raise ValueError(f"candidate {candidate!r} already chosen")
    if candidate not in problem.increments:
        raise ValueError(f"candidate {candidate!r} not in candidate set")
    k = problem.clusters.assignment[candidate]
    n_k = sum(1 for qid in chosen if problem.clusters.assignment[qid] == k)
    return problem.increments[candidate] + problem.beta * (math.sqrt(n_k + 1) - math.sqrt(n_k))


def is_feasible(problem: SelectionProblem, chosen: Iterable[str]) -> bool:
    chosen = set(chosen)
    total = 0.0
    for qid in problem.ids:
        if qid in chosen:
            total += problem.increments[qid]
    return total <= problem.budget


def select_bruteforce(problem: SelectionProblem) -> list[str]:
    """Exhaustive optimum; ties go to the lexicographically smallest set
    of candidate indices. Guarded to <= BRUTEFORCE_MAX candidates."""
    n = len(problem.ids)
    if n > BRUTEFORCE_MAX:
        raise ValueError(f"brute force limited to {BRUTEFORCE_MAX} candidates, got {n}")
    if n == 0:
        return []
    _, mask = bruteforce_best_subset(
        problem.deltas,
        problem.cluster_ids,
        problem.clusters.n_clusters,
        problem.budget,
        problem.beta,
    )
    return [qid for i, qid in enumerate(problem.ids) if (mask >> i) & 1]


# ---------------------------------------------------------------------------
# one relaxed-Bernoulli mask draw


def gumbel_sample(weights: np.ndarray, tau: float, seed: int) -> MaskSample:
    """One relaxed-Bernoulli mask draw. P(hard_j = 1) equals weights[j]
    exactly at any tau; tau only controls how soft the relaxation is."""
    w = np.asarray(weights, dtype=np.float64)
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise ValueError(
            "weights must lie strictly inside (0, 1); clamp to [1e-6, 1 - 1e-6] before sampling"
        )
    g1, g0 = _sample_noise(w.size, np.random.default_rng(seed))
    return _draw_mask(w, g1, g0, tau)


# ---------------------------------------------------------------------------
# the trainer's gradients against central differences


def gradient_check(
    model: TokenWeightModel,
    question: Question,
    seed: int = 0,
    num_params: int = 100,
    step: float = 1e-5,
    corrupt: bool = False,
) -> float:
    """Max relative error between analytic gradients and central
    differences on the relaxed objective, over num_params randomly chosen
    parameters (noise and prefix cuts frozen for the whole check). With
    corrupt=True the largest analytic entry is zeroed first, so the
    returned error measures the check's own sensitivity."""
    rng = np.random.default_rng(seed)
    g1, g0 = _sample_noise(question.n_tokens, rng)
    prefixes = rng.integers(0, question.n_tokens + 1, size=model.config.prefix_samples).tolist()
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    weighting_loss_and_grads(
        model, question, g1=g1, g0=g0, prefixes=prefixes, mask_mode="soft", grads=grads, alpha=model.config.alpha
    )
    names = sorted(model.params)
    sizes = [model.params[name].size for name in names]
    total = int(np.sum(sizes))
    chosen = rng.choice(total, size=min(num_params, total), replace=False)
    flat_analytic = np.concatenate([grads[name].ravel() for name in names])
    analytic = flat_analytic[chosen]
    if corrupt:
        analytic = analytic.copy()
        analytic[int(np.argmax(np.abs(analytic)))] = 0.0

    scratch = {name: np.zeros_like(arr) for name, arr in model.params.items()}  # gradients not read

    def loss_at() -> float:
        loss, _, _, _ = weighting_loss_and_grads(
            model, question, g1=g1, g0=g0, prefixes=prefixes, mask_mode="soft", grads=scratch,
            alpha=model.config.alpha,
        )
        return loss

    offsets = np.cumsum([0] + sizes)
    max_err = 0.0
    for pos, a in zip(chosen, analytic):
        which = int(np.searchsorted(offsets, pos, side="right") - 1)
        name = names[which]
        arr = model.params[name]
        flat_index = int(pos - offsets[which])
        orig = arr.flat[flat_index]
        h = step * max(1.0, abs(orig))
        arr.flat[flat_index] = orig + h
        lp_hi = loss_at()
        arr.flat[flat_index] = orig - h
        lp_lo = loss_at()
        arr.flat[flat_index] = orig
        fd = (lp_hi - lp_lo) / (2.0 * h)
        err = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
        if err > max_err:
            max_err = err
    return max_err


# ---------------------------------------------------------------------------
# the loss of one window, and the student without a curriculum


def evaluate_loss(input_end: int, logprobs: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Weighted NLL over the generation range [input_end, n), where n, the
    rationale's length, is that of logprobs. weights index the same tokens;
    logprobs inside the range must be <= 0, and weights (uniform when None)
    must lie in [0, 1]."""
    lp = np.asarray(logprobs, dtype=np.float64)
    n = lp.size
    if lp.shape != (n,) or input_end > n:
        raise ValueError(f"window from {input_end}: {n} logprobs do not cover [0, {input_end})")
    window = lp[input_end:]
    if window.size and (not np.all(np.isfinite(window)) or window.max() > 0.0):
        raise ValueError(f"window from {input_end}: generation-range logprobs must be finite and <= 0")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"window from {input_end}: {w.size} weights for {n} rationale tokens")
    if w.size and (not np.all(np.isfinite(w)) or w.min() < 0.0 or w.max() > 1.0):
        raise ValueError(f"window from {input_end}: weights must lie in [0, 1]")
    return -float(np.dot(w[input_end:], window))


def train_plain(corpus: Corpus, weights: dict[str, np.ndarray], config: StudentConfig) -> StudentTrace:
    """Same student, no curriculum: every epoch scores the whole rationale."""
    zeros = np.zeros(len(corpus.questions), dtype=np.int64)
    return _run_student(corpus, weights, itertools.repeat(zeros), config)


def count_matrix(corpus: Corpus, stages: Iterable[dict[str, int]]) -> np.ndarray:
    """A schedule written by hand, one {id: input-step count} map per stage,
    as the matrix read_schedule returns: one int64 row per stage, one
    column per corpus question."""
    rows = [[counts[q.id] for q in corpus.questions] for counts in stages]
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(corpus.questions))


def uniform_weights(corpus: Corpus) -> dict[str, np.ndarray]:
    """A weight of 1 for every rationale token of every corpus question."""
    return {q.id: np.ones(q.n_tokens) for q in corpus.questions}


def scorer_from_checkpoint(path) -> TokenWeightModel:
    """The model weight_model.json holds: its config, vocabulary and every
    tensor under params, decoded by the README's recipe. The file keeps no
    answer head, so the model has no classes and only forward_weights can
    run on it."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    params = {
        name: np.frombuffer(base64.b64decode(p["data"]), "<f8").reshape(p["shape"])
        for name, p in doc["params"].items()
    }
    return TokenWeightModel(vocab=doc["vocab"], classes={}, params=params, config=WeightingConfig(**doc["config"]))
