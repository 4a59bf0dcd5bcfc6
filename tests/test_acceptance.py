"""Acceptance suite: nine criteria, one test each, one report line each.

Every test prints a PASS/FAIL line through the criterion_report fixture so
the pytest summary ends with a readable scorecard. Tolerances are pinned
in-line next to the assertions they guard.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from cotpace.cli import PipelineConfig, run_pipeline
from cotpace.corpus import Question
from cotpace.difficulty import (
    DifficultyTable,
    compute_table,
    corpus_logprobs,
    normalize_step_weights,
    question_generation_difficulty,
    step_difficulty,
)
from cotpace.loss_shaping import StudentConfig, shape_stage_loss, simulate_student
from cotpace.schedule import BudgetCurve, budget_at
from cotpace.selection import (
    ClusterAssignment,
    SelectionProblem,
    select_ftgp,
    value_of,
)
from cotpace.synth import KEY_TOKENS, make_keypoint_corpus
from cotpace.weighting import WeightingConfig, build_model, train_weighting
from oracles import (
    count_matrix,
    evaluate_loss,
    gradient_check,
    gumbel_sample,
    marginal_gain,
    select_bruteforce,
    train_plain,
    uniform_weights,
)


def _random_instance(rng: np.random.Generator) -> SelectionProblem:
    n = int(rng.integers(5, 19))
    k = int(rng.integers(1, 6))
    ids = [f"q{i}" for i in range(n)]
    deltas = rng.uniform(0.0, 4.0, size=n)
    deltas[rng.random(n) < 0.1] = 0.0
    increments = dict(zip(ids, deltas))
    budget = float(rng.uniform(0.0, deltas.sum()))
    beta = float(rng.choice([0.0, 1.0, 12.0]))
    assignment = {qid: int(rng.integers(k)) for qid in ids}
    clusters = ClusterAssignment(n_clusters=k, assignment=assignment)
    return SelectionProblem(increments, budget, clusters, beta)


def test_criterion_1_approximation_guarantee(criterion_report):
    started = time.monotonic()
    rng = np.random.default_rng(20250817)
    worst = math.inf
    for _ in range(500):
        problem = _random_instance(rng)
        greedy = select_ftgp(problem, eps=0.1)
        optimum = select_bruteforce(problem)
        empty = value_of(problem, [])
        gain = value_of(problem, greedy) - empty
        best_gain = value_of(problem, optimum) - empty
        assert gain >= (0.5 - 0.1) * best_gain - 1e-9, (problem.increments, problem.budget)
        if best_gain > 0:
            worst = min(worst, gain / best_gain)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    criterion_report(
        1,
        "greedy gain >= (1/2 - eps) x optimum on 500 random instances",
        f"worst ratio {worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_2_monotone_and_submodular(criterion_report):
    rng = np.random.default_rng(2)
    mono_margin = math.inf
    sub_margin = math.inf
    for _ in range(1000):
        problem = _random_instance(rng)
        ids = problem.ids
        perm = list(rng.permutation(ids))
        hi = int(rng.integers(1, len(perm) + 1))
        lo = int(rng.integers(0, hi))
        small, large = perm[:lo], perm[:hi]
        mono_margin = min(mono_margin, value_of(problem, large) - value_of(problem, small))
        assert value_of(problem, small) <= value_of(problem, large) + 1e-9
        if hi < len(perm):
            x = perm[-1]
            sub_margin = min(
                sub_margin,
                marginal_gain(problem, small, x) - marginal_gain(problem, large, x),
            )
            assert marginal_gain(problem, small, x) >= marginal_gain(problem, large, x) - 1e-9
    criterion_report(
        2,
        "value function monotone and submodular on 1000 random triples",
        f"worst margins {mono_margin:.2e} / {sub_margin:.2e}",
    )


def test_criterion_3_budget_curve(criterion_report):
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 1000)
    for _ in range(100):
        b = float(rng.uniform(0.5, 50.0))
        c0 = float(rng.uniform(0.0, b))
        p = float(rng.uniform(0.05, 3.0))
        t_max = int(rng.integers(1, 40))
        curve = BudgetCurve.solve(b_total=b, c0=c0, p=p, t_max=t_max)
        assert budget_at(curve, 0.0) == c0  # exact, not approximate
        assert abs(budget_at(curve, float(t_max)) - b) <= 1e-9 * max(1.0, abs(b))
        values = [budget_at(curve, float(t) * t_max) for t in grid]
        assert all(later - earlier >= -1e-12 for earlier, later in zip(values, values[1:]))
    criterion_report(
        3,
        "budget curve endpoints exact/1e-9 and non-decreasing on 1000-point grids",
        "100 random (B, C0, p, T) tuples",
    )


def test_criterion_4_schedule_invariants(
    criterion_report, bundled_corpus, bundled_corpus_path, tmp_path
):
    # run the real pipeline stages that feed the planner, then check the plan
    from cotpace.cli import cmd_assess, cmd_cluster, cmd_schedule

    cfg = PipelineConfig(corpus=str(bundled_corpus_path), out=str(tmp_path), seed=404, epochs=20)
    assert cmd_assess(cfg) == 0
    assert cmd_cluster(cfg) == 0
    assert cmd_schedule(cfg) == 0
    # the invariants of the file as written, read with json: read_schedule
    # reads only each stage's t and c
    with open(tmp_path / "schedule.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    table = compute_table(bundled_corpus, uniform_weights(bundled_corpus), corpus_logprobs(bundled_corpus))
    horizon = plan["params"]["horizon"]
    max_increment = max(float(arr.max()) for arr in table.steps.values())
    curve = BudgetCurve.solve(
        b_total=table.corpus_total,
        c0=cfg.c0_frac * table.corpus_total,
        p=cfg.p,
        t_max=horizon,
    )
    previous = None
    cumulative_h = 0.0
    for t, record in enumerate(plan["stages"]):
        assert record["t"] == t
        if t < horizon:
            assert record["delta_H"] <= record["delta_D"] + 1e-9, t
        if previous is not None:
            assert all(record["c"][q] <= previous[q] for q in previous), t
        if t >= horizon:
            assert all(c == 0 for c in record["c"].values()), t
        cumulative_h += record["delta_H"]
        assert cumulative_h <= budget_at(curve, t) + max_increment + 1e-9, t
        previous = record["c"]
    criterion_report(
        4,
        "schedule keeps dH <= dD, counts non-increasing, zero at horizon",
        f"{len(plan['stages'])} stages on the bundled corpus, horizon {horizon}",
    )


def test_criterion_5_gradient_correctness(criterion_report):
    corpus = make_keypoint_corpus(6, seed=55, length=9)
    worst = 0.0
    worst_control = math.inf
    for seed in range(5):
        model = build_model(corpus, WeightingConfig(seed=seed))
        question = corpus.questions[seed % len(corpus.questions)]
        err = gradient_check(model, question, seed=seed, num_params=100)
        control = gradient_check(model, question, seed=seed, num_params=100, corrupt=True)
        worst = max(worst, err)
        worst_control = min(worst_control, control)
        assert err < 1e-4, f"seed {seed}: max relative error {err}"
        assert control >= 1e-2, f"seed {seed}: corruption went unnoticed ({control})"
    criterion_report(
        5,
        "analytic gradients within 1e-4 of finite differences, 100 params x 5 seeds",
        f"worst error {worst:.2e}, weakest negative control {worst_control:.2e}",
    )


def test_criterion_6_keypoint_recovery(criterion_report):
    started = time.monotonic()
    corpus = make_keypoint_corpus()
    config = WeightingConfig(alpha=0.5, epochs=400, seed=0)
    result = train_weighting(corpus, config)
    key_w: list[float] = []
    filler_w: list[float] = []
    for q in corpus.questions:
        for token, w in zip(q.rationale_tokens, result.weights[q.id]):
            (key_w if token in KEY_TOKENS else filler_w).append(float(w))
    # ranking AUC: probability a random keypoint outranks a random filler
    wins = 0.0
    for kw in key_w:
        for fw in filler_w:
            if kw > fw:
                wins += 1.0
            elif kw == fw:
                wins += 0.5
    auc = wins / (len(key_w) * len(filler_w))
    # fraction of tokens actual hard draws mask out
    masked = total = 0
    for i, q in enumerate(corpus.questions):
        for draw in range(8):
            sample = gumbel_sample(result.weights[q.id], config.tau, seed=1000 * i + draw)
            masked += int(np.sum(sample.hard == 0))
            total += sample.hard.size
    mask_ratio = masked / total
    elapsed = time.monotonic() - started
    assert auc >= 0.9
    assert mask_ratio >= 0.30
    assert elapsed < 300.0
    criterion_report(
        6,
        "trained weights separate planted keypoints from filler",
        f"AUC {auc:.3f}, mask ratio {mask_ratio:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_difficulty_correctness(criterion_report):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        logits = rng.normal(0.0, 2.0, size=n)
        weights = normalize_step_weights(logits, (0, n))
        assert abs(float(weights.sum()) - 1.0) <= 1e-6
        logprobs = -rng.exponential(1.0, size=n)
        d = step_difficulty(logprobs, weights, (0, n))
        assert d >= 0.0
        n_steps = int(rng.integers(1, 7))
        steps = {"q": rng.uniform(0.0, 3.0, size=n_steps)}
        table = DifficultyTable(steps=steps)
        h = [question_generation_difficulty(table, "q", c) for c in range(n_steps + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(h, h[1:]))
    criterion_report(
        7,
        "softmax sums to 1, d >= 0, difficulty non-increasing in kept steps",
        "1000 random tables",
    )


def _random_question(rng: np.random.Generator, qid: str) -> Question:
    n_steps = int(rng.integers(1, 5))
    sizes = [int(rng.integers(1, 5)) for _ in range(n_steps)]
    spans, start = [], 0
    for size in sizes:
        spans.append((start, start + size))
        start += size
    return Question(
        id=qid,
        question_text="generated",
        answer_text="x",
        rationale_tokens=[f"t{i}" for i in range(start)],
        step_spans=spans,
        token_logprobs=[-float(v) for v in rng.exponential(1.0, size=start)],
        token_weights=None,
        embedding=None,
    )


def test_criterion_8_loss_shaping_equivalence(criterion_report, bundled_corpus):
    rng = np.random.default_rng(8)
    for i in range(100):
        q = _random_question(rng, f"q{i}")
        end = shape_stage_loss(q, 0)
        lp = np.asarray(q.token_logprobs)
        plain_nll = -float(np.sum(lp))
        assert abs(evaluate_loss(end, lp) - plain_nll) <= 1e-9
    cfg = StudentConfig(epochs=6, lr=0.5, seed=88)
    zeros = count_matrix(bundled_corpus, [{q.id: 0 for q in bundled_corpus.questions}] * (cfg.epochs + 1))
    sim = simulate_student(bundled_corpus, zeros, uniform_weights(bundled_corpus), cfg)
    plain = train_plain(bundled_corpus, uniform_weights(bundled_corpus), cfg)
    assert sim.epoch_losses == plain.epoch_losses
    assert np.array_equal(sim.unigram, plain.unigram)
    assert np.array_equal(sim.bigram, plain.bigram)
    assert all(
        np.array_equal(sim.final_token_probs[qid], plain.final_token_probs[qid])
        for qid in sim.final_token_probs
    )
    criterion_report(
        8,
        "c=0 loss equals plain NLL; zero-curriculum student bitwise equals plain",
        "100 random questions + bundled-corpus training run",
    )


def test_criterion_9_end_to_end_determinism(criterion_report, bundled_corpus_path, tmp_path):
    started = time.monotonic()
    names = ["weights.jsonl", "weight_model.json", "difficulty.jsonl",
             "clusters.json", "schedule.json", "losses.jsonl"]
    runs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        cfg = PipelineConfig(corpus=str(bundled_corpus_path), out=str(out), seed=9)
        cfg.validate()
        assert run_pipeline(cfg) == 0
        runs.append({name: (out / name).read_bytes() for name in names})
    elapsed = time.monotonic() - started
    assert runs[0] == runs[1]
    assert elapsed / 2 < 120.0
    criterion_report(
        9,
        "full pipeline on the bundled corpus re-runs byte-identically",
        f"{elapsed / 2:.0f}s per run with default settings",
    )
