"""Budget curve solving and stage-by-stage curriculum planning."""
from __future__ import annotations

import math

import numpy as np
import pytest

from cotpace import schedule
from cotpace.corpus import Corpus, Question
from cotpace.difficulty import DifficultyTable, compute_table, corpus_logprobs
from cotpace.schedule import (
    BudgetCurve,
    Schedule,
    budget_at,
    plan_full_schedule,
    read_schedule,
    solve_growth_rate,
    write_schedule,
)
from cotpace.selection import ClusterAssignment, kmeans_cluster
from oracles import uniform_weights


def _unit_table(n_questions: int = 3, n_steps: int = 1) -> DifficultyTable:
    return DifficultyTable(steps={f"q{i}": np.ones(n_steps) for i in range(n_questions)})


def _corpus_for(table: DifficultyTable) -> Corpus:
    questions = []
    for qid, arr in table.steps.items():
        m = arr.size
        questions.append(
            Question(
                id=qid,
                question_text="count the steps",
                answer_text="done",
                rationale_tokens=[f"s{i}." for i in range(m)],
                step_spans=[(i, i + 1) for i in range(m)],
                token_logprobs=None,
                token_weights=None,
                embedding=np.zeros(2),
            )
        )
    return Corpus(questions=questions, embedding_dim=2)


def _plan(
    table: DifficultyTable,
    *,
    c0: float,
    p: float = 1.0,
    t_max: int = 3,
    total_stages: int | None = None,
    beta: float = 0.0,
    eps: float = 0.1,
    step_reduction: int = 1,
) -> Schedule:
    corpus = _corpus_for(table)
    curve = BudgetCurve.solve(b_total=table.corpus_total, c0=c0, p=p, t_max=t_max)
    clusters = ClusterAssignment(n_clusters=1, assignment={qid: 0 for qid in table.steps})
    return plan_full_schedule(
        corpus,
        table,
        curve,
        clusters,
        beta=beta,
        eps=eps,
        step_reduction=step_reduction,
        total_stages=t_max if total_stages is None else total_stages,
    )


# --- solve_growth_rate ----------------------------------------------------------


def test_growth_rate_linear_hand_case():
    assert abs(solve_growth_rate(2.0, 0.0, 1.0, 1) - 4.0) < 1e-12


def test_growth_rate_zero_when_budget_met_at_start():
    assert solve_growth_rate(3.0, 3.0, 2.0, 7) == 0.0


def test_growth_rate_sublinear_hand_case():
    u = solve_growth_rate(1.0, 0.3, 0.5, 10)
    assert abs(u - 0.7 * 1.5 / 10**1.5) < 1e-9
    assert abs(u - 0.033204) < 5e-7


# --- budget_at ------------------------------------------------------------------


def test_budget_endpoints():
    curve = BudgetCurve.solve(b_total=5.0, c0=1.0, p=0.7, t_max=12)
    assert budget_at(curve, 0.0) == 1.0
    assert abs(budget_at(curve, 12.0) - 5.0) <= 1e-9 * 5.0


def test_budget_hand_value():
    curve = BudgetCurve(u=4.0, p=1.0, c0=0.0, t_max=1, b_total=2.0)
    assert abs(budget_at(curve, 0.5) - 0.5) < 1e-12


def test_budget_saturates_past_horizon():
    curve = BudgetCurve.solve(b_total=5.0, c0=1.0, p=2.0, t_max=4)
    assert budget_at(curve, 9.0) == 5.0


def test_solve_refuses_a_budget_that_overflows():
    # (total - warm start) * (p + 1) = 2.1e308 overflows, so every budget
    # after stage 0 was infinite and stage 0's was NaN
    with pytest.raises(ValueError, match=r"p = 1.0 and c0_frac .* difficulty total 1.5e\+308 of difficulty.jsonl"):
        BudgetCurve.solve(b_total=1.5e308, c0=0.3 * 1.5e308, p=1.0, t_max=2)
    curve = BudgetCurve.solve(b_total=1.5e308, c0=0.3 * 1.5e308, p=0.5, t_max=2)  # 1.6e308 fits
    assert budget_at(curve, 2.0) <= 1.5e308 * (1 + 1e-12)


def test_budget_monotone_on_grid():
    curve = BudgetCurve.solve(b_total=11.0, c0=0.25, p=0.4, t_max=9)
    grid = np.linspace(0.0, 9.0, 500)
    values = [budget_at(curve, float(t)) for t in grid]
    assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


# --- plan_full_schedule ---------------------------------------------------------


def test_plan_matches_hand_worked_example():
    # one question, three unit-difficulty steps, warm start 1, horizon 3
    table = _unit_table(n_questions=1, n_steps=3)
    plan = _plan(table, c0=1.0, p=1.0, t_max=3)
    stage0 = plan.stages[0]
    assert stage0.budget == 1.0
    assert plan.counts[0].tolist() == [2]
    assert abs(stage0.delta_h - 1.0) < 1e-12
    assert stage0.h_after == 1.0
    final = plan.stages[3]
    assert plan.counts[3].tolist() == [0]
    assert abs(final.h_after - 3.0) < 1e-9


def test_plan_zeroes_all_counts_at_horizon():
    table = _unit_table(n_questions=4, n_steps=5)
    plan = _plan(table, c0=0.5, t_max=3, total_stages=6)
    assert plan.counts.shape == (7, 4)
    assert plan.counts[:3].any() and not plan.counts[3:].any()


def test_an_admitted_count_falls_by_the_step_reduction_and_stops_at_zero():
    # three steps, two at a time: an admitted count falls 3 -> 1, then 1 -> 0
    plan = _plan(_unit_table(n_questions=4, n_steps=3), c0=2.0, t_max=8, step_reduction=2)
    assert (plan.counts >= 0).all()
    before = np.full(4, 3)  # every question's n_steps
    falls = []
    for row in plan.counts[:8]:  # the stages before the horizon, which zeroes every count
        admitted = row < before
        assert np.array_equal(row[admitted], before[admitted] - np.minimum(before[admitted], 2))
        falls += zip(before[admitted].tolist(), row[admitted].tolist())
        before = row
    assert (3, 1) in falls and (1, 0) in falls


def test_plan_counts_never_increase():
    table = _unit_table(n_questions=5, n_steps=4)
    plan = _plan(table, c0=2.0, t_max=5, total_stages=7)
    assert (plan.counts[1:] <= plan.counts[:-1]).all()


def test_plan_invariants_on_bundled_corpus(bundled_corpus):
    table = compute_table(bundled_corpus, uniform_weights(bundled_corpus), corpus_logprobs(bundled_corpus))
    embeddings = {q.id: q.embedding for q in bundled_corpus.questions}
    clusters = kmeans_cluster(embeddings, 4, seed=11)
    curve = BudgetCurve.solve(
        b_total=table.corpus_total, c0=0.3 * table.corpus_total, p=0.5, t_max=6
    )
    plan = plan_full_schedule(
        bundled_corpus, table, curve, clusters, beta=1.0, eps=0.1,
        step_reduction=1, total_stages=8,
    )
    max_step = max(float(arr.max()) for arr in table.steps.values())
    cumulative_h = 0.0
    for t, record in enumerate(plan.stages):
        if t < 6:
            assert record.delta_h <= record.delta_budget + 1e-9
        cumulative_h += record.delta_h
        assert abs(cumulative_h - record.h_after) < 1e-6
        assert record.h_after <= budget_at(curve, t) + max_step + 1e-9
    assert abs(plan.stages[-1].h_after - table.corpus_total) < 1e-6


def test_plan_selects_through_the_module_globals(bundled_corpus, monkeypatch):
    """pipebench counts the planner's selection work by wrapping these two
    names in schedule; a planner that bypassed them, or ran another number
    of rounds, would change its selection.* counts without a word."""
    counts = {"increments": 0, "ftgp": 0, "candidates": 0, "admitted": 0}
    rounds = []  # the ids each select_ftgp call returned
    candidate_increments, select_ftgp = schedule.candidate_increments, schedule.select_ftgp

    def counted_increments(*args, **kwargs):
        counts["increments"] += 1
        return candidate_increments(*args, **kwargs)

    def counted_ftgp(problem, *args, **kwargs):
        sel = select_ftgp(problem, *args, **kwargs)
        counts["ftgp"] += 1
        counts["candidates"] += len(problem.ids)
        counts["admitted"] += len(sel)
        rounds.append(sel)
        return sel

    monkeypatch.setattr(schedule, "candidate_increments", counted_increments)
    monkeypatch.setattr(schedule, "select_ftgp", counted_ftgp)
    table = compute_table(bundled_corpus, uniform_weights(bundled_corpus), corpus_logprobs(bundled_corpus))
    clusters = kmeans_cluster({q.id: q.embedding for q in bundled_corpus.questions}, 4, seed=11)
    curve = BudgetCurve.solve(
        b_total=table.corpus_total, c0=0.5 * table.corpus_total, p=0.5, t_max=6
    )
    plan = plan_full_schedule(
        bundled_corpus, table, curve, clusters, beta=12.0, eps=0.1,
        step_reduction=1, total_stages=8,
    )
    # Stage 0 admits 50 and then 29 in two rounds before a round admits
    # none; stages 1-5 run one round each; the horizon stages run none.
    assert counts == {"increments": 8, "ftgp": 8, "candidates": 297, "admitted": 128}
    # a stage admitted the ids whose input-step count fell since the stage
    # before it (since n_steps at stage 0)
    before = [q.n_steps for q in bundled_corpus.questions]
    admitted = []
    for row in plan.counts.tolist():
        admitted.append({qid for qid, c, b in zip(plan.ids, row, before) if c < b})
        before = row
    assert [len(ids) for ids in admitted] == [50, 5, 10, 11, 11, 12, 9, 0, 0]
    # stage 0's rounds run until one admits nothing, then one round per
    # stage before the horizon (6)
    assert [len(sel) for sel in rounds[:3]] == [50, 29, 0]
    assert admitted[0] == set(rounds[0]) | set(rounds[1])
    assert admitted[1:6] == [set(sel) for sel in rounds[3:]]


def test_a_plan_sums_each_tail_once(bundled_corpus, monkeypatch):
    # every round re-summed every question's tail: 42,000 calls on a
    # 2000-question, 21-stage plan
    calls = [0]
    tail = schedule.question_generation_difficulty

    def counted(*args):
        calls[0] += 1
        return tail(*args)

    monkeypatch.setattr(schedule, "question_generation_difficulty", counted)
    table = compute_table(bundled_corpus, uniform_weights(bundled_corpus), corpus_logprobs(bundled_corpus))
    clusters = kmeans_cluster({q.id: q.embedding for q in bundled_corpus.questions}, 4, seed=11)
    curve = BudgetCurve.solve(b_total=table.corpus_total, c0=0.5 * table.corpus_total, p=0.5, t_max=6)
    plan = plan_full_schedule(
        bundled_corpus, table, curve, clusters, beta=12.0, eps=0.1, step_reduction=1, total_stages=8
    )
    assert calls[0] <= sum(q.n_steps + 1 for q in bundled_corpus.questions)
    # the fsum of the looked-up tails is the fsum of the tails
    for record, row in zip(plan.stages, plan.counts.tolist()):
        assert record.h_after == math.fsum(tail(table, qid, c) for qid, c in zip(plan.ids, row))


def test_a_plan_shorter_than_its_horizon_ends_at_its_last_stage():
    # The curriculum is cut at the last stage: the stages before it are
    # those of the full plan, and input steps are left.
    table = _unit_table(n_questions=4, n_steps=3)
    cut = _plan(table, c0=1.0, t_max=5, total_stages=3)
    full = _plan(table, c0=1.0, t_max=5)
    assert len(cut.stages) == len(cut.counts) == 4
    assert cut.stages == full.stages[:4]
    assert np.array_equal(cut.counts, full.counts[:4])
    assert cut.params == full.params
    assert cut.counts[-1].any()


def test_plan_deterministic():
    table = _unit_table(n_questions=6, n_steps=2)
    a = _plan(table, c0=2.0, t_max=4, total_stages=5)
    b = _plan(table, c0=2.0, t_max=4, total_stages=5)
    assert a.params == b.params
    for ra, rb in zip(a.stages, b.stages):
        assert ra == rb
    assert np.array_equal(a.counts, b.counts)


# --- persistence ----------------------------------------------------------------


def test_schedule_round_trip(tmp_path):
    table = _unit_table(n_questions=4, n_steps=2)
    plan = _plan(table, c0=1.5, t_max=4, total_stages=6)
    path = tmp_path / "schedule.json"
    write_schedule(plan, path)
    corpus = _corpus_for(table)
    counts = read_schedule(path, corpus)
    assert counts.dtype == plan.counts.dtype == np.int64
    assert counts.shape == plan.counts.shape == (7, 4)
    assert np.array_equal(counts, plan.counts)
