"""Budget curve solving and stage-by-stage curriculum planning."""
from __future__ import annotations

import numpy as np
import pytest

from cotpace import schedule
from cotpace.corpus import Corpus, Question
from cotpace.difficulty import DifficultyTable, compute_table
from cotpace.schedule import (
    BudgetCurve,
    Schedule,
    _apply_selection,
    budget_at,
    plan_full_schedule,
    read_schedule,
    solve_growth_rate,
    write_schedule,
)
from cotpace.selection import ClusterAssignment, kmeans_cluster


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
    clusters = ClusterAssignment(
        n_clusters=1, assignment={qid: 0 for qid in table.steps}, centroids=np.zeros((1, 2))
    )
    return plan_full_schedule(
        corpus,
        table,
        curve,
        clusters,
        beta=beta,
        eps=eps,
        step_reduction=step_reduction,
        total_stages=total_stages,
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


def test_growth_rate_validation():
    with pytest.raises(ValueError):
        solve_growth_rate(2.0, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        solve_growth_rate(2.0, 0.0, 0.0, 5)
    with pytest.raises(ValueError):
        solve_growth_rate(2.0, -0.1, 1.0, 5)
    with pytest.raises(ValueError):
        solve_growth_rate(1.0, 2.0, 1.0, 5)


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


def test_budget_rejects_negative_time():
    curve = BudgetCurve.solve(b_total=5.0, c0=1.0, p=2.0, t_max=4)
    with pytest.raises(ValueError):
        budget_at(curve, -0.5)


def test_budget_monotone_on_grid():
    curve = BudgetCurve.solve(b_total=11.0, c0=0.25, p=0.4, t_max=9)
    grid = np.linspace(0.0, 9.0, 500)
    values = [budget_at(curve, float(t)) for t in grid]
    assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))


# --- stage updates --------------------------------------------------------------


def test_plan_rejects_step_reduction_below_one():
    with pytest.raises(ValueError, match="step_reduction"):
        _plan(_unit_table(), c0=1.0, step_reduction=0)


def test_apply_selection_clamps_at_zero():
    assert _apply_selection({"q0": 1, "q1": 3}, ["q0"], 2) == {"q0": 0, "q1": 3}


def test_apply_selection_rejects_exhausted_and_unknown():
    with pytest.raises(ValueError, match="no input steps left"):
        _apply_selection({"q0": 0}, ["q0"], 1)
    with pytest.raises(KeyError):
        _apply_selection({"q0": 1}, ["nope"], 1)


# --- plan_full_schedule ---------------------------------------------------------


def test_plan_matches_hand_worked_example():
    # one question, three unit-difficulty steps, warm start 1, horizon 3
    table = _unit_table(n_questions=1, n_steps=3)
    plan = _plan(table, c0=1.0, p=1.0, t_max=3)
    stage0 = plan.stage(0)
    assert stage0.budget == 1.0
    assert stage0.input_steps == {"q0": 2}
    assert abs(stage0.delta_h - 1.0) < 1e-12
    assert stage0.h_after == 1.0
    final = plan.stage(3)
    assert final.input_steps == {"q0": 0}
    assert abs(final.h_after - 3.0) < 1e-9


def test_plan_zeroes_all_counts_at_horizon():
    table = _unit_table(n_questions=4, n_steps=5)
    plan = _plan(table, c0=0.5, t_max=3, total_stages=6)
    for record in plan.stages:
        if record.t >= 3:
            assert all(c == 0 for c in record.input_steps.values())


def test_plan_counts_never_increase():
    table = _unit_table(n_questions=5, n_steps=4)
    plan = _plan(table, c0=2.0, t_max=5, total_stages=7)
    prev = None
    for record in plan.stages:
        if prev is not None:
            assert all(record.input_steps[qid] <= prev[qid] for qid in prev)
        prev = record.input_steps


def test_plan_invariants_on_bundled_corpus(bundled_corpus):
    table = compute_table(bundled_corpus)
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
    for record in plan.stages:
        if record.t < 6:
            assert record.delta_h <= record.delta_budget + 1e-9
        cumulative_h += record.delta_h
        assert abs(cumulative_h - record.h_after) < 1e-6
        assert record.h_after <= budget_at(curve, record.t) + max_step + 1e-9
    assert abs(plan.stages[-1].h_after - table.corpus_total) < 1e-6


def test_plan_selects_through_the_module_globals(bundled_corpus, monkeypatch):
    """pipebench counts the planner's selection work by wrapping these two
    names in schedule; a planner that bypassed them, or ran another number
    of rounds, would change its selection.* counts without a word."""
    counts = {"increments": 0, "ftgp": 0, "candidates": 0, "admitted": 0}
    candidate_increments, select_ftgp = schedule.candidate_increments, schedule.select_ftgp

    def counted_increments(*args, **kwargs):
        counts["increments"] += 1
        return candidate_increments(*args, **kwargs)

    def counted_ftgp(problem, *args, **kwargs):
        sel = select_ftgp(problem, *args, **kwargs)
        counts["ftgp"] += 1
        counts["candidates"] += len(problem.ids)
        counts["admitted"] += len(sel)
        return sel

    monkeypatch.setattr(schedule, "candidate_increments", counted_increments)
    monkeypatch.setattr(schedule, "select_ftgp", counted_ftgp)
    table = compute_table(bundled_corpus)
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
    assert [len(r.selected) for r in plan.stages] == [50, 5, 10, 11, 11, 12, 9, 0, 0]


def test_plan_requires_enough_stages():
    table = _unit_table()
    with pytest.raises(ValueError, match="shorter"):
        _plan(table, c0=1.0, t_max=5, total_stages=3)


def test_plan_deterministic():
    table = _unit_table(n_questions=6, n_steps=2)
    a = _plan(table, c0=2.0, t_max=4, total_stages=5)
    b = _plan(table, c0=2.0, t_max=4, total_stages=5)
    assert a.params == b.params
    for ra, rb in zip(a.stages, b.stages):
        assert ra == rb


def test_schedule_stage_lookup_rejects_unknown():
    plan = _plan(_unit_table(), c0=1.0)
    with pytest.raises(KeyError):
        plan.stage(99)


def test_schedule_t_max_property():
    plan = _plan(_unit_table(), c0=1.0, t_max=3, total_stages=5)
    assert plan.t_max == 3
    assert plan.stages[-1].t == 5


# --- persistence ----------------------------------------------------------------


def test_schedule_round_trip(tmp_path):
    table = _unit_table(n_questions=4, n_steps=2)
    plan = _plan(table, c0=1.5, t_max=4, total_stages=6)
    path = tmp_path / "schedule.json"
    write_schedule(plan, path)
    back = read_schedule(path, _corpus_for(table))
    assert back.params == plan.params
    assert len(back.stages) == len(plan.stages)
    for ra, rb in zip(plan.stages, back.stages):
        assert ra.t == rb.t
        assert ra.budget == rb.budget
        assert ra.delta_budget == rb.delta_budget
        assert ra.selected == rb.selected
        assert ra.delta_h == rb.delta_h
        assert ra.input_steps == rb.input_steps
        assert ra.h_after == rb.h_after
