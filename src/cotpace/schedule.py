"""Easy-to-hard stage planning under a growing difficulty budget.

The budget curve starts at a warm-start allowance and grows polynomially
to the full corpus difficulty at the horizon stage. Each stage admits
question increments (selection module) so that the cumulative generated
difficulty never outruns the curve; past the horizon every question is
generated in full (no input steps remain).
"""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .corpus import Corpus, expect_type, json_object, read_json
from .difficulty import DifficultyTable, question_generation_difficulty
from .selection import ClusterAssignment, SelectionProblem, candidate_increments, select_ftgp


def solve_growth_rate(b_total: float, c0: float, p: float, t_max: int) -> float:
    """Growth rate u making the curve hit b_total at stage t_max."""
    if t_max < 1:
        raise ValueError(f"horizon must be >= 1, got {t_max}")
    if p <= 0.0:
        raise ValueError(f"exponent p must be > 0, got {p}")
    if c0 < 0.0 or b_total < c0:
        raise ValueError(f"need 0 <= warm start <= total, got C0={c0}, B={b_total}")
    return (b_total - c0) * (p + 1.0) / t_max ** (p + 1.0)


@dataclasses.dataclass(frozen=True)
class BudgetCurve:
    u: float
    p: float
    c0: float
    t_max: int
    b_total: float

    @classmethod
    def solve(cls, b_total: float, c0: float, p: float, t_max: int) -> "BudgetCurve":
        u = solve_growth_rate(b_total, c0, p, t_max)
        return cls(u=u, p=p, c0=c0, t_max=t_max, b_total=b_total)


def budget_at(curve: BudgetCurve, t: float) -> float:
    """Cumulative difficulty budget at stage t; saturates at b_total."""
    if t < 0:
        raise ValueError(f"stage must be >= 0, got {t}")
    if t > curve.t_max:
        return curve.b_total
    return curve.u * t ** (curve.p + 1.0) / (curve.p + 1.0) + curve.c0


def _recompute_h(input_steps: dict[str, int], table: DifficultyTable) -> float:
    return math.fsum(
        question_generation_difficulty(table, qid, c) for qid, c in input_steps.items()
    )


def _apply_selection(
    input_steps: dict[str, int], selected: list[str], step_reduction: int
) -> dict[str, int]:
    out = dict(input_steps)
    for qid in selected:
        if qid not in out:
            raise KeyError(qid)
        if out[qid] == 0:
            raise ValueError(f"question {qid!r} has no input steps left to reduce")
        out[qid] = max(0, out[qid] - step_reduction)
    return out


@dataclasses.dataclass
class StageRecord:
    t: int
    budget: float  # D(t)
    delta_budget: float  # budget available to this stage (clamped)
    selected: list[str]
    delta_h: float  # admitted difficulty increments (fsum)
    input_steps: dict[str, int]  # c_i snapshot after the stage
    h_after: float


@dataclasses.dataclass
class Schedule:
    stages: list[StageRecord]
    params: dict

    def stage(self, t: int) -> StageRecord:
        for rec in self.stages:
            if rec.t == t:
                return rec
        raise KeyError(f"no stage {t} in schedule (have 0..{self.stages[-1].t})")

    @property
    def t_max(self) -> int:
        return int(self.params["horizon"])


def plan_full_schedule(
    corpus: Corpus,
    table: DifficultyTable,
    curve: BudgetCurve,
    clusters: ClusterAssignment,
    *,
    beta: float = 12.0,
    eps: float = 0.1,
    step_reduction: int = 1,
    total_stages: int | None = None,
) -> Schedule:
    """Plan every stage 0..total_stages.

    Each stage's budget is D(t) minus the difficulty already generated.
    Stage 0 repeats selection rounds against it until no candidate is
    admitted; stages before the horizon run one round each; at the horizon
    and beyond the budget covers the whole corpus and every input-step
    count drops to zero.
    """
    if total_stages is None:
        total_stages = curve.t_max
    if total_stages < curve.t_max:
        raise ValueError(
            f"total_stages {total_stages} shorter than the curve horizon {curve.t_max}"
        )

    def select_round(steps: dict[str, int], budget: float) -> tuple[list[str], list[float]]:
        """The ids one selection round admits, and their increments."""
        cands = candidate_increments(steps, table, step_reduction)
        if not cands:
            return [], []
        sel = select_ftgp(SelectionProblem(cands, budget, clusters, beta), eps)
        return sel, [cands[qid] for qid in sel]

    steps = {q.id: q.n_steps for q in corpus.questions}
    h = 0.0
    records: list[StageRecord] = []
    for t in range(total_stages + 1):
        d_t = budget_at(curve, t)
        delta_budget = max(0.0, d_t - h)
        if t >= curve.t_max:
            # A single round could not retire questions with several input
            # steps left, so the full rationale is forced here.
            selected = [qid for qid, c in steps.items() if c > 0]
            steps = dict.fromkeys(steps, 0)
            new_h = _recompute_h(steps, table)
            delta_h, h = max(0.0, new_h - h), new_h
        else:
            admitted: dict[str, None] = {}
            increments: list[float] = []
            while True:
                sel, incs = select_round(steps, max(0.0, d_t - h))
                if not sel:
                    break
                admitted.update(dict.fromkeys(sel))
                increments += incs
                steps = _apply_selection(steps, sel, step_reduction)
                h = _recompute_h(steps, table)
                if t > 0:
                    break
            selected, delta_h = list(admitted), math.fsum(increments)
        records.append(
            StageRecord(
                t=t,
                budget=d_t,
                delta_budget=delta_budget,
                selected=selected,
                delta_h=delta_h,
                input_steps=dict(steps),
                h_after=h,
            )
        )

    params = {
        "total_difficulty": curve.b_total,
        "warm_start": curve.c0,
        "exponent": curve.p,
        "horizon": curve.t_max,
        "growth_rate": curve.u,
        "beta": beta,
        "eps": eps,
        "step_reduction": step_reduction,
        "n_clusters": clusters.n_clusters,
    }
    return Schedule(stages=records, params=params)


def write_schedule(schedule: Schedule, path) -> None:
    """One JSON document, one stage per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"stages": [')
        sep = "\n"
        for rec in schedule.stages:
            stage = {
                "t": rec.t,
                "D_t": rec.budget,
                "delta_D": rec.delta_budget,
                "selected": rec.selected,
                "delta_H": rec.delta_h,
                "H": rec.h_after,
                "c": rec.input_steps,
            }
            fh.write(sep + json.dumps(stage))
            sep = ",\n"
        fh.write('\n],\n"params": ' + json.dumps(schedule.params) + "}\n")


_STAGE_KEYS = ("t", "D_t", "delta_D", "selected", "delta_H", "H", "c")


def read_schedule(path, corpus: Corpus) -> Schedule:
    """schedule.json for corpus: every stage counts each corpus question's
    input steps with a JSON integer in [0, n_steps] (int() would take a
    hand-edited 0.9 for 0 and true for 1)."""
    doc = read_json(path, ("stages", "params"))
    n_steps = {q.id: q.n_steps for q in corpus.questions}
    stages = []
    for k, rec in enumerate(expect_type(doc["stages"], list, "stages", str(path))):
        where = f"{path}: stage {k}"
        json_object(rec, _STAGE_KEYS, where)
        counts = expect_type(rec["c"], dict, "c", where)
        corpus.check_ids(where, counts, "input-step count")
        for qid, c in counts.items():
            if type(c) is not int or not 0 <= c <= n_steps[qid]:  # rejects bool too
                raise ValueError(
                    f"{where}: input-step count {c!r} of {qid!r} is not an integer in [0, {n_steps[qid]}]"
                )
        stages.append(
            StageRecord(
                t=int(rec["t"]),
                budget=float(rec["D_t"]),
                delta_budget=float(rec["delta_D"]),
                selected=list(rec["selected"]),
                delta_h=float(rec["delta_H"]),
                input_steps=counts,
                h_after=float(rec["H"]),
            )
        )
    return Schedule(stages=stages, params=doc["params"])
