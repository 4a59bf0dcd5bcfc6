"""Easy-to-hard stage planning under a growing difficulty budget.

The budget curve starts at a warm-start allowance and grows polynomially
to the full corpus difficulty at the horizon stage. Each stage admits
question increments (selection module) so that the cumulative generated
difficulty never outruns the curve; from the horizon on every question is
generated in full (no input steps remain). A plan that ends before its
horizon stops the curriculum at its last stage.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .corpus import Corpus, check_ints, encode, expect_type, json_object, read_json
from .difficulty import question_generation_difficulty
from .selection import ClusterAssignment, SelectionProblem, candidate_increments, select_ftgp


def solve_growth_rate(b_total: float, c0: float, p: float, t_max: int) -> float:
    """Growth rate u making the curve hit b_total at stage t_max."""
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
        """The curve from the corpus difficulty total b_total, the warm start
        c0 (c0_frac of the total) and the exponent p. Refuses with ValueError
        a growth rate or a horizon budget that overflows a float (an infinite
        rate gives an infinite horizon budget); D(t) grows with t, so every
        budget up to the horizon is then finite."""
        curve = cls(u=solve_growth_rate(b_total, c0, p, t_max), p=p, c0=c0, t_max=t_max, b_total=b_total)
        top = budget_at(curve, t_max)
        if not math.isfinite(top):
            raise ValueError(
                f"the budget curve overflows a float: p = {p} and c0_frac (warm start {c0})"
                f" with the difficulty total {b_total} of difficulty.jsonl give the growth"
                f" rate {curve.u} and the horizon budget {top}; lower p or raise c0_frac"
            )
        return curve


def budget_at(curve: BudgetCurve, t: float) -> float:
    """Cumulative difficulty budget at stage t >= 0; saturates at b_total."""
    if t > curve.t_max:
        return curve.b_total
    return curve.u * t ** (curve.p + 1.0) / (curve.p + 1.0) + curve.c0


def _recompute_h(input_steps: dict[str, int], tails: dict[str, list[float]]) -> float:
    """The generated difficulty of input_steps: tails[qid][c] is question
    qid's with c input steps."""
    return math.fsum(tails[qid][c] for qid, c in input_steps.items())


@dataclasses.dataclass
class StageRecord:
    """The budgets of stage t, the index of its record."""

    budget: float  # D(t)
    delta_budget: float  # budget available to this stage (clamped)
    delta_h: float  # admitted difficulty increments (fsum)
    h_after: float


@dataclasses.dataclass
class Schedule:
    stages: list[StageRecord]
    # counts[t, i]: question ids[i]'s input steps after stage t, the int64
    # matrix read_schedule returns
    counts: np.ndarray
    ids: list[str]
    params: dict


def plan_full_schedule(
    corpus: Corpus,
    table: dict[str, np.ndarray],
    curve: BudgetCurve,
    clusters: ClusterAssignment,
    *,
    beta: float,
    eps: float,
    step_reduction: int,
    total_stages: int,
) -> Schedule:
    """Plan every stage 0..total_stages from the {id: step difficulties}
    map table.

    Each stage's budget is D(t) minus the difficulty already generated.
    Stage 0 repeats selection rounds against it until no candidate is
    admitted; stages before the horizon run one round each; at the horizon
    and beyond the budget covers the whole corpus and every input-step
    count drops to zero. With total_stages below the horizon the plan is
    the first total_stages + 1 stages of the horizon's plan. Row t of
    counts holds the input-step counts after stage t; a stage's admitted
    ids are those whose count it lowered, so the records do not list them.
    """

    def select_round(steps: dict[str, int], budget: float) -> tuple[list[str], list[float]]:
        """The ids one selection round admits, and their increments."""
        cands = candidate_increments(steps, table, step_reduction)
        sel = select_ftgp(SelectionProblem(cands, budget, clusters, beta), eps)
        return sel, [cands[qid] for qid in sel]

    ids = [q.id for q in corpus.questions]
    steps = {q.id: q.n_steps for q in corpus.questions}  # in corpus order, as counts' columns
    tails = {
        q.id: [question_generation_difficulty(table, q.id, c) for c in range(q.n_steps + 1)]
        for q in corpus.questions
    }
    h = 0.0
    records: list[StageRecord] = []
    counts = np.empty((total_stages + 1, len(ids)), dtype=np.int64)
    for t in range(total_stages + 1):
        d_t = budget_at(curve, t)
        delta_budget = max(0.0, d_t - h)
        if t >= curve.t_max:
            # A single round could not retire questions with several input
            # steps left, so the full rationale is forced here.
            steps = dict.fromkeys(steps, 0)
            new_h = _recompute_h(steps, tails)
            delta_h, h = max(0.0, new_h - h), new_h
        else:
            increments: list[float] = []
            while True:
                sel, incs = select_round(steps, max(0.0, d_t - h))
                if not sel:
                    break
                increments += incs
                for qid in sel:
                    steps[qid] = max(0, steps[qid] - step_reduction)
                h = _recompute_h(steps, tails)
                if t > 0:
                    break
            delta_h = math.fsum(increments)
        records.append(StageRecord(budget=d_t, delta_budget=delta_budget, delta_h=delta_h, h_after=h))
        counts[t] = list(steps.values())

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
    return Schedule(stages=records, counts=counts, ids=ids, params=params)


def write_schedule(schedule: Schedule, path) -> None:
    """One JSON document, one stage per line; a stage's "c" is built from its
    row of counts alone, so the whole matrix is never converted at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"stages":[')
        sep = "\n"
        for t, (rec, row) in enumerate(zip(schedule.stages, schedule.counts)):
            stage = {
                "t": t,
                "D_t": rec.budget,
                "delta_D": rec.delta_budget,
                "delta_H": rec.delta_h,
                "H": rec.h_after,
                "c": dict(zip(schedule.ids, row.tolist())),
            }
            fh.write(sep + encode(stage))
            sep = ",\n"
        fh.write('\n],\n"params":' + encode(schedule.params) + "}\n")


def read_schedule(path, corpus: Corpus) -> np.ndarray:
    """The input-step counts of schedule.json as one int64 matrix: row k
    holds stage k's counts, column i corpus question i's. Stage k's "t"
    must be the JSON integer k, and its "c" must count each corpus
    question's input steps with a JSON integer in [0, n_steps]. No other
    field is read."""
    doc = read_json(path, ("stages",))
    records = expect_type(doc["stages"], list, "stages", str(path))
    ids = [q.id for q in corpus.questions]
    n_steps = {q.id: q.n_steps for q in corpus.questions}
    counts = np.empty((len(records), len(ids)), dtype=np.int64)
    for k, rec in enumerate(records):
        where = f"{path}: stage {k}"
        json_object(rec, ("t", "c"), where)
        if type(rec["t"]) is not int or rec["t"] != k:  # rejects bool too
            raise ValueError(f"{where}: t must be the integer {k}, got {rec['t']!r}")
        c = expect_type(rec["c"], dict, "c", where)
        corpus.check_ids(where, c, "input-step count")
        check_ints(where, c, "input-step count", n_steps, closed=True)
        counts[k] = [c[qid] for qid in ids]
    return counts
