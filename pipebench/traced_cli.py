"""Run one cotpace CLI command with spans around each module's public functions.

    python3 pipebench/traced_cli.py SPANS_JSON COMMAND [cotpace options...]

Each wrapper replaces a function in the namespace its caller looks it up in:
the names `cotpace.cli` imports, the selection functions `cotpace.schedule`
imports, the `cotpace.accel` kernels that `cotpace.selection` calls through
the module, and the per-visit and per-spec functions that `weighting` and
`loss_shaping` call through their own globals. No source file changes, and
every wrapper returns its function's result untouched.

A span is [name, start, end, parent, attrs]: parent is the index of the span
that was open when it started (-1 at the top), so a layer's self time is its
span time minus the time its children cover. The two hottest functions, one
call per trainer visit and one per loss spec, get a counter instead of a
span. Spans stay in memory and are written to SPANS_JSON when the command
returns, together with the counters and the command's exit code.
"""
from __future__ import annotations

import collections
import json
import sys
import time

from cotpace import accel, cli, loss_shaping, schedule, weighting

# Functions the cli module imported by name, with the span each call records.
CLI_SITES = {
    "parse_corpus": "corpus.parse",
    "train_weighting": "weighting.train",
    "write_weights": "weighting.io",
    "save_model": "weighting.io",
    "read_weights": "weighting.io",
    "synthetic_logprobs": "difficulty.logprobs",
    "compute_table": "difficulty.table",
    "write_table": "difficulty.io",
    "read_table": "difficulty.io",
    "kmeans_cluster": "selection.kmeans",
    "write_clusters": "selection.io",
    "read_clusters": "selection.io",
    "plan_full_schedule": "schedule.plan",
    "write_schedule": "schedule.io",
    "read_schedule": "schedule.io",
    "build_stage_loss_specs": "loss_shaping.specs",
    "simulate_student": "loss_shaping.simulate",
    "write_loss_specs": "loss_shaping.io",
    "write_trace": "loss_shaping.io",
}
# Fields some of those spans record from the call's result.
CLI_ATTRS = {
    "plan_full_schedule": lambda args, plan: {"stages": len(plan.stages)},
    "simulate_student": lambda args, trace: {"epochs": len(trace.epoch_losses)},
}

# The stage commands: `run` finds them among cli's globals, the single-stage
# subcommands through cli.COMMANDS.
STAGES = {
    "validate": "cmd_validate",
    "weigh": "cmd_weigh",
    "assess": "cmd_assess",
    "cluster": "cmd_cluster",
    "schedule": "cmd_schedule",
    "shape-loss": "cmd_shape_loss",
    "simulate": "cmd_simulate",
}


class Tracer:
    """The spans and counters of one CLI command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: collections.Counter = collections.Counter()

    def span(self, fn, name: str, attrs=None):
        """Wrap fn so each call records a span; attrs(args, result) adds fields."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.open[-1] if self.open else -1, {}]
            self.spans.append(record)
            self.open.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.open.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def install(tracer: Tracer) -> None:
    for attr, name in CLI_SITES.items():
        setattr(cli, attr, tracer.span(getattr(cli, attr), name, CLI_ATTRS.get(attr)))
    for stage, attr in STAGES.items():
        wrapped = tracer.span(getattr(cli, attr), f"cli.{stage}")
        setattr(cli, attr, wrapped)
        cli.COMMANDS[stage] = wrapped
    schedule.select_ftgp = tracer.span(
        schedule.select_ftgp,
        "selection.ftgp",
        lambda a, r: {"candidates": len(a[0].ids), "admitted": len(r)},
    )
    schedule.candidate_increments = tracer.span(
        schedule.candidate_increments, "selection.increments"
    )
    accel.greedy_admit = tracer.span(accel.greedy_admit, "accel.greedy_admit")
    accel.kmeans_labels = tracer.span(accel.kmeans_labels, "accel.kmeans_labels")
    weighting.weighting_loss_and_grads = tracer.counter(
        weighting.weighting_loss_and_grads, "weighting.visits"
    )
    loss_shaping.shape_stage_loss = tracer.counter(
        loss_shaping.shape_stage_loss, "loss_shaping.shape_calls"
    )


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        doc = {"exit_code": code, "spans": tracer.spans, "counts": dict(tracer.counts)}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
