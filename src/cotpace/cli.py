"""Command line pipeline.

Each subcommand is one pipeline stage and re-runs from the artifacts
persisted in the output directory; `run` runs them all in order.

Exit codes: 0 ok, 1 usage, 2 validation/input error, 3 numeric or
allocation failure.
Config is INI-style `key = value` lines; every key is also a flag, and a
flag overrides its key.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import itertools
import math
import operator
import os
import struct
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import parse_corpus, read_text
from .difficulty import compute_table, corpus_logprobs, read_table, synthetic_logprobs, write_table
from .loss_shaping import (
    StudentConfig,
    build_stage_loss_specs,
    simulate_student,
    write_loss_specs,
    write_trace,
)
from .schedule import BudgetCurve, plan_full_schedule, read_schedule, write_schedule
from .selection import kmeans_cluster, read_clusters, write_clusters
from .weighting import WeightingConfig, read_weights, save_model, train_weighting, write_weights


def _knob(default, help, *, flag=None, metavar=None, stage=None, stage_field=None,
          ge=None, gt=None, le=None, lt=None):
    """A PipelineConfig field. Its metadata holds the flag where it is not
    the name with dashes, the --help text, the stage config class the value
    is copied into, under stage_field, and the value's range: its bounds as
    (operator, bound) pairs, lower before upper."""
    bounds = tuple((op, b) for op, b in ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if b is not None)
    meta = {"help": help, "flag": flag, "metavar": metavar, "stage": stage, "stage_field": stage_field,
            "bounds": bounds}
    return dataclasses.field(default=default, metadata=meta)


def _stage_knob(stage, stage_field, help, **bounds):
    """A knob copied into stage's config field stage_field, whose default it takes."""
    return _knob(getattr(stage, stage_field), help, stage=stage, stage_field=stage_field, **bounds)


_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _range(bounds) -> str:
    """What a value in bounds must do: "be >= 1", or "lie in (0, 0.5)" for two."""
    if len(bounds) == 1:
        return "be {} {}".format(*bounds[0])
    (lo_op, lo), (hi_op, hi) = bounds
    return f"lie in {'[' if lo_op == '>=' else '('}{lo}, {hi}{']' if hi_op == '<=' else ')'}"


@dataclasses.dataclass
class PipelineConfig:
    """Every pipeline knob, defined once: each field is a config key and a
    flag, and the converters, flags, ranges and stage configs derive from
    it. A knob copied into a stage config takes that config's default."""

    corpus: str = _knob("", "corpus JSONL path")
    out: str = _knob("out", "output directory (default: out)")
    # stage_seed packs the seed as a signed 64-bit key
    seed: int | None = _knob(None, "master seed (required here or in the config)", ge=-(2**63), le=2**63 - 1)
    lenient: bool = _knob(False, "ignore unknown corpus keys")
    synthetic_logprobs: int | None = _knob(
        None, "score seeded logprobs for every question, in place of any token_logprobs", metavar="SEED", ge=0
    )
    # significance model
    alpha: float = _stage_knob(WeightingConfig, "alpha", "mask-ratio penalty", ge=0)
    tau: float = _stage_knob(WeightingConfig, "tau", "relaxation temperature", gt=0)
    weight_lr: float = _stage_knob(WeightingConfig, "lr", "answer-head learning rate", gt=0)
    scorer_lr: float = _stage_knob(WeightingConfig, "scorer_lr", "scorer learning rate", gt=0)
    head_decay: float = _stage_knob(WeightingConfig, "head_decay", "L2 shrink per update on answer-head weights", ge=0)
    weight_epochs: int = _stage_knob(WeightingConfig, "epochs", "significance model epochs", ge=1)
    batch_size: int = _stage_knob(WeightingConfig, "batch_size", "questions per significance model update", ge=1)
    prefix_samples: int = _stage_knob(WeightingConfig, "prefix_samples", "prefix cuts sampled per question visit", ge=1)
    restarts: int = _stage_knob(WeightingConfig, "restarts", "independent weighting runs, best kept", ge=1)
    unmasked_weight: float = _stage_knob(
        WeightingConfig, "unmasked_weight", "weight of the always-visible predictor pass", ge=0
    )
    d_embed: int = _stage_knob(WeightingConfig, "d_embed", "token embedding width", ge=1)
    d_hidden: int = _stage_knob(WeightingConfig, "d_hidden", "scorer hidden width", ge=1)
    # schedule and selection
    epochs: int = _stage_knob(StudentConfig, "epochs", "student epochs / schedule stages", ge=1)
    t_max: int | None = _knob(None, "budget horizon (default epochs/2)", ge=1)
    p: float = _knob(0.5, "budget curve exponent", gt=0)
    c0_frac: float = _knob(0.3, "warm start as a fraction of total difficulty", ge=0, le=1)
    delta_s: int = _knob(1, "steps removed per selection", ge=1)
    n_clusters: int = _knob(5, "k-means clusters", flag="--clusters", ge=1)
    beta: float = _knob(12.0, "diversity bonus", ge=0)
    eps: float = _knob(0.1, "threshold decay", gt=0, lt=0.5)
    # student simulation
    student_lr: float = _stage_knob(StudentConfig, "lr", "student learning rate", gt=0)
    simulate: bool = _knob(False, "run the student after the pipeline")

    @property
    def horizon(self) -> int:
        return self.t_max if self.t_max is not None else max(1, self.epochs // 2)

    def stage_config(self, cls, **extra):
        """cls built from the knobs whose metadata names it, plus extra."""
        values = {
            f.metadata["stage_field"]: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.metadata["stage"] is cls
        }
        return cls(**values, **extra)

    def validate(self) -> None:
        """Every check on the knobs, run before any stage: each value against
        its field's range, then the rules that tie two knobs together."""
        if not self.corpus:
            raise ValueError("no corpus given (config key 'corpus' or --corpus)")
        if self.seed is None:
            raise ValueError("a seed is required (config key 'seed' or --seed)")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} ({_flag(f)}) must be finite, got {value}")
            bounds = f.metadata["bounds"]
            if value is not None and not all(_HOLDS[op](value, b) for op, b in bounds):
                raise ValueError(f"{f.name} ({_flag(f)}) must {_range(bounds)}, got {value}")
        if self.weight_lr * self.head_decay >= 1.0:  # each update scales the head by 1 - lr * head_decay
            raise ValueError(
                f"weight_lr * head_decay must be < 1, got {self.weight_lr} * {self.head_decay}:"
                " the answer-head decay would zero or flip the head on every update"
            )
        try:  # the budget curve divides by horizon ** (p + 1)
            float(self.horizon) ** (self.p + 1.0)
        except OverflowError:
            raise ValueError(
                f"p = {self.p} is too large for the horizon {self.horizon}:"
                " horizon ** (p + 1) overflows a float"
            ) from None


def _to_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Field annotations are strings (postponed evaluation); an optional knob
# converts like its base type.
_CONVERT = {"str": str, "int": int, "float": float, "bool": _to_bool}
_KNOBS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


def _converter(f: dataclasses.Field):
    return _CONVERT[f.type.removesuffix(" | None")]


def _flag(f: dataclasses.Field) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def _renumbered(exc: configparser.Error, shift: int) -> configparser.Error:
    """The same configparser error with its line numbers moved by shift."""
    if type(exc) is configparser.ParsingError:
        moved = configparser.ParsingError(exc.source)
        for lineno, line in exc.errors:
            moved.append(lineno + shift, line)
        return moved
    if isinstance(exc, (configparser.DuplicateOptionError, configparser.DuplicateSectionError)):
        *head, lineno = exc.args
        if lineno is not None:
            return type(exc)(*head, lineno + shift)
    return exc


def load_config(path) -> dict:
    """INI-style key = value lines, in a bare file or under one [pipeline]
    header. Any other section is refused: its keys would otherwise merge
    into the pipeline's without a word. Unknown keys are rejected (they are
    almost always typos), and so is a key written both with dashes and with
    underscores."""
    text = read_text(path)
    lines = (line.strip() for line in text.splitlines())
    first = next((line for line in lines if line and not line.startswith(("#", ";"))), "")
    bare = not first.startswith("[")  # comment lines may come before a header
    if bare:
        text = "[pipeline]\n" + text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValueError(f"config {path}: {_renumbered(exc, -1) if bare else exc}") from None
    other = [name for name in parser.sections() if name != "pipeline"]
    if parser.defaults():
        other.insert(0, parser.default_section)
    if other:
        raise ValueError(
            f"config {path}: section [{other[0]}] is not allowed; use a bare file or one [pipeline] section"
        )
    out: dict = {}
    spelled: dict = {}  # key -> the spelling the file gave it
    if parser.has_section("pipeline"):
        for spelling, value in parser.items("pipeline"):
            key = spelling.replace("-", "_")
            if key not in _KNOBS:
                raise ValueError(f"config {path}: unknown key {key!r}")
            if key in spelled:  # configparser refuses one spelling given twice, not two
                raise ValueError(f"config {path}: key {key!r} is given as both {spelled[key]!r} and {spelling!r}")
            spelled[key] = spelling
            try:
                out[key] = _converter(_KNOBS[key])(value)
            except ValueError as exc:
                raise ValueError(f"config {path}: key {key!r}: {exc}") from None
    return out


def make_config(args: argparse.Namespace) -> PipelineConfig:
    """defaults < config file < command line flags."""
    values: dict = {}
    if args.config:
        values.update(load_config(args.config))
    for key in _KNOBS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


def stage_seed(seed: int, name: str) -> int:
    """Stable named sub-seed so stages draw independent streams."""
    digest = hashlib.blake2b(
        name.encode("utf-8"), digest_size=8, key=struct.pack("<q", seed)
    ).digest()
    return int.from_bytes(digest, "little") >> 1  # keep it non-negative


# Every file the stages keep in --out, each named once.
WEIGHTS, MODEL, DIFFICULTY, CLUSTERS = "weights.jsonl", "weight_model.json", "difficulty.jsonl", "clusters.json"
SCHEDULE, LOSSES, TRACE = "schedule.json", "losses.jsonl", "trace.json"

# The reader of each file a stage takes from --out: (path, corpus) -> value.
# The token weights of every question, which assess and simulate share, come
# from weights.jsonl, else from the question's corpus token_weights, else ones.
# Here and in STAGES each cotpace call sits in a lambda, so it is looked up at
# call time among this module's globals, where pipebench/traced_cli.py wraps it.
READERS = {
    WEIGHTS: lambda path, corpus: (
        read_weights(path, corpus)
        if path.exists()
        else {q.id: np.ones(q.n_tokens) if q.token_weights is None else q.token_weights for q in corpus.questions}
    ),
    DIFFICULTY: lambda path, corpus: read_table(path, corpus),
    CLUSTERS: lambda path, corpus: read_clusters(path, corpus),
    SCHEDULE: lambda path, corpus: read_schedule(path, corpus),
}


@dataclasses.dataclass(frozen=True)
class Stage:
    """One pipeline stage: what it does, compute(cfg, corpus, inputs) over the
    --out files it reads (inputs keyed by file name), the (file, write(result,
    path)) pairs it writes, and note(cfg, result), which ends its printed line."""

    summary: str
    compute: Callable
    note: Callable
    reads: tuple = ()
    writes: tuple = ()


def _weight(mean: float | None) -> str:
    """An epoch's mean scored weight, or none where it scored no token."""
    return "none" if mean is None else f"{mean:.4f}"


def _plan(cfg: PipelineConfig, corpus, inputs):
    table = inputs[DIFFICULTY]
    total = table.corpus_total
    curve = BudgetCurve.solve(b_total=total, c0=cfg.c0_frac * total, p=cfg.p, t_max=cfg.horizon)
    return plan_full_schedule(
        corpus, table, curve, inputs[CLUSTERS],
        beta=cfg.beta, eps=cfg.eps, step_reduction=cfg.delta_s, total_stages=cfg.epochs,
    )


STAGES = {
    "validate": Stage(
        "Parse the corpus and check every invariant",
        compute=lambda cfg, corpus, inputs: corpus,
        note=lambda cfg, corpus: (
            f"ok: {len(corpus)} questions, {sum(q.n_steps for q in corpus.questions)} steps,"
            f" {sum(q.token_logprobs is not None for q in corpus.questions)} with logprobs,"
            f" embedding dim {corpus.embedding_dim}"
        ),
    ),
    "weigh": Stage(
        "Train the significance model",
        compute=lambda cfg, corpus, inputs: train_weighting(
            corpus, cfg.stage_config(WeightingConfig, seed=stage_seed(cfg.seed, "weigh"))
        ),
        writes=(
            (WEIGHTS, lambda result, path: write_weights(result.weights, path)),
            (MODEL, lambda result, path: save_model(result.model, path)),
        ),
        note=lambda cfg, result: f"final loss {result.epoch_losses[-1]:.4f}",
    ),
    "assess": Stage(
        "Score step difficulties",
        reads=(WEIGHTS,),
        compute=lambda cfg, corpus, inputs: compute_table(
            corpus,
            inputs[WEIGHTS],
            synthetic_logprobs(corpus, cfg.synthetic_logprobs)
            if cfg.synthetic_logprobs is not None
            else corpus_logprobs(corpus),
        ),
        writes=((DIFFICULTY, lambda table, path: write_table(table, path)),),
        note=lambda cfg, table: f"total difficulty {table.corpus_total:.4f}",
    ),
    "cluster": Stage(
        "K-means over question embeddings",
        compute=lambda cfg, corpus, inputs: kmeans_cluster(
            {q.id: q.embedding for q in corpus.questions}, cfg.n_clusters, stage_seed(cfg.seed, "cluster")
        ),
        writes=((CLUSTERS, lambda result, path: write_clusters(result, path)),),
        note=lambda cfg, result: f"{cfg.n_clusters} clusters",
    ),
    "schedule": Stage(
        "Plan stages 0..epochs under the budget curve",
        reads=(DIFFICULTY, CLUSTERS),
        compute=_plan,
        writes=((SCHEDULE, lambda plan, path: write_schedule(plan, path)),),
        note=lambda cfg, plan: f"{len(plan.stages)} stages",
    ),
    "shape-loss": Stage(
        "Loss token ranges where each question's window changes",
        reads=(SCHEDULE,),
        compute=lambda cfg, corpus, inputs: build_stage_loss_specs(corpus, inputs[SCHEDULE], cfg.epochs),
        writes=((LOSSES, lambda windows, path: write_loss_specs(windows, path)),),
        note=lambda cfg, windows: f"{len(windows)} loss windows, one per change",
    ),
    "simulate": Stage(
        "Tabular student under the schedule",
        reads=(SCHEDULE, WEIGHTS),
        compute=lambda cfg, corpus, inputs: simulate_student(
            corpus, inputs[SCHEDULE], inputs[WEIGHTS], cfg.stage_config(StudentConfig, seed=stage_seed(cfg.seed, "simulate"))
        ),
        writes=((TRACE, lambda trace, path: write_trace(trace, path)),),
        note=lambda cfg, trace: (
            f"final loss {trace.epoch_losses[-1]:.4f}, mean scored weight"
            f" {_weight(trace.scored_weight_means[0])} -> {_weight(trace.scored_weight_means[-1])}"
        ),
    ),
}


def run_stage(name: str, cfg: PipelineConfig) -> int:
    """Parse the corpus, read the stage's inputs, compute, word the note; then
    create --out, write every file to a .tmp sibling, and os.replace each into
    place. A stage that fails leaves no .tmp, and no directory it made for
    --out unless a move failed; a failed move can leave the stage's earlier
    files replaced."""
    stage = STAGES[name]
    path = Path(cfg.corpus)
    if not path.exists():
        raise FileNotFoundError(f"corpus not found: {path}")
    corpus = parse_corpus(path, strict=not cfg.lenient)
    out = Path(cfg.out)
    inputs = {file: READERS[file](out / file, corpus) for file in stage.reads}
    result = stage.compute(cfg, corpus, inputs)
    note = stage.note(cfg, result)  # before any write: assess's total can overflow
    made = []  # the directories mkdir creates, deepest first
    if stage.writes:
        made = list(itertools.takewhile(lambda d: not d.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
    tmps = [out / (file + ".tmp") for file, _ in stage.writes]
    try:
        for (_, write), tmp in zip(stage.writes, tmps):
            write(result, tmp)
        for (file, _), tmp in zip(stage.writes, tmps):
            os.replace(tmp, out / file)
    finally:  # a moved .tmp is gone already
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        for directory in itertools.takewhile(lambda d: not any(d.iterdir()), made):
            directory.rmdir()
    print(f"[{name}] wrote {out / stage.writes[0][0]} ({note})" if stage.writes else f"[{name}] {note}")
    return 0


def _command(name: str):
    def command(cfg: PipelineConfig) -> int:
        return run_stage(name, cfg)

    files = ", ".join(file for file, _ in STAGES[name].writes)
    command.__doc__ = f"{STAGES[name].summary} -> {files}." if files else f"{STAGES[name].summary}."
    return command


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run every stage in order (the student too with --simulate).

    The stages share the persisted artifacts, so a full run and
    stage-by-stage runs produce identical outputs."""
    for name in STAGES:
        if name != "simulate" or cfg.simulate:
            COMMANDS[name](cfg)  # a stage raises on failure
    return 0


COMMANDS = {name: _command(name) for name in STAGES}
# pipebench/traced_cli.py wraps each stage command under its cmd_* name
cmd_validate, cmd_weigh, cmd_assess, cmd_cluster, cmd_schedule, cmd_shape_loss, cmd_simulate = COMMANDS.values()
COMMANDS["run"] = run_pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1) from None


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --bet is not taken for --beta, so a
    # new flag cannot change what an existing prefix meant.
    parser = _Parser(
        prog="cotpace",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")
    for name, fn in COMMANDS.items():
        summary = fn.__doc__.splitlines()[0] if fn.__doc__ else None
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="INI config file")
        for f in _KNOBS.values():
            if f.type == "bool":
                kind = {"action": "store_true"}
            else:
                kind = {"type": _converter(f), "metavar": f.metadata["metavar"]}
            p.add_argument(_flag(f), dest=f.name, default=None, help=f.metadata["help"], **kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.error("no command given")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = make_config(args)
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, OverflowError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
