"""Command line pipeline.

Each subcommand is one pipeline stage and re-runs from the artifacts
persisted in the output directory; `run` runs them all in order.

Exit codes: 0 ok, 1 usage, 2 validation/input error, 3 numeric failure.
Config is INI-style `key = value` lines; every key is also a flag, and a
flag overrides its key.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import os
import struct
import sys
from pathlib import Path

from .corpus import CorpusError, parse_corpus
from .difficulty import (
    DifficultyError,
    compute_table,
    read_table,
    synthetic_logprobs,
    write_table,
)
from .loss_shaping import (
    LossShapingError,
    StudentConfig,
    build_stage_loss_specs,
    simulate_student,
    write_loss_specs,
    write_trace,
)
from .schedule import BudgetCurve, plan_full_schedule, read_schedule, write_schedule
from .selection import kmeans_cluster, read_clusters, write_clusters
from .weighting import (
    WeightingConfig,
    WeightingError,
    read_weights,
    save_model,
    train_weighting,
    write_weights,
)


def _knob(default, help, *, flag=None, metavar=None, stage=None, stage_field=None):
    """A PipelineConfig field. Its metadata holds the flag where it is not
    the name with dashes, the --help text, and the stage config class the
    value is copied into, under stage_field."""
    meta = {"help": help, "flag": flag, "metavar": metavar, "stage": stage, "stage_field": stage_field}
    return dataclasses.field(default=default, metadata=meta)


def _stage_knob(stage, stage_field, help):
    """A knob copied into stage's config field stage_field, whose default it takes."""
    return _knob(getattr(stage, stage_field), help, stage=stage, stage_field=stage_field)


@dataclasses.dataclass
class PipelineConfig:
    """Every pipeline knob, defined once: each field is a config key and a
    flag, and the converters, flags and stage configs derive from it. A
    knob copied into a stage config takes that config's default."""

    corpus: str = _knob("", "corpus JSONL path")
    out: str = _knob("out", "output directory (default: out)")
    seed: int | None = _knob(None, "master seed (required here or in the config)")
    lenient: bool = _knob(False, "ignore unknown corpus keys")
    synthetic_logprobs: int | None = _knob(
        None, "generate seeded logprobs instead of requiring token_logprobs", metavar="SEED"
    )
    # significance model
    alpha: float = _stage_knob(WeightingConfig, "alpha", "mask-ratio penalty")
    tau: float = _stage_knob(WeightingConfig, "tau", "relaxation temperature")
    weight_lr: float = _stage_knob(WeightingConfig, "lr", "answer-head learning rate")
    scorer_lr: float = _stage_knob(WeightingConfig, "scorer_lr", "scorer learning rate")
    head_decay: float = _stage_knob(WeightingConfig, "head_decay", "L2 shrink per update on answer-head weights")
    weight_epochs: int = _stage_knob(WeightingConfig, "epochs", "significance model epochs")
    batch_size: int = _stage_knob(WeightingConfig, "batch_size", "questions per significance model update")
    prefix_samples: int = _stage_knob(WeightingConfig, "prefix_samples", "prefix cuts sampled per question visit")
    restarts: int = _stage_knob(WeightingConfig, "restarts", "independent weighting runs, best kept")
    unmasked_weight: float = _stage_knob(WeightingConfig, "unmasked_weight", "weight of the always-visible predictor pass")
    d_embed: int = _stage_knob(WeightingConfig, "d_embed", "token embedding width")
    d_hidden: int = _stage_knob(WeightingConfig, "d_hidden", "scorer hidden width")
    # schedule and selection
    epochs: int = _stage_knob(StudentConfig, "epochs", "student epochs / schedule stages")
    t_max: int | None = _knob(None, "budget horizon (default epochs/2)")
    p: float = _knob(0.5, "budget curve exponent")
    c0_frac: float = _knob(0.3, "warm start as a fraction of total difficulty")
    delta_s: int = _knob(1, "steps removed per selection")
    n_clusters: int = _knob(5, "k-means clusters", flag="--clusters")
    beta: float = _knob(12.0, "diversity bonus")
    eps: float = _knob(0.1, "threshold decay")
    # student simulation
    student_lr: float = _stage_knob(StudentConfig, "lr", "student learning rate")
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
        """The pipeline's own checks; the weighting and student ranges are
        checked by building those configs, so every stage fails up front."""
        if not self.corpus:
            raise ValueError("no corpus given (config key 'corpus' or --corpus)")
        if self.seed is None:
            raise ValueError("a seed is required (config key 'seed' or --seed)")
        if not -(2**63) <= self.seed < 2**63:  # stage_seed packs it as a signed 64-bit key
            raise ValueError(f"seed must lie in [-2**63, 2**63 - 1], got {self.seed}")
        if self.synthetic_logprobs is not None and self.synthetic_logprobs < 0:
            raise ValueError(f"synthetic_logprobs must be >= 0, got {self.synthetic_logprobs}")
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (0.0 < self.eps < 0.5):
            raise ValueError(f"eps must lie in (0, 0.5), got {self.eps}")
        if self.p <= 0.0:
            raise ValueError(f"p must be > 0, got {self.p}")
        if not (0.0 <= self.c0_frac <= 1.0):
            raise ValueError(f"c0_frac must lie in [0, 1], got {self.c0_frac}")
        if self.t_max is not None and self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        try:  # the budget curve divides by horizon ** (p + 1)
            float(self.horizon) ** (self.p + 1.0)
        except OverflowError:
            raise ValueError(
                f"p = {self.p} is too large for the horizon {self.horizon}:"
                " horizon ** (p + 1) overflows a float"
            ) from None
        if self.delta_s < 1 or self.n_clusters < 1:
            raise ValueError("delta_s and n_clusters must be >= 1")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        for cls in (WeightingConfig, StudentConfig):
            try:
                self.stage_config(cls).validate()
            except ValueError as exc:  # say which stage's lr or epochs
                raise ValueError(f"{cls.__name__}: {exc}") from None


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
    almost always typos)."""
    text = Path(path).read_text(encoding="utf-8")
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
    if parser.has_section("pipeline"):
        for key, value in parser.items("pipeline"):
            key = key.replace("-", "_")
            if key not in _KNOBS:
                raise ValueError(f"config {path}: unknown key {key!r}")
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


def _atomic(write_fn, path: Path) -> Path:
    tmp = path.with_name(path.name + ".tmp")
    write_fn(tmp)
    os.replace(tmp, path)
    return path


def _load_corpus(cfg: PipelineConfig):
    path = Path(cfg.corpus)
    if not path.exists():
        raise FileNotFoundError(f"corpus not found: {path}")
    return parse_corpus(path, strict=not cfg.lenient)


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(cfg: PipelineConfig) -> int:
    """Parse the corpus and check every invariant."""
    corpus = _load_corpus(cfg)
    n_steps = sum(q.n_steps for q in corpus.questions)
    with_lp = sum(1 for q in corpus.questions if q.token_logprobs is not None)
    print(
        f"[validate] ok: {len(corpus)} questions, {n_steps} steps,"
        f" {with_lp} with logprobs, embedding dim {corpus.embedding_dim}"
    )
    return 0


def cmd_weigh(cfg: PipelineConfig) -> int:
    """Train the significance model -> weights.jsonl, weight_model.json."""
    corpus = _load_corpus(cfg)
    wcfg = cfg.stage_config(WeightingConfig, seed=stage_seed(cfg.seed, "weigh"))
    result = train_weighting(corpus, wcfg)
    out = _out_dir(cfg)
    _atomic(lambda p: write_weights(result.weights, p), out / "weights.jsonl")
    _atomic(lambda p: save_model(result.model, p), out / "weight_model.json")
    print(f"[weigh] wrote {out / 'weights.jsonl'} (final loss {result.epoch_losses[-1]:.4f})")
    return 0


def _run_weights(cfg: PipelineConfig, corpus):
    """The token weights assess and simulate score with: weights.jsonl from
    --out when it is there, else each question's token_weights from the
    corpus. A question with neither is weighted uniformly."""
    path = _out_dir(cfg) / "weights.jsonl"
    if path.exists():
        return read_weights(path, corpus)
    return {q.id: q.token_weights for q in corpus.questions if q.token_weights is not None}


def cmd_assess(cfg: PipelineConfig) -> int:
    """Score step difficulties -> difficulty.jsonl."""
    corpus = _load_corpus(cfg)
    logprobs = None
    if cfg.synthetic_logprobs is not None:
        logprobs = synthetic_logprobs(corpus, cfg.synthetic_logprobs)
    table = compute_table(corpus, weights=_run_weights(cfg, corpus), logprobs=logprobs)
    out = _out_dir(cfg)
    _atomic(lambda p: write_table(table, p), out / "difficulty.jsonl")
    print(f"[assess] wrote {out / 'difficulty.jsonl'} (total difficulty {table.corpus_total:.4f})")
    return 0


def cmd_cluster(cfg: PipelineConfig) -> int:
    """K-means over question embeddings -> clusters.json."""
    corpus = _load_corpus(cfg)
    embeddings = {q.id: q.embedding for q in corpus.questions}
    clusters, centroids = kmeans_cluster(embeddings, cfg.n_clusters, stage_seed(cfg.seed, "cluster"))
    out = _out_dir(cfg)
    _atomic(lambda p: write_clusters(clusters, centroids, p), out / "clusters.json")
    print(f"[cluster] wrote {out / 'clusters.json'} ({cfg.n_clusters} clusters)")
    return 0


def cmd_schedule(cfg: PipelineConfig) -> int:
    """Plan stages 0..epochs under the budget curve -> schedule.json."""
    corpus = _load_corpus(cfg)
    out = _out_dir(cfg)
    table = read_table(out / "difficulty.jsonl", corpus)
    clusters = read_clusters(out / "clusters.json", corpus)
    total = table.corpus_total
    curve = BudgetCurve.solve(
        b_total=total,
        c0=cfg.c0_frac * total,
        p=cfg.p,
        t_max=cfg.horizon,
    )
    plan = plan_full_schedule(
        corpus,
        table,
        curve,
        clusters,
        beta=cfg.beta,
        eps=cfg.eps,
        step_reduction=cfg.delta_s,
        total_stages=cfg.epochs,
    )
    _atomic(lambda p: write_schedule(plan, p), out / "schedule.json")
    print(f"[schedule] wrote {out / 'schedule.json'} ({len(plan.stages)} stages)")
    return 0


def cmd_shape_loss(cfg: PipelineConfig) -> int:
    """Loss token ranges where each question's window changes -> losses.jsonl."""
    corpus = _load_corpus(cfg)
    out = _out_dir(cfg)
    stages = read_schedule(out / "schedule.json", corpus)
    specs = build_stage_loss_specs(corpus, stages, cfg.epochs)
    _atomic(lambda p: write_loss_specs(specs, p), out / "losses.jsonl")
    print(f"[shape-loss] wrote {out / 'losses.jsonl'} ({len(specs)} loss windows, one per change)")
    return 0


def cmd_simulate(cfg: PipelineConfig) -> int:
    """Tabular student under the schedule -> trace.json."""
    corpus = _load_corpus(cfg)
    out = _out_dir(cfg)
    stages = read_schedule(out / "schedule.json", corpus)
    scfg = cfg.stage_config(StudentConfig, seed=stage_seed(cfg.seed, "simulate"))
    trace = simulate_student(corpus, stages, _run_weights(cfg, corpus), scfg)
    _atomic(lambda p: write_trace(trace, p), out / "trace.json")
    print(f"[simulate] wrote {out / 'trace.json'} (final loss {trace.epoch_losses[-1]:.4f})")
    return 0


def run_pipeline(cfg: PipelineConfig) -> int:
    """Run every stage in order (the student too with --simulate).

    The stages share the persisted artifacts, so a full run and
    stage-by-stage runs produce identical outputs."""
    for step in (cmd_validate, cmd_weigh, cmd_assess, cmd_cluster, cmd_schedule, cmd_shape_loss):
        code = step(cfg)
        if code != 0:
            return code
    if cfg.simulate:
        return cmd_simulate(cfg)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "weigh": cmd_weigh,
    "assess": cmd_assess,
    "cluster": cmd_cluster,
    "schedule": cmd_schedule,
    "shape-loss": cmd_shape_loss,
    "simulate": cmd_simulate,
    "run": run_pipeline,
}


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
    except (CorpusError, DifficultyError, LossShapingError, WeightingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
