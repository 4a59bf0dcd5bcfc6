"""End-to-end benchmark of the cotpace pipeline, through its CLI.

    python3 pipebench/run.py --workload bundled --seed 1 --seconds 40 --trace 0

Run it from the repository root. The program is imported from `src/` through
PYTHONPATH, so nothing has to be installed. The load is a closed loop: one
client runs one pipeline at a time, each CLI invocation in its own process,
and the next process starts only when the previous one has exited.

Workloads (`--seed` makes the inputs; the program sees only files written
here):

  bundled   `cotpace run --simulate` on the packaged 50-question corpus with
            the default config: 200 weight epochs x 3 restarts x 50 questions.
            Trainer-bound; the README path.
  keypoint  `cotpace run --simulate --synthetic-logprobs SEED
            --weight-epochs 100` on make_keypoint_corpus(100, SEED): the same
            trainer on fixed-length rationales whose key tokens are known, so
            weighting.keypoint_auc shows a faster trainer that learns worse.
  replan    make_arith_corpus(2000, SEED) plus seeded uniform weights, then
            assess, cluster, schedule, shape-loss and simulate as separate
            commands: the downstream stages re-run from persisted artifacts,
            with no trainer work.

--trace 0 runs pipelines untraced while the next one is expected to end
within --seconds (at least one), checks every one, and prints the end-to-end
metrics:

  pipeline_s          wall time from launching the CLI to its exit, summed
                      over the invocations of one pipeline (median)
  setup_s             interpreter start plus `import cotpace.cli` (median of
                      SETUP_PROBES launches, half before the pipelines and
                      half after)
  peak_rss_mb         largest resident set of any pipeline process
  out_mb              bytes the program wrote to --out
  student_nll         mean negative log-likelihood per rationale token of the
                      final simulated student (trace.json final_token_probs),
                      over every token of the corpus

Runs that exit non-zero or fail a check are counted in `failed`.

--trace 1 runs one untraced and one traced pipeline (pipebench/traced_cli.py
wraps each module's public functions), checks that both wrote byte-identical
artifacts, and prints the per-layer metrics, the self time of every layer
and the tracing overhead. One of them, weighting.keypoint_auc, is the ranking
AUC of the rationale tokens that spell the answer (the planted key codes on
keypoint) over all other tokens, in weights.jsonl. It means something only on
keypoint: the bundled trainer gives every token nearly the same weight, and
on replan the weights are the benchmark's own uniform draws, so there it is a
chance-level control. It is printed on --trace 0 runs too.

A layer's self time is the time inside its spans that no child span covers;
its I/O functions count toward it. What each layer's metrics should move:

  weighting.*            pipeline_s on bundled and keypoint, not on replan;
                         student_nll and weighting.keypoint_auc show quality
  selection.*, accel.*,  pipeline_s on replan; under 0.5% of bundled, where
  schedule.*             the prediction is no change
  loss_shaping.*         pipeline_s and peak_rss_mb on replan, out_mb on all
  corpus.*, difficulty.* pipeline_s on replan (one parse per subcommand)
  cli.*                  pipeline_s on replan

Every line but the last is for people. The last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"
ARTIFACTS = (
    "weights.jsonl",
    "difficulty.jsonl",
    "clusters.json",
    "schedule.json",
    "losses.jsonl",
    "trace.json",
)
REPLAN_STAGES = ("assess", "cluster", "schedule", "shape-loss", "simulate")
SETUP_PROBES = 6
END_TO_END = ("pipeline_s", "setup_s", "peak_rss_mb", "out_mb", "student_nll")
# The per-layer metrics of the final line: those measured on every workload.
# The trainer's own time and the validate and weigh stages do not run on
# replan; they are printed above the final line.
PER_LAYER = (
    "weighting.visits",
    "weighting.io_s",
    "weighting.self_s",
    "weighting.keypoint_auc",
    "selection.ftgp_s",
    "selection.ftgp_calls",
    "selection.candidates",
    "selection.admitted",
    "selection.admit_ratio",
    "selection.increments_s",
    "selection.self_s",
    "accel.greedy_admit_s",
    "accel.greedy_admit_calls",
    "accel.kmeans_labels_s",
    "schedule.plan_s",
    "schedule.self_s",
    "schedule.stages",
    "schedule.io_s",
    "loss_shaping.specs_s",
    "loss_shaping.shape_calls",
    "loss_shaping.simulate_s",
    "loss_shaping.student_epoch_ms",
    "loss_shaping.io_s",
    "loss_shaping.losses_bytes",
    "loss_shaping.self_s",
    "corpus.parse_s",
    "corpus.parse_calls",
    "difficulty.table_s",
    "difficulty.io_s",
    "difficulty.self_s",
    "cli.assess_s",
    "cli.cluster_s",
    "cli.schedule_s",
    "cli.shape_loss_s",
    "cli.simulate_s",
    "cli.self_s",
    "trace.pipeline_s",
    "trace.overhead_s",
)
# Every process must be gone well inside the 180 s a run may take.
TIME_LIMIT_S = 165.0


@dataclasses.dataclass
class Plan:
    """The inputs and CLI invocations of one pipeline of a workload."""

    corpus: Path
    inputs: dict[str, bytes]  # files placed in --out before the first command
    commands: list[list[str]]  # cotpace arguments; --corpus and --out are appended
    artifacts: tuple[str, ...]


@dataclasses.dataclass
class Pipeline:
    """One pipeline as run: its timings, its checks and what it wrote."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    out_bytes: int = 0
    digest: str = ""
    final_loss: float | None = None
    student_nll: float | None = None
    auc: float | None = None


# --- inputs ------------------------------------------------------------------


def plan_bundled(inputs: Path, seed: int) -> Plan:
    corpus = inputs / "corpus.jsonl"
    shutil.copyfile(SRC / "cotpace" / "data" / "synthetic50.jsonl", corpus)
    commands = [["run", "--simulate", "--seed", str(seed)]]
    return Plan(corpus, {}, commands, ARTIFACTS + ("weight_model.json",))


def plan_keypoint(inputs: Path, seed: int, n: int = 100, weight_epochs: int = 100) -> Plan:
    from cotpace.corpus import write_corpus
    from cotpace.synth import make_keypoint_corpus

    corpus = inputs / "corpus.jsonl"
    write_corpus(make_keypoint_corpus(n, seed=seed), corpus)
    command = ["run", "--simulate", "--synthetic-logprobs", str(seed)]
    command += ["--weight-epochs", str(weight_epochs), "--seed", str(seed)]
    return Plan(corpus, {}, [command], ARTIFACTS + ("weight_model.json",))


def plan_replan(inputs: Path, seed: int, n: int = 2000) -> Plan:
    import numpy as np

    from cotpace.corpus import write_corpus
    from cotpace.synth import make_arith_corpus
    from cotpace.weighting import write_weights

    corpus = inputs / "corpus.jsonl"
    questions = make_arith_corpus(n, seed=seed)
    write_corpus(questions, corpus)
    rng = np.random.default_rng(seed)
    weights = {q.id: rng.uniform(0.0, 1.0, size=q.n_tokens) for q in questions.questions}
    write_weights(weights, inputs / "weights.jsonl")
    commands = [[stage, "--seed", str(seed)] for stage in REPLAN_STAGES]
    commands[-1] += ["--epochs", "20"]
    return Plan(
        corpus,
        {"weights.jsonl": (inputs / "weights.jsonl").read_bytes()},
        commands,
        ARTIFACTS,
    )


PLANS = {"bundled": plan_bundled, "keypoint": plan_keypoint, "replan": plan_replan}


# --- processes ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs program processes through pipebench/launcher.py, one at a time.

    Start it before this process imports numpy or reads any artifact: Linux
    counts the resident set of the spawning process toward a program's
    ru_maxrss, and the launcher stays small."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline  # a time.monotonic value; later processes are killed
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
        )

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float, int]:
        """Returns (exit code, wall seconds, CPU seconds, peak RSS in KiB)."""
        timeout = self.deadline - time.monotonic()
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        r = json.loads(reply)
        return r["code"], r["wall_s"], r["cpu_s"], r["maxrss_kb"]

    def close(self) -> None:
        """Ends the launcher once its current process, if any, has ended."""
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def measure_setup(launcher: Launcher, work: Path, probes: int) -> list[float]:
    """Launch times of `import cotpace.cli`."""
    times = []
    for _ in range(probes):
        code, wall, _, _ = launcher.run([sys.executable, "-c", "import cotpace.cli"], work / "setup.log")
        if code != 0:
            raise RuntimeError(f"`import cotpace.cli` exited {code}; see {work / 'setup.log'}")
        times.append(wall)
    return times


def run_pipeline(launcher: Launcher, plan: Plan, out: Path, runner) -> Pipeline:
    """Run every command of plan into a fresh out, then check what it wrote.

    runner(i) gives the argv prefix of the i-th command."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    for name, data in plan.inputs.items():
        (out / name).write_bytes(data)
    result = Pipeline()
    for i, args in enumerate(plan.commands):
        argv = runner(i) + args + ["--corpus", str(plan.corpus), "--out", str(out)]
        log = out.with_name(f"{out.name}.{i}.log")
        code, wall, cpu, rss = launcher.run(argv, log)
        result.wall_s += wall
        result.cpu_s += cpu
        result.peak_rss_kb = max(result.peak_rss_kb, rss)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            result.problems.append(f"`cotpace {args[0]}` exited {code}: {' '.join(tail)}")
            return result
    check_outputs(plan, out, result)
    return result


# --- checks ------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def key_token_auc(questions: list[dict], weights: dict[str, list[float]]) -> float:
    """Probability that a rationale token spelling (part of) the answer
    outranks any other token, ties counting one half; pooled over the
    corpus as in acceptance criterion 6."""
    import numpy as np

    keys: list[float] = []
    others: list[float] = []
    for q in questions:
        answer = set(q["answer"].split("-"))
        for token, w in zip(q["rationale_tokens"], weights[q["id"]]):
            (keys if token in answer else others).append(w)
    ref = np.sort(np.asarray(others))
    pos = np.asarray(keys)
    below = np.searchsorted(ref, pos, side="left")
    tied = np.searchsorted(ref, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (pos.size * ref.size))


def check_schedule(doc: dict, ids: set[str]) -> list[str]:
    """Acceptance criterion 4: dH <= dD + 1e-9 before the horizon, input-step
    counts never increase, and every count is zero from the horizon on."""
    problems = []
    horizon = int(doc["params"]["horizon"])
    previous = None
    for rec in doc["stages"]:
        t, counts = rec["t"], rec["c"]
        if set(counts) != ids:
            problems.append(f"schedule stage {t} does not cover the corpus")
            continue
        if t < horizon and rec["delta_H"] > rec["delta_D"] + 1e-9:
            problems.append(f"schedule stage {t}: delta_H {rec['delta_H']} > delta_D {rec['delta_D']}")
        if previous is not None and any(counts[q] > previous[q] for q in ids):
            problems.append(f"schedule stage {t}: an input-step count increased")
        if t >= horizon and any(counts.values()):
            problems.append(f"schedule stage {t}: non-zero input steps at or past the horizon")
        previous = counts
    return problems


def check_outputs(plan: Plan, out: Path, result: Pipeline) -> None:
    missing = [name for name in plan.artifacts if not (out / name).is_file()]
    if missing:
        result.problems.append(f"missing artifacts: {', '.join(missing)}")
        return
    for name, data in plan.inputs.items():
        if (out / name).read_bytes() != data:
            result.problems.append(f"the program rewrote its input {name}")
    questions = read_jsonl(plan.corpus)
    ids = {q["id"] for q in questions}
    weights = {rec["id"]: rec["weights"] for rec in read_jsonl(out / "weights.jsonl")}
    if set(weights) != ids:
        result.problems.append("weights.jsonl does not hold one vector per question")
        return
    for q in questions:
        w = weights[q["id"]]
        if len(w) != len(q["rationale_tokens"]) or not all(0.0 <= v <= 1.0 for v in w):
            result.problems.append(f"weights of {q['id']}: not one value in [0, 1] per token")
            break
    result.problems += check_schedule(json.loads((out / "schedule.json").read_text()), ids)
    trace = json.loads((out / "trace.json").read_text())
    losses = trace["epoch_losses"]
    probs = [p for q in questions for p in trace["final_token_probs"][q["id"]]]
    if not losses or not all(math.isfinite(v) for v in losses):
        result.problems.append("trace.json: epoch losses missing or not finite")
    elif not all(0.0 < p <= 1.0 for p in probs):
        result.problems.append("trace.json: a final token probability is outside (0, 1]")
    else:
        result.final_loss = float(losses[-1])
        result.student_nll = -math.fsum(math.log(p) for p in probs) / len(probs)
    result.auc = key_token_auc(questions, weights)
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        if path.name not in plan.inputs:
            result.out_bytes += len(data)
    result.digest = digest.hexdigest()


# --- environment -------------------------------------------------------------


def environment() -> dict:
    import numpy

    from cotpace import accel

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except OSError:
        commit = ""
    source = hashlib.sha256()
    for path in sorted((SRC / "cotpace").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": accel.active_backend(),
        "numba": accel.HAVE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "commit": commit or "unknown",
        "src_sha256": source.hexdigest()[:16],
    }


# --- the two modes -----------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_runner(i: int) -> list[str]:
    return [sys.executable, "-m", "cotpace.cli"]


def end_to_end(launcher: Launcher, plan: Plan, work: Path, seconds: float) -> tuple[list[Pipeline], dict]:
    """Pipelines until the next one would end after `seconds` (at least one),
    with half the set-up probes before them and half after, so that the
    probes sample the machine over the whole run. One untimed launch first
    warms the file cache and writes the bytecode."""
    measure_setup(launcher, work, 1)
    setup = measure_setup(launcher, work, SETUP_PROBES // 2)
    runs: list[Pipeline] = []
    started = time.monotonic()
    while True:
        run = run_pipeline(launcher, plan, work / f"out{len(runs)}", untraced_runner)
        if run.digest and runs and runs[0].digest and run.digest != runs[0].digest:
            run.problems.append("artifacts differ from the first pipeline with the same seed")
        runs.append(run)
        elapsed = time.monotonic() - started
        next_end = elapsed * (len(runs) + 1) / len(runs)
        if next_end > seconds or started + 1.5 * next_end > launcher.deadline:
            break
    setup += measure_setup(launcher, work, SETUP_PROBES - SETUP_PROBES // 2)
    good = [r for r in runs if not r.problems] or runs
    metrics = {
        "pipeline_s": metric(statistics.median(r.wall_s for r in runs), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(max(r.peak_rss_kb for r in runs) * 1024 / 1e6, "MB"),
        "out_mb": metric(good[0].out_bytes / 1e6, "MB"),
        "student_nll": metric(good[0].student_nll, "nat/token"),
        "weighting.keypoint_auc": metric(good[0].auc, "ratio"),
    }
    return runs, metrics


def layer_metrics(docs: list[dict], out: Path, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, self time of every layer included, from the span
    files of one traced pipeline."""
    total: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    attrs: collections.Counter = collections.Counter()
    counts: collections.Counter = collections.Counter()
    self_s: collections.Counter = collections.Counter()
    for doc in docs:
        spans = doc["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _, extra), covered in zip(spans, child_s):
            total[name] += end - start
            calls[name] += 1
            attrs.update(extra)
            self_s[name.split(".")[0]] += end - start - covered
        counts.update(doc["counts"])
    visits = counts["weighting.visits"]
    epochs = attrs["epochs"]
    m = {
        "weighting.train_s": metric(total["weighting.train"], "s"),
        "weighting.visits": metric(visits, "count"),
        "weighting.visit_us": metric(total["weighting.train"] / visits * 1e6 if visits else 0.0, "us"),
        "weighting.io_s": metric(total["weighting.io"], "s"),
        "selection.ftgp_s": metric(total["selection.ftgp"], "s"),
        "selection.ftgp_calls": metric(calls["selection.ftgp"], "count"),
        "selection.candidates": metric(attrs["candidates"], "count"),
        "selection.admitted": metric(attrs["admitted"], "count"),
        "selection.admit_ratio": metric(attrs["admitted"] / max(1, attrs["candidates"]), "ratio"),
        "selection.increments_s": metric(total["selection.increments"], "s"),
        "accel.greedy_admit_s": metric(total["accel.greedy_admit"], "s"),
        "accel.greedy_admit_calls": metric(calls["accel.greedy_admit"], "count"),
        "accel.kmeans_labels_s": metric(total["accel.kmeans_labels"], "s"),
        "schedule.plan_s": metric(total["schedule.plan"], "s"),
        "schedule.stages": metric(attrs["stages"], "count"),
        "schedule.io_s": metric(total["schedule.io"], "s"),
        "loss_shaping.specs_s": metric(total["loss_shaping.specs"], "s"),
        "loss_shaping.shape_calls": metric(counts["loss_shaping.shape_calls"], "count"),
        "loss_shaping.simulate_s": metric(total["loss_shaping.simulate"], "s"),
        "loss_shaping.student_epoch_ms": metric(
            total["loss_shaping.simulate"] / max(1, epochs) * 1e3, "ms"
        ),
        "loss_shaping.io_s": metric(total["loss_shaping.io"], "s"),
        "loss_shaping.losses_bytes": metric((out / "losses.jsonl").stat().st_size, "bytes"),
        "corpus.parse_s": metric(total["corpus.parse"], "s"),
        "corpus.parse_calls": metric(calls["corpus.parse"], "count"),
        "difficulty.table_s": metric(total["difficulty.table"], "s"),
        "difficulty.io_s": metric(total["difficulty.io"], "s"),
    }
    for stage in ("validate", "weigh", "assess", "cluster", "schedule", "shape-loss", "simulate"):
        m[f"cli.{stage.replace('-', '_')}_s"] = metric(total[f"cli.{stage}"], "s")
    for layer in ("weighting", "selection", "accel", "schedule", "loss_shaping", "corpus", "difficulty", "cli"):
        m[f"{layer}.self_s"] = metric(self_s[layer], "s")
    m["trace.pipeline_s"] = metric(traced_s, "s")
    m["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    return m


def traced(launcher: Launcher, plan: Plan, work: Path) -> tuple[list[Pipeline], dict]:
    plain = run_pipeline(launcher, plan, work / "out_untraced", untraced_runner)
    span_files = [work / f"spans{i}.json" for i in range(len(plan.commands))]
    tracer = BENCH / "traced_cli.py"
    spanned = run_pipeline(
        launcher, plan, work / "out_traced", lambda i: [sys.executable, str(tracer), str(span_files[i])]
    )
    if plain.digest and spanned.digest and plain.digest != spanned.digest:
        spanned.problems.append("traced artifacts differ from the untraced ones")
    runs = [plain, spanned]
    if any(r.problems for r in runs):
        return runs, {}
    docs = [json.loads(path.read_text()) for path in span_files]
    metrics = layer_metrics(docs, work / "out_traced", spanned.wall_s, plain.wall_s)
    metrics["weighting.keypoint_auc"] = metric(spanned.auc, "ratio")
    return runs, metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(PLANS))
    parser.add_argument("--seed", type=int, required=True, help="makes the workload's inputs")
    parser.add_argument("--seconds", type=float, default=40.0, help="measure about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cotpace" / "cli.py").is_file():
        print(f"error: no cotpace sources under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher(time.monotonic() + TIME_LIMIT_S)
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        print("env", json.dumps(environment(), sort_keys=True))
        if work.exists():
            shutil.rmtree(work)
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        plan = PLANS[args.workload](inputs, args.seed)
        if args.trace:
            runs, metrics = traced(launcher, plan, work)
        else:
            runs, metrics = end_to_end(launcher, plan, work, args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in runs if r.problems)
    print(f"run_failures: {failed}/{len(runs)}")
    for i, r in enumerate(runs):
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(
            f"pipeline {i}: {r.wall_s:.3f} s wall, {r.cpu_s:.3f} s CPU, peak {r.peak_rss_kb / 1024:.1f} MiB,"
            f" last epoch loss {r.final_loss}, {status}"
        )
    for name, m in metrics.items():
        print(f"  {args.workload:<9} {name:<32} {m['value']!s:>24} {m['unit']}")
    published = {name: metrics[name] for name in (PER_LAYER if args.trace else END_TO_END) if name in metrics}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": published}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
