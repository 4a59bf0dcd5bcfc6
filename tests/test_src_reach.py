"""src/cotpace holds only what a cotpace command runs: reference
implementations the tests compare against live in tests/oracles.py.

A call trace of a few commands must reach every public function and method
defined with def in the package, apart from the names in UNREACHED."""
from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import cotpace
from cotpace.cli import main
from cotpace.corpus import write_corpus
from cotpace.synth import make_arith_corpus

PACKAGE = Path(cotpace.__file__).parent

# Public names no command reaches, each with its reason. A module name
# stands for every function in it.
UNREACHED = {
    "accel.active_backend": "pipebench's run header reads it",
    "corpus.write_corpus": "writes the corpora the tests and pipebench generate",
    "corpus.question_to_record": "write_corpus's record layout",
    "synth": "the corpus generators for the tests and pipebench",
    "cli.console_main": "the installed entry point; the trace calls main",
}


def _public_defs() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of each public module-level function and
    class method -> its dotted name. The first line is that of the first
    decorator, as in the function's code object."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                found = [(node, "")]
            elif isinstance(node, ast.ClassDef):
                found = [(n, node.name + ".") for n in node.body if isinstance(n, ast.FunctionDef)]
            else:
                continue
            for fn, owner in found:
                if not fn.name.startswith("_"):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    defs[(str(path), first, fn.name)] = f"{path.stem}.{owner}{fn.name}"
    return defs


def test_every_public_function_in_src_is_reached_by_a_command(tmp_path, capsys):
    # no step_spans and no embeddings, so segment_steps and embed_question run
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(make_arith_corpus(6, seed=3), corpus)
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    for rec in records:
        del rec["step_spans"], rec["embedding"]
    corpus.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    config = tmp_path / "lenient.ini"
    config.write_text("lenient = yes\n")
    run = [
        "run", "--simulate", "--corpus", str(corpus), "--out", str(tmp_path / "out"), "--seed", "1",
        "--weight-epochs", "1", "--restarts", "1", "--epochs", "4",
    ]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        codes = [
            main(run),
            main([*run, "--synthetic-logprobs", "1"]),
            main(["validate", "--config", str(config), "--corpus", str(corpus), "--seed", "1"]),
            main(["run", "--no-such-flag"]),
        ]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0, 0, 1], capsys.readouterr().err
    defs = _public_defs()
    exempt = {name for name in defs.values() if name in UNREACHED or name.split(".")[0] in UNREACHED}
    assert [n for n in UNREACHED if not any(e == n or e.startswith(n + ".") for e in exempt)] == []
    missed = sorted(name for key, name in defs.items() if key not in reached and name not in exempt)
    assert missed == [], f"no command reaches {missed}: move each to tests/oracles.py, delete it, or name it in UNREACHED"
