"""Start program processes on request and report how each one ran.

    python3 pipebench/launcher.py

Reads one JSON request per line on stdin, {"argv": [...], "log": path,
"timeout": seconds}, runs argv with its output sent to log, kills it if it
outlives the timeout, and answers with one JSON line: {"code", "wall_s",
"cpu_s", "maxrss_kb"}. Exits when stdin closes.

run.py starts every program process through this one, before it grows
itself: Linux counts the resident set of the process that spawns a program
toward that program's ru_maxrss, and run.py holds corpora and artifacts
while it checks them.
"""
import json
import os
import subprocess
import sys
import threading
import time


def launch(argv: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, timeout), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = launch(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
