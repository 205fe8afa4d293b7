"""Time cold command-line runs: for each ``misobc`` argv, the median wall
time and the median max RSS over N interleaved cold runs of
``python -m misobc.cli``, for one source tree or two in alternation.
Standard library only.

    python tools/cold_start.py [--runs N] [--tree DIR [--tree DIR]]
                               [--command "ARGS" ...]

Each run is a fresh interpreter with ``PYTHONPATH=<tree>/src``, started in
a scratch directory (``region`` writes its files there), with stdout and
stderr discarded; its wall time runs from the fork to the reap, and its
max RSS is what ``os.wait4`` reports for it.  Linux counts the resident
set of the process that forks a child into the child's max RSS, so each
run is forked by a small launcher, an interpreter started with ``-S``,
not by this script, whose size depends on what runs it.  Round r runs
each command once per tree, the first tree first in even rounds and last
in odd ones.  The default tree is the checkout that holds this file; the
default commands are the README's cold-run table at 10^5 samples (write
``--command=--help`` for a command that starts with a dash).  The
environment is passed on as it is, so set ``PYTHONDONTWRITEBYTECODE=1``
to time runs that compile the package.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SAMPLES = "--samples 100000"
COMMANDS = (
    "--help",
    "capacity --no-such-flag",
    "rd --mode waterfill --const-sigma2 4 --budget 1",
    "rd --mode suboptimal --const-sigma2 4 --budget 1",
    "gap --distortion 2 --power 10",
    "simulate --n 32 --power 0.1",
    f"capacity --quantity c21 --power 10 {SAMPLES}",
    f"rq --power 10 --workers 2 {SAMPLES}",
    f"region --power 10 {SAMPLES}",
    f"gap --power 10 {SAMPLES}",
    "simulate --n 32 --power 10",
)


# Forks and execs ``python <args>`` with stdout and stderr discarded, and
# prints its exit code, the wall seconds from the fork to the reap and its
# max RSS in KiB.
LAUNCHER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def cold_run(tree: Path, argv: list[str], cwd: str) -> tuple[int, float, float]:
    """Exit code, wall seconds and max RSS in MB of one cold
    ``python -m misobc.cli`` run of ``argv`` against ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, "-m", "misobc.cli", *argv],
                         cwd=cwd, env=env, capture_output=True, text=True, check=True).stdout
    code, wall, maxrss = out.split()
    return int(code), float(wall), int(maxrss) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(trees: list[Path], commands: list[str], runs: int) -> dict:
    """``{(command, tree index): [(exit code, wall s, max RSS MB), ...]}``
    over ``runs`` interleaved rounds."""
    results = {(c, t): [] for c in commands for t in range(len(trees))}
    with tempfile.TemporaryDirectory() as cwd:
        for r in range(runs):
            order = list(range(len(trees)))[::1 if r % 2 == 0 else -1]
            for command in commands:
                for t in order:
                    results[command, t].append(cold_run(trees[t], shlex.split(command), cwd))
    return results


def table(trees: list[Path], commands: list[str], results: dict) -> str:
    """A markdown table: per command and tree, the exit codes seen, the
    median wall time in ms and the median max RSS in MB."""
    head = "| command |" + "".join(f" exit | ms | MB ({tree}) |" for tree in trees)
    lines = [head, "| --- |" + " --- | --- | --- |" * len(trees)]
    for command in commands:
        cells = []
        for t in range(len(trees)):
            codes, walls, rss = zip(*results[command, t])
            exits = "/".join(str(c) for c in sorted(set(codes)))
            cells.append(f" {exits} | {statistics.median(walls) * 1e3:.0f} | "
                         f"{statistics.median(rss):.1f} |")
        lines.append(f"| `{command}` |" + "".join(cells))
    return "\n".join(lines)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="rounds (default 9)")
    parser.add_argument("--tree", type=Path, action="append",
                        help="source checkout, at most two (default this one)")
    parser.add_argument("--command", action="append",
                        help="misobc arguments, one string (default the README's set)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.tree or [Path(__file__).parent.parent]]
    if len(trees) > 2 or args.runs < 1:
        parser.error("give one or two trees and at least one run")
    commands = args.command or list(COMMANDS)
    print(table(trees, commands, measure(trees, commands, args.runs)))


if __name__ == "__main__":
    main(sys.argv[1:])
