"""Benchmark of the misobc package: certify, simulate and cold-CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify|simulate|cli|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

Each workload runs in fresh processes started from this one (see
``workloads.py``).  Set-up time is the time from starting a workload
process until it has imported what it needs and built its inputs; it is
taken over several fresh processes and reported as the median.  The last
of them then runs the workload: an untimed warm-up operation, whole
cycles of operations until ``--seconds`` have passed, and finally the
first timed operation again, untimed, whose output digest must match
byte for byte.  Every operation's output is checked at the tolerances
of the acceptance gate; a failed check or a mismatch counts as a failed
operation.

With ``--trace 0`` the end-to-end metrics are printed: ``op_s`` (the
mean over the workload's operation kinds of the median wall time per
kind), ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` untraced
and traced cycles alternate; the traced ones record spans around calls
into the package's public functions (``tracing.py``) and the per-layer
metrics are printed.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark measures only its own processes, with
``time.perf_counter``, ``resource.getrusage`` and ``tracemalloc``.  It
does no system-wide tracing and drops no caches.  ``--smoke`` runs the
same code at tiny sizes, for ``test_smoke.py``.

Exit codes: 0 after a complete run (check ``correct`` for the verdict),
1 if a workload process failed, 2 if the checkout holds no ``src/misobc``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 5
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"  # numerical code stays single-threaded, below nproc
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record(args, env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": SIZES["smoke" if args.smoke else "full"],
        "setup_spawns": SETUP_SPAWNS if args.trace == 0 else 1,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {var: env[var] for var in THREAD_VARS},
    }


def run_workload(name: str, args, env: dict, record: dict) -> dict:
    """Time the set-ups, run the last set-up's process to the end, and
    return its result with the set-up times added."""
    work = OUT / f"work-{name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = {"workload": name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "size": "smoke" if args.smoke else "full",
           "root": str(ROOT), "out": str(OUT), "work": str(work),
           "env": dict(record, workload=name)}
    spawns = SETUP_SPAWNS if args.trace == 0 else 1
    setups = []
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        for i in range(spawns):
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
            try:
                ready = proc.stdout.readline()
                setups.append(perf_counter() - start)
                if ready.strip() != "ready":
                    raise BenchError(f"{name}: workload process failed during set-up")
                last = i == spawns - 1
                out, _ = proc.communicate("go\n" if last else "exit\n",
                                          timeout=max(deadline - perf_counter(), 1.0))
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            if proc.returncode != 0:
                raise BenchError(f"{name}: workload process exited with {proc.returncode}")
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{name}: workload did not finish in {RUN_TIMEOUT_S:g} s") from err
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setups"] = len(setups)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return result["layers"]
    return {
        "op_s": {"value": result["op_s"], "unit": "s"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def report(name: str, result: dict, metrics: dict, trace: int) -> None:
    """Human-readable lines; the JSON line that follows is the machine result."""
    print(f"## {name}")
    if name != "certify":  # certify's two sweeps are reported apart below
        print(f"{name}_s = {result['median_s']:.6g} s (median of {result['ops']} timed ops)")
    for kind, k in result["kinds"].items():
        print(f"  {kind}_s = {k['median_s']:.6g} s (median of {k['count']})")
    print(f"fail_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    if trace:
        print(f"# {result['traced_ops']} traced ops; spans in {result['trace_file']}")
    else:
        print(f"# setup_s is the median of {result['setups']} set-ups")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (5 grid points, one scheme configuration), "
                             "for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "misobc" / "cli.py").is_file():
        print(f"perfbench: no misobc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    record = env_record(args, env)
    print("# misobc benchmark: measures only its own processes (perf_counter, "
          "getrusage, tracemalloc); no system-wide tracing, no cache dropping")
    for key, value in record.items():
        print(f"# {key}: {json.dumps(value)}")

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args, env, record)
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        metrics = metrics_of(result, args.trace)
        report(name, result, metrics, args.trace)
        print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
