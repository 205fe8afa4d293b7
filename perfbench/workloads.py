"""Workload process of the misobc benchmark.

``run.py`` starts this file once per set-up it times, with the run's
settings as one JSON argument.  The process imports what its workload
needs and builds its inputs, prints ``ready``, and reads one line from
stdin: ``go`` runs the measurement and prints one JSON result line,
anything else exits.  Only the standard library is imported before the
workload's own set-up, so the time to ``ready`` is the set-up cost.

All workloads are closed loops: one operation at a time from this one
process, cycling through the workload's operation kinds.  Every
operation gets a seed not used earlier in the run, so no cache across
identical calls can stand in for the work a real invocation pays.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import struct
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent

# Sizes of the full benchmark and of the smoke mode.  Smoke shrinks the
# grid, the scheme cycle and the reference ensemble but keeps what the
# checks need to hold at the gate's tolerances: 10^6 samples for c21
# against its oracle within max(3 sigma, 0.5%), and n = 256 for the
# scheme's statistics (5% variance, 0.02 correlation).
SIZES = {
    "full": {"samples": 10**6, "ref_samples": 10**6, "grid_points": 50,
             "scheme_n": (256, 512), "scheme_power": (1.0, 10.0, 100.0),
             "cli_samples": 100_000},
    "smoke": {"samples": 10**6, "ref_samples": 10**4, "grid_points": 5,
              "scheme_n": (256,), "scheme_power": (10.0,), "cli_samples": 10_000},
}

DISTORTION = 4.0
GAP_BOUND = 1.81  # the paper's per-user gap at D = 4, as the acceptance gate checks it
ORACLE_REL_TOL = 0.005


def _floats(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


class Workload:
    """Operation kinds, and how to run, check and digest one operation.

    Subclasses do their imports and build their inputs in ``__init__``,
    which is the set-up that ``setup_s`` times.
    """

    kinds: tuple[str, ...] = ()

    def prepare(self) -> None:
        """Untimed work after set-up, such as reference values for checks."""

    def run(self, kind: str, seed: int, traced: bool):
        raise NotImplementedError

    def check(self, kind: str, out) -> list[str]:
        raise NotImplementedError

    def digest(self, kind: str, out) -> str:
        raise NotImplementedError

    def absorb(self, out, tracer) -> None:
        """Merge spans an operation recorded outside this process."""

    def after_traced_cycle(self) -> None:
        """Extra untimed probes once per traced cycle."""

    def cli_figures(self) -> dict:
        return {"interpreter_s": 0.0, "scipy_s": 0.0, "exit_code_mismatches": 0}


class Certify(Workload):
    """ratio_sweep and gap_sweep over the default grid: the paper's certificate.

    Most of the time goes to kernel evaluation (grid points x quantities
    per ensemble), then the ensemble draw and, in gap_sweep, the gap
    bisection.
    """

    def __init__(self, sizes: dict, work: Path):
        from misobc import capacity, regions

        self.capacity = capacity
        self.regions = regions
        self.grid = capacity.PowerGrid.default(num=sizes["grid_points"])
        self.samples = sizes["samples"]
        self.kinds = ("ratio_sweep", "gap_sweep")

    def prepare(self) -> None:
        self.oracle = [self.capacity.c21_oracle(p) for p in self.grid.points]

    def run(self, kind: str, seed: int, traced: bool):
        mc = self.capacity.MCConfig(samples=self.samples, seed=seed)
        if kind == "ratio_sweep":
            return self.capacity.ratio_sweep(DISTORTION, self.grid, mc)
        return self.regions.gap_sweep(DISTORTION, self.grid, mc)

    def check(self, kind: str, out) -> list[str]:
        rows = out.rows
        if len(rows) != len(self.grid.points):
            return [f"{kind}: {len(rows)} rows for {len(self.grid.points)} grid points"]
        problems = []
        for r, ref in zip(rows, self.oracle):
            if kind == "ratio_sweep" and r.ratio > 1.0 + 3.0 * r.ratio_stderr:
                problems.append(f"ratio {r.ratio!r} > 1 + 3 sigma at P = {r.power:g}")
            if kind == "gap_sweep" and r.tau > GAP_BOUND + 3.0 * r.tau_stderr:
                problems.append(f"tau {r.tau!r} > {GAP_BOUND} + 3 sigma at P = {r.power:g}")
            tol = max(3.0 * r.c21.stderr, ORACLE_REL_TOL * ref)
            if abs(r.c21.value - ref) > tol:
                problems.append(f"c21 {r.c21.value!r} vs oracle {ref!r} at P = {r.power:g}")
        return problems

    def digest(self, kind: str, out) -> str:
        h = hashlib.sha256()
        for r in out.rows:
            if kind == "ratio_sweep":
                h.update(_floats((r.power, r.rq.value, r.rq.stderr, r.c21.value,
                                  r.c21.stderr, r.ratio, r.ratio_stderr)))
            else:
                h.update(_floats((r.power, r.c21.value, r.c21.stderr, r.c22d.value,
                                  r.c22d.stderr, r.tau, r.tau_stderr)))
        return h.hexdigest()


class Simulate(Workload):
    """run_scheme, summary, check_stats and a dump round trip per operation.

    One power per run, so kernels and regions do almost nothing; the
    reference ensemble draws dominate.  Cycling n over 256 and 512
    quadruples the grids and varies the working set.
    """

    def __init__(self, sizes: dict, work: Path):
        from misobc import capacity, scheme

        self.capacity = capacity
        self.scheme = scheme
        self.samples = sizes["ref_samples"]
        self.configs = {f"n{n}_P{p:g}": (n, p) for n in sizes["scheme_n"]
                        for p in sizes["scheme_power"]}
        self.kinds = tuple(self.configs)

    def run(self, kind: str, seed: int, traced: bool):
        scheme = self.scheme
        n, power = self.configs[kind]
        cfg = scheme.SchemeConfig(n=n, power=power, distortion=DISTORTION, seed=seed)
        t = scheme.run_scheme(cfg, ref_mc=self.capacity.MCConfig(samples=self.samples, seed=seed))
        report = scheme.summary(t)
        problems = scheme.check_stats(t)
        buf = io.BytesIO()
        scheme.dump_transcript(t, buf)
        blob = buf.getvalue()
        back = scheme.read_transcript_dump(io.BytesIO(blob))
        return t, report, problems, blob, back

    def check(self, kind: str, out) -> list[str]:
        t, _, problems, _, back = out
        problems = list(problems)
        if not t.audit.ok():
            problems.append("causality audit failed")
        for name in ("u1", "u2", "x1", "x2"):
            sent = getattr(t, name).astype("<c16").tobytes()
            if back[name].tobytes() != sent:
                problems.append(f"dump round trip changed {name}")
        if back["quant_step"] != t.quant_step:
            problems.append("dump round trip changed the quantizer step")
        if back["quant_indices"].astype("<i8").tobytes() != t.quant_indices.astype("<i8").tobytes():
            problems.append("dump round trip changed the quantizer indices")
        return problems

    def digest(self, kind: str, out) -> str:
        _, report, _, blob, _ = out
        return hashlib.sha256(blob + json.dumps(report, sort_keys=True).encode()).hexdigest()


class Cli(Workload):
    """Cold ``python -m misobc.cli`` invocations with small compute.

    Interpreter start and imports dominate, so this is where per-call
    overhead shows and where the numerical work of the other workloads
    hardly matters.  ``rq --workers 2`` is the only threaded path.
    """

    def __init__(self, sizes: dict, work: Path):
        import misobc.cli  # noqa: F401  (the set-up this workload times)

        self.work = work
        self.samples = str(sizes["cli_samples"])
        region_dir = str(work / "region")
        # name: (arguments before the seed, takes --samples/--seed, expected exit code)
        self.commands = {
            "capacity": (["capacity", "--quantity", "c21", "--power", "10"], True, 0),
            "region": (["region", "--power", "10", "--output-dir", region_dir], True, 0),
            "rd": (["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1"], True, 0),
            "simulate": (["simulate", "--n", "32", "--power", "10"], True, 0),
            "rq_workers2": (["rq", "--power", "10", "--workers", "2"], True, 0),
            "simulate_abort": (["simulate", "--n", "32", "--power", "0.1"], True, 3),
            "gap_abort": (["gap", "--distortion", "2", "--power", "10"], True, 3),
            "bad_flag": (["capacity", "--no-such-flag"], False, 2),
        }
        self.kinds = tuple(self.commands)
        self.interpreter_s: list[float] = []
        self.scipy_s: list[float] = []
        self.mismatches = 0

    def argv(self, kind: str, seed: int) -> list[str]:
        args, mc_flags, _ = self.commands[kind]
        return args + (["--samples", self.samples, "--seed", str(seed)] if mc_flags else [])

    def run(self, kind: str, seed: int, traced: bool):
        if traced:
            spans_path = self.work / f"cli-trace-{seed}.json"
            cmd = [sys.executable, str(HERE / "cli_shim.py"), str(spans_path), str(seed)]
        else:
            spans_path = None
            cmd = [sys.executable, "-m", "misobc.cli"]
        start = perf_counter()
        proc = subprocess.run(cmd + self.argv(kind, seed), capture_output=True,
                              cwd=self.work, timeout=120)
        return proc, spans_path, (seed, start, perf_counter())

    def check(self, kind: str, out) -> list[str]:
        proc = out[0]
        expected = self.commands[kind][2]
        if proc.returncode != expected:
            self.mismatches += 1
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"{kind}: exit code {proc.returncode}, expected {expected} {tail}"]
        return []

    def digest(self, kind: str, out) -> str:
        proc = out[0]
        return hashlib.sha256(b"%d\n" % proc.returncode + proc.stdout).hexdigest()

    def absorb(self, out, tracer) -> None:
        """Merge the shim's spans, adding the child's start-up (spawn until
        the shim runs) and tear-down (shim done until exit) as spans."""
        _, spans_path, (op, spawned, exited) = out
        record = json.loads(spans_path.read_text())
        spans_path.unlink()
        for name, start, end in (("cli.startup", spawned, record["started"]),
                                 ("cli.teardown", record["finished"], exited)):
            record["spans"].append({"id": len(record["spans"]), "parent": None,
                                    "name": name, "start": start, "end": end, "op": op})
        tracer.absorb(record)

    def after_traced_cycle(self) -> None:
        """Time a bare interpreter and the scipy share of importing misobc.cli."""
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        self.interpreter_s.append(perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import misobc.cli"],
                              capture_output=True, check=True, timeout=60)
        self.scipy_s.append(_scipy_import_s(proc.stderr.decode()))

    def cli_figures(self) -> dict:
        med = (lambda xs: statistics.median(xs) if xs else 0.0)
        return {"interpreter_s": med(self.interpreter_s), "scipy_s": med(self.scipy_s),
                "exit_code_mismatches": self.mismatches}


def _scipy_import_s(importtime_log: str) -> float:
    """Sum of the self times of scipy modules in a ``-X importtime`` log."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(fields[0])
    return total_us / 1e6


WORKLOADS = {"certify": Certify, "simulate": Simulate, "cli": Cli}


class Loop:
    """Runs operations, checks them and keeps their wall times."""

    def __init__(self, workload, seed: int, tracer):
        self.w = workload
        self.base_seed = seed * 100_000
        self.next_index = 0
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.walls = {"untraced": {k: [] for k in workload.kinds},
                      "traced": {k: [] for k in workload.kinds}}
        self.traced_op_walls = {}
        self.first = None

    def op(self, kind: str, seed: int | None = None, traced: bool = False, timed: bool = True):
        if seed is None:
            seed = self.base_seed + self.next_index
            self.next_index += 1
        if traced:
            self.tracer.op = seed
        self.attempted += 1
        try:
            start = perf_counter()
            out = self.w.run(kind, seed, traced)
            wall = perf_counter() - start
            problems = self.w.check(kind, out)
            digest = self.w.digest(kind, out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if traced:
            self.w.absorb(out, self.tracer)
        if problems:
            self.failed += 1
            for line in problems[:5]:
                print(f"perfbench: {kind} seed {seed}: {line}", file=sys.stderr)
        if traced:
            self.traced_op_walls[seed] = wall
        if timed:
            self.walls["traced" if traced else "untraced"][kind].append(wall)
            if self.first is None:
                self.first = (kind, seed, digest)
        return digest

    def cycle(self, traced: bool) -> None:
        if traced:
            self.tracer.install()
        try:
            for kind in self.w.kinds:
                self.op(kind, traced=traced)
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.w.after_traced_cycle()

    def op_s(self, which: str) -> float:
        """Mean over operation kinds of the median wall time per kind."""
        return statistics.fmean(statistics.median(v) for v in self.walls[which].values())


def measure(workload: Workload, cfg: dict) -> dict:
    from tracing import Tracer, layer_metrics  # after set-up, so set-up excludes it

    trace = bool(cfg["trace"])
    tracer = Tracer()
    loop = Loop(workload, cfg["seed"], tracer)
    workload.prepare()
    loop.op(workload.kinds[0], timed=False)  # warm-up
    start = perf_counter()
    cycles = 0
    # Whole cycles only, so every kind is measured and traced counts per
    # operation repeat exactly; trace runs alternate untraced and traced.
    # A cycle starts only if it is expected to end within the run time.
    while True:
        cycle_start = perf_counter()
        loop.cycle(traced=trace and cycles % 2 == 1)
        cycles += 1
        now = perf_counter()
        if now + (now - cycle_start) - start > cfg["seconds"] and (not trace or cycles >= 2):
            break
    kind, seed, digest = loop.first
    again = loop.op(kind, seed=seed, timed=False)
    if again is not None and again != digest:
        loop.failed += 1
        print(f"perfbench: {kind} seed {seed} is not deterministic", file=sys.stderr)

    result = {"attempted": loop.attempted, "failed": loop.failed,
              "kinds": {k: {"median_s": statistics.median(v), "count": len(v)}
                        for k, v in loop.walls["untraced"].items()},
              "op_s": loop.op_s("untraced"),
              "median_s": statistics.median(w for v in loop.walls["untraced"].values() for w in v),
              "ops": sum(len(v) for v in loop.walls["untraced"].values())}
    if trace:
        spans = tracer.export()
        result["layers"] = layer_metrics(
            spans, tracer.counts, tracer.peak_alloc_bytes, loop.traced_op_walls,
            loop.op_s("traced") / loop.op_s("untraced") - 1.0, workload.cli_figures())
        result["traced_ops"] = len(loop.traced_op_walls)
        trace_file = Path(cfg["out"]) / f"trace-{cfg['workload']}-{cfg['seed']}.json"
        trace_file.write_text(json.dumps({"env": cfg["env"], "counts": dict(tracer.counts),
                                          "spans": spans}))
        result["trace_file"] = str(trace_file)
    else:
        who = resource.RUSAGE_CHILDREN if cfg["workload"] == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = Path(cfg["root"]) / "src"
    workload = WORKLOADS[cfg["workload"]](SIZES[cfg["size"]], Path(cfg["work"]))
    import misobc

    if Path(misobc.__file__).resolve().parent != (src / "misobc").resolve():
        raise SystemExit(f"misobc imported from {misobc.__file__}, not from {src}")
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = measure(workload, cfg)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
