"""Spans and counters around calls into the misobc package.

The tracer replaces public functions of ``misobc.core``, ``capacity``,
``regions``, ``quantizer``, ``scheme`` and ``cli`` by thin wrappers for
the duration of a traced cycle, so nothing inside the package changes.
Each wrapper records a span (name, start, end, parent span, operation)
in memory; the benchmark writes the spans out when it ends.  Internal
calls go through the same module attributes (``capacity`` calls
``core.sample_cn01``, ``scheme`` calls ``capacity.c21`` and so on), so
they are caught as child spans.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, so spans recorded in worker
threads are not counted twice).

Counters are taken at the same boundaries: draws of complex normals,
Monte Carlo samples and kernel evaluations requested from the capacity
estimators, quantized samples and serialized index bytes.  Peak
allocation inside capacity estimators comes from ``tracemalloc``, which
runs only while an estimator call is open.
"""

from __future__ import annotations

import math
import threading
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from inspect import signature
from time import perf_counter

# Capacity entry points that draw an ensemble.
ESTIMATORS = ("c21", "c22d", "rq", "sweep", "paired_sweep")
POINT_SPANS = ("capacity.c21", "capacity.c22d", "capacity.rq")


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self.peak_alloc_bytes = 0
        self.op = None
        self._main_ident = threading.get_ident()
        self._main_stack: list[_Span] = []
        self._local = threading.local()
        self._patches = []
        self._absorbed: list[list[dict]] = []
        self._lock = threading.Lock()  # probes also run in the package's pool threads

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a span opened in a pool thread belongs to the caller's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = _Span(name, perf_counter(), parent, self.op)
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``probe(tracer, arguments)`` is an optional context manager run
        inside the span with the call's bound arguments, for counters.
        """
        orig = getattr(owner, attr)
        sig = signature(orig) if probe is not None else None

        def wrapper(*args, **kwargs):
            with self.span(name):
                if probe is None:
                    return orig(*args, **kwargs)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                with probe(self, bound.arguments):
                    return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap the package's public functions (imports them first)."""
        from misobc import capacity, cli, core, quantizer, regions, scheme

        self.wrap(core, "stream", "core.stream")
        self.wrap(core, "sample_cn01", "core.sample_cn01", _draws)
        self.wrap(core, "logdet_capacity_term", "core.logdet_capacity_term")
        for fn in ESTIMATORS:
            self.wrap(capacity, fn, f"capacity.{fn}", _estimator)
        self.wrap(capacity, "ratio_sweep", "capacity.ratio_sweep")
        self.wrap(regions, "gap_sweep", "regions.gap_sweep")
        self.wrap(regions, "per_user_gap", "regions.per_user_gap")
        self.wrap(quantizer.DitheredQuantizer, "quantize", "quantizer.quantize", _quantized)
        self.wrap(quantizer, "write_indices", "quantizer.write_indices", _index_bytes)
        self.wrap(quantizer, "read_indices", "quantizer.read_indices")
        for fn in ("run_scheme", "run_phases_1_2", "run_phase_3",
                   "deinterleave_and_reconstruct", "mi_accounting", "summary",
                   "check_stats", "dump_transcript", "read_transcript_dump"):
            self.wrap(scheme, fn, f"scheme.{fn}")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counts[counter] += amount

    def absorb(self, record: dict) -> None:
        """Merge the ``record()`` of a tracer that ran in a child process."""
        self._absorbed.append(record["spans"])
        self.counts.update(record["counts"])
        self.peak_alloc_bytes = max(self.peak_alloc_bytes, record["peak_alloc_bytes"])

    def export(self) -> list[dict]:
        """Spans as plain records; parents are referenced by index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        out = [
            {
                "id": i,
                "parent": None if s.parent is None else index.get(id(s.parent)),
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "op": s.op,
            }
            for i, s in enumerate(self.spans)
        ]
        for spans in self._absorbed:
            offset = len(out)
            for s in spans:
                parent = None if s["parent"] is None else s["parent"] + offset
                out.append(dict(s, id=s["id"] + offset, parent=parent))
        return out

    def record(self) -> dict:
        return {
            "spans": self.export(),
            "counts": dict(self.counts),
            "peak_alloc_bytes": self.peak_alloc_bytes,
        }


@contextmanager
def _draws(tracer: Tracer, args):
    size = args["size"]
    if size is None:
        count = 1
    elif isinstance(size, tuple):
        count = math.prod(int(k) for k in size)
    else:
        count = int(size)
    tracer.add("core.sample_cn01.draws", count)
    yield


@contextmanager
def _estimator(tracer: Tracer, args):
    from misobc import capacity

    mc = args["mc"] or capacity.MCConfig()
    points = 1 if "power" in args else len((args["grid"] or capacity.PowerGrid.default()).points)
    quantities = 2 if "quantity_b" in args else 1
    tracer.add("capacity.samples_drawn", mc.samples)
    tracer.add("capacity.kernel_evals", mc.samples * points * quantities)
    outermost = not tracemalloc.is_tracing()
    if outermost:
        tracemalloc.start()
    try:
        yield
    finally:
        if outermost:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.peak_alloc_bytes = max(tracer.peak_alloc_bytes, peak)


@contextmanager
def _quantized(tracer: Tracer, args):
    import numpy as np

    tracer.add("quantizer.quantize.samples", int(np.size(args["values"])))
    yield


@contextmanager
def _index_bytes(tracer: Tracer, args):
    fp = args["fp"]
    start = fp.tell()
    yield
    tracer.add("quantizer.index_bytes", fp.tell() - start)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_totals(spans: list[dict]):
    """Per span name: calls, total duration and total self time; the self
    time per operation; and the total duration of capacity spans opened
    directly inside phase 3."""
    children = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    calls, dur, self_t, self_by_op = Counter(), defaultdict(float), defaultdict(float), defaultdict(float)
    reference = 0.0
    for s in spans:
        d = s["end"] - s["start"]
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children[s["id"]]]
        calls[s["name"]] += 1
        dur[s["name"]] += d
        own = d - _covered(clipped)
        self_t[s["name"]] += own
        self_by_op[s["op"]] += own
        parent = by_id.get(s["parent"])
        if s["name"].startswith("capacity.") and parent and parent["name"] == "scheme.run_phase_3":
            reference += d
    return calls, dur, self_t, self_by_op, reference


def layer_metrics(spans, counts, peak_alloc_bytes, op_walls, overhead_frac, cli):
    """Per-layer metrics, per traced operation unless the unit says otherwise.

    ``op_walls`` maps each traced operation to its wall time.  ``cli``
    holds the subprocess figures of the cli workload (median bare
    interpreter and scipy import times, exit code mismatches); other
    workloads pass zeros.
    ``trace.unattributed_frac`` is the largest share of an operation's
    wall time that the self times of its spans do not account for.
    """
    calls, dur, self_t, self_by_op, reference = span_totals(spans)
    n = max(len(op_walls), 1)
    draw_self = self_t["core.sample_cn01"]
    kernel_self = sum(self_t[f"capacity.{fn}"] for fn in ESTIMATORS)
    quant_self = self_t["quantizer.quantize"]
    unattributed = max(1.0 - self_by_op[op] / wall for op, wall in op_walls.items())

    def rate(count, seconds, scale=1.0):
        return count / seconds / scale if seconds > 0.0 else 0.0

    m = {
        "core.sample_cn01.self_s": (draw_self / n, "s/op"),
        "core.sample_cn01.draws": (counts["core.sample_cn01.draws"] / n, "count/op"),
        "core.sample_cn01.mdraws_per_s": (rate(counts["core.sample_cn01.draws"], draw_self, 1e6), "M/s"),
        "core.stream.calls": (calls["core.stream"] / n, "count/op"),
        "core.logdet_capacity_term.self_s": (self_t["core.logdet_capacity_term"] / n, "s/op"),
        "capacity.paired_sweep.self_s": (self_t["capacity.paired_sweep"] / n, "s/op"),
        "capacity.kernel_evals": (counts["capacity.kernel_evals"] / n, "count/op"),
        "capacity.kernel_evals_per_s": (rate(counts["capacity.kernel_evals"], kernel_self), "1/s"),
        "capacity.point.calls": (sum(calls[s] for s in POINT_SPANS) / n, "count/op"),
        "capacity.point.self_s": (sum(self_t[s] for s in POINT_SPANS) / n, "s/op"),
        "capacity.samples_drawn": (counts["capacity.samples_drawn"] / n, "count/op"),
        "capacity.peak_alloc_mb": (peak_alloc_bytes / 2**20, "MB"),
        "regions.per_user_gap.calls": (calls["regions.per_user_gap"] / n, "count/op"),
        "regions.per_user_gap.self_s": (self_t["regions.per_user_gap"] / n, "s/op"),
        "regions.gap_sweep.self_s": (self_t["regions.gap_sweep"] / n, "s/op"),
        "quantizer.quantize.self_s": (quant_self / n, "s/op"),
        "quantizer.quantize.samples_per_s": (rate(counts["quantizer.quantize.samples"], quant_self), "1/s"),
        "quantizer.index_bytes": (counts["quantizer.index_bytes"] / n, "B/op"),
        "quantizer.write_read_s": ((dur["quantizer.write_indices"] + dur["quantizer.read_indices"]) / n, "s/op"),
        "scheme.run_phases_1_2.self_s": (self_t["scheme.run_phases_1_2"] / n, "s/op"),
        "scheme.run_phase_3.self_s": (self_t["scheme.run_phase_3"] / n, "s/op"),
        "scheme.reference_s": (reference / n, "s/op"),
        "scheme.deinterleave_and_reconstruct.s": (dur["scheme.deinterleave_and_reconstruct"] / n, "s/op"),
        "scheme.mi_accounting.s": (dur["scheme.mi_accounting"] / n, "s/op"),
        "scheme.check_stats.s": (dur["scheme.check_stats"] / n, "s/op"),
        "scheme.summary.s": (dur["scheme.summary"] / n, "s/op"),
        "scheme.dump_read.s": ((dur["scheme.dump_transcript"] + dur["scheme.read_transcript_dump"]) / n, "s/op"),
        "cli.interpreter_s": (cli["interpreter_s"], "s"),
        "cli.import_s": (dur["cli.import"] / max(calls["cli.import"], 1), "s"),
        "cli.import.scipy_s": (cli["scipy_s"], "s"),
        "cli.main_s": (dur["cli.main"] / n, "s/op"),
        "cli.startup_s": (dur["cli.startup"] / max(calls["cli.startup"], 1), "s"),
        "cli.teardown_s": (dur["cli.teardown"] / max(calls["cli.teardown"], 1), "s"),
        "cli.exit_code_mismatches": (cli["exit_code_mismatches"], "count"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.unattributed_frac": (unattributed, "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
