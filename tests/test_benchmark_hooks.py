"""The benchmark's tracer still finds the package functions it wraps.

``perfbench/tracing.py`` wraps public functions by name and binds their
arguments by parameter name, so a rename there breaks ``--trace 1``.
This runs the certify and simulate paths under the tracer at a small size.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from misobc import capacity, core, regions, scheme
from misobc.capacity import MCConfig, PowerGrid

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = keep
    return module


def test_tracer_records_certify_spans():
    tracing = load_tracing()
    originals = (capacity.c21, capacity.paired_sweep, regions.gap_sweep)
    mc = MCConfig(samples=1000, seed=3)
    grid = PowerGrid((1.0, 10.0))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        capacity.c21(10.0, mc)
        capacity.ratio_sweep(4.0, grid, mc)
        regions.gap_sweep(4.0, grid, mc)
    finally:
        tracer.uninstall()
    assert (capacity.c21, capacity.paired_sweep, regions.gap_sweep) == originals

    spans = tracer.export()
    names = Counter(s["name"] for s in spans)
    assert names["capacity.c21"] == 1
    assert names["capacity.ratio_sweep"] == 1
    assert names["regions.gap_sweep"] == 1
    assert names["capacity.paired_sweep"] == 2
    assert names["core.stream"] == 3  # one block per ensemble
    parents = {spans[s["parent"]]["name"] for s in spans if s["name"] == "capacity.paired_sweep"}
    assert parents == {"capacity.ratio_sweep", "regions.gap_sweep"}
    # c21 at one power, then two quantities at two powers, twice
    assert tracer.counts["capacity.samples_drawn"] == 3 * 1000
    assert tracer.counts["capacity.kernel_evals"] == 1000 + 2 * (1000 * 2 * 2)


def test_tracer_records_simulate_draws_and_log_dets():
    # the scheme draws and accounts through the public names the tracer wraps
    tracing = load_tracing()
    originals = (core.sample_cn01, core.logdet_capacity_term, scheme.mi_accounting)
    n = 8
    cfg = scheme.SchemeConfig(n=n, power=10.0, seed=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scheme.run_scheme(cfg, ref_mc=MCConfig(samples=1000, seed=3))
    finally:
        tracer.uninstall()
    assert (core.sample_cn01, core.logdet_capacity_term, scheme.mi_accounting) == originals

    # per phase u, h and g hold 2 n^2 draws each and the two noises n^2
    # each; the overheard sums are computed, not drawn
    assert tracer.counts["core.sample_cn01.draws"] == 16 * n * n
    spans = tracer.export()
    logdets = [s for s in spans if s["name"] == "core.logdet_capacity_term"]
    assert len(logdets) == 2  # one per user
    assert {spans[s["parent"]]["name"] for s in logdets} == {"scheme.mi_accounting"}
    draws = [s for s in spans if s["name"] == "core.sample_cn01"]
    assert len(draws) == 10
    assert {spans[s["parent"]]["name"] for s in draws} == {"scheme.run_phases_1_2"}
