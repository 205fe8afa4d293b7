"""Three-phase scheme simulation: signals, quantized forwarding, accounting."""

import hashlib
import io
import json
import math
import threading
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from misobc import capacity, core, quantizer, scheme
from misobc.capacity import MCConfig
from misobc.core import DomainError
from misobc.scheme import CausalityAudit, SchemeConfig

REF = MCConfig(samples=20_000, seed=7)


@pytest.fixture(scope="module")
def run128():
    cfg = SchemeConfig(n=128, power=10.0, distortion=4.0, seed=31)
    return cfg, scheme.run_scheme(cfg, ref_mc=REF)


def _staged(cfg, ref=REF):
    """The pipeline one stage at a time, which keeps every array."""
    t = scheme.run_phases_1_2(cfg)
    scheme.mi_accounting(t)
    scheme.run_phase_3(t, ref_mc=ref)
    scheme.deinterleave_and_reconstruct(t)
    return t


@pytest.fixture(scope="module")
def staged128(run128):
    cfg, _ = run128
    return cfg, _staged(cfg)


def test_config_validation():
    SchemeConfig(n=1, power=1.0)
    SchemeConfig(n=512, power=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=0, power=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=513, power=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=4, power=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=4, power=1.0, distortion=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=4, power=1.0, delta=0.0)
    # any integer type, NumPy's too, but not a bool, float or string
    for n in (2.5, True, "3", 3.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            SchemeConfig(n=n, power=10.0)
    n = SchemeConfig(n=np.int64(3), power=10.0).n
    assert n == 3 and type(n) is int
    for seed in (2.7, True, "3", 3.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SchemeConfig(n=4, power=10.0, seed=seed)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SchemeConfig(n=4, power=10.0, seed=-1)
    seed = SchemeConfig(n=4, power=10.0, seed=np.int64(5)).seed
    assert seed == 5 and type(seed) is int
    # power, distortion and delta: any real number type, stored as float,
    # but not a bool, which _integer refuses for n and seed too
    for name in ("power", "distortion", "delta"):
        for bad in (None, "10", "abc", True, np.True_, np.array(True)):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                SchemeConfig(**{"n": 4, "power": 10.0, name: bad})
    cfg = SchemeConfig(n=4, power=np.int64(10), distortion=np.float32(4.0), delta=1)
    assert (cfg.power, cfg.distortion, cfg.delta) == (10.0, 4.0, 1.0)
    assert all(type(v) is float for v in (cfg.power, cfg.distortion, cfg.delta))
    t = scheme.run_scheme(SchemeConfig(n=4, power=np.int64(10), seed=3),
                          ref_mc=MCConfig(samples=2000, seed=3))
    # the summary echoes a NumPy power as a float, which json can write
    assert '"power": 10.0' in json.dumps(scheme.summary(t))


# float.hex of every SchemeStats field (in field order), (value, stderr) of
# both MI estimates and of the c21, c22d and rq references, and the sha256 of
# the dump, at seed 29 with 10^4 reference samples and D = 4: any change to a
# draw, the interleave, a receive or the order of a reduction moves them
FROZEN_RUNS = {
    (1, 10.0): (
        ["0x1.d8f405d3766e4p+1", "0x1.270a25f6c2268p+3", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x1.30685ca0e40b1p+2"],
        [("0x1.3fe9f889189e0p+2", "0x0.0p+0"),
         ("0x1.b219053177f77p+1", "0x0.0p+0")],
        [("0x1.957c6300a6e4fp+1", "0x1.376e6ea7b26b5p-7"),
         ("0x1.08306df4c1bb4p+2", "0x1.5bd552ac759b1p-7"),
         ("0x1.3a99249026994p+1", "0x1.8a8baa9979377p-8")],
        "4e3bebbe2eb8fce420c294be5ee1c4afa2ca6c9f9695d1820d328fb9de60bcc9",
    ),
    (2, 3.0): (
        ["0x1.9c7721d49201ep+1", "0x1.136c3448ad0e9p+3", "0x1.0000000000000p+0",
         "0x1.0000000000001p+0", "0x1.b176c0d973a1dp-1", "0x1.e1f747facbce3p-1",
         "0x1.69cb777cc5608p-1", "0x1.80f3a8ebe3760p-1", "0x1.26558beb4d554p+2"],
        [("0x1.44db30690228cp+1", "0x1.1b037c295dba7p-2"),
         ("0x1.1f540088c8867p+1", "0x1.48c6bfb9781c5p-2")],
        [("0x1.d112f10969616p+0", "0x1.dbdcdff198442p-8"),
         ("0x1.21819ad4d9bf4p+1", "0x1.e70692fe0b634p-8"),
         ("0x1.41f7acea390aep+0", "0x1.113934275ed22p-8")],
        "4ecd83f781624eade71819f8d02b7824b5561de7605095f877501d65261ed2c7",
    ),
    (17, 100.0): (
        ["0x1.53aab8e3c440cp+2", "0x1.4f0cecb6f02a3p+2", "0x1.7b203886dc2a8p-5",
         "0x1.e1b0ba0678970p-4", "0x1.1f8729c9e42bcp-4", "0x1.7be7f2e39fafcp-4",
         "0x1.7ef50bd05965ep-4", "0x1.9c87a797a31cdp-6", "0x1.0b55a3d5be423p+2"],
        [("0x1.2af0f8ca6b435p+3", "0x1.82c46adcfc1d8p-4"),
         ("0x1.2192412804708p+3", "0x1.882b3ccd319b3p-4")],
        [("0x1.922817f7ec68ap+2", "0x1.7044697ffcad1p-7"),
         ("0x1.2729c1979b474p+3", "0x1.13d2222236076p-6"),
         ("0x1.5f356458cf45fp+2", "0x1.e9673917084a4p-8")],
        "6b38d9734508ffa020434ddf8e3957f46475160177053688499549e5a2f172a0",
    ),
    (64, 1.0): (
        ["0x1.38e9b2c9fb3bep+2", "0x1.3d1d7da15b532p+2", "0x1.35ca96bfca1bap-6",
         "0x1.f36dc18a20e77p-7", "0x1.24f0bcbfc1aa9p-6", "0x1.21f6248abc1dep-6",
         "0x1.aa07fe8b59a3bp-6", "0x1.0c0156415ba66p-8", "0x1.f9f44437a3226p+1"],
        [("0x1.1f0ce46fb09a4p+0", "0x1.df801ff7ee79ap-8"),
         ("0x1.20bb037fcf3fep+0", "0x1.e261eb0102ce1p-8")],
        [("0x1.d7e42e78e9661p-1", "0x1.3026e319fc8f4p-8"),
         ("0x1.1f20292729012p+0", "0x1.318cf5e9fc547p-8"),
         ("0x1.20f93efbc6965p-1", "0x1.2e22f47716e61p-9")],
        "757c7f556651ac6351ab39aafec6ec6fde4bad3c47c22502ffb3d216d4f03416",
    ),
}


@pytest.mark.parametrize("cpus", [None, 1, 2])
def test_run_matches_frozen_bits(monkeypatch, cpus):
    pools = []
    if cpus is not None:
        monkeypatch.setattr(capacity, "_usable_cpus", lambda: cpus)
        real_pool = scheme.ThreadPoolExecutor

        def recording_pool(workers):
            if cpus == 1:
                raise AssertionError("a thread pool was started on one usable CPU")
            pools.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(scheme, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(capacity, "ThreadPoolExecutor", recording_pool)
    for (n, power), (stats, mi, ref, digest) in FROZEN_RUNS.items():
        cfg = SchemeConfig(n=n, power=power, seed=29)
        t = scheme.run_scheme(cfg, ref_mc=MCConfig(samples=10_000, seed=29))
        assert [getattr(t.stats, f.name).hex() for f in fields(t.stats)] == stats
        assert [(e.value.hex(), e.stderr.hex()) for e in (t.mi.user1, t.mi.user2)] == mi
        assert [(t.reference[q].value.hex(), t.reference[q].stderr.hex())
                for q in ("c21", "c22d", "rq")] == ref
        buf = io.BytesIO()
        scheme.dump_transcript(t, buf)
        assert hashlib.sha256(buf.getvalue()).hexdigest() == digest
    if cpus == 2:
        # one two-thread pool per run for the phases; the reference is one block
        assert pools == [2] * len(FROZEN_RUNS)


def test_run_scheme_memory_is_bounded(monkeypatch):
    # a finished run holds what its dump holds, and the peak stays near
    # what phases 1-2 allocate: ten draws and two sums, 18 n^2 complex128.
    # At n = 512 the default reference runs beside the accounting with its
    # two scratch sets (7 MiB); the accounting's row blocks keep the peak
    # at 83 MiB, where one whole-grid log-det call would reach 94 MiB.
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: 2)
    # n, reference (None: the default), bound as a multiple of phases 1-2
    for n, ref, bound in ((256, MCConfig(samples=10_000, seed=67), 1.3), (512, None, 1.2)):
        cfg = SchemeConfig(n=n, power=10.0, seed=67)
        tracemalloc.start()
        try:
            t = scheme.run_scheme(cfg, ref_mc=ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in held) == (t.u1.nbytes + t.u2.nbytes
                                               + t.quant_indices.nbytes)
        phases = 18 * n * n * 16
        assert peak <= bound * phases, (n, peak)


def test_interleave_swaps_block_and_time():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(5, 5, 2)) + 1j * rng.normal(size=(5, 5, 2))
    x = scheme.interleave(u)
    for b in range(5):
        for t in range(5):
            assert np.array_equal(x[b, t], u[t, b])


def test_interleave_is_involution():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.array_equal(scheme.interleave(scheme.interleave(u)), u)


def test_interleave_rejects_non_square():
    with pytest.raises(ValueError):
        scheme.interleave(np.zeros((3, 4, 2)))
    with pytest.raises(ValueError):
        scheme.interleave(np.zeros(6))


def test_phases_1_2_shapes_and_identities():
    cfg = SchemeConfig(n=6, power=2.0, seed=5)
    t = scheme.run_phases_1_2(cfg)
    for grid in (t.u1, t.u2, t.x1, t.x2, t.h1, t.g1, t.h2, t.g2):
        assert grid.shape == (6, 6, 2)
    for obs in (t.z11, t.z21, t.z12, t.z22, t.y11, t.y21, t.y12, t.y22,
                t.s21, t.s12):
        assert obs.shape == (6, 6)
    assert np.array_equal(t.x1, scheme.interleave(t.u1))
    assert np.array_equal(t.x2, scheme.interleave(t.u2))
    assert np.allclose(t.y11, np.einsum("bta,bta->bt", t.h1, t.x1) + t.z11)
    assert np.allclose(t.y21, t.s21 + t.z21)
    assert np.allclose(t.y12, t.s12 + t.z12)
    assert np.allclose(t.y22, np.einsum("bta,bta->bt", t.g2, t.x2) + t.z22)
    # overheard mixtures are plain inner products of rows and inputs
    for b in range(6):
        for tt in range(6):
            manual = t.g1[b, tt, 0] * t.x1[b, tt, 0] + t.g1[b, tt, 1] * t.x1[b, tt, 1]
            assert abs(t.s21[b, tt] - manual) < 1e-12


def test_phases_1_2_deterministic():
    cfg = SchemeConfig(n=8, power=3.0, seed=11)
    a = scheme.run_phases_1_2(cfg)
    b = scheme.run_phases_1_2(cfg)
    assert np.array_equal(a.u1, b.u1)
    assert np.array_equal(a.g2, b.g2)
    assert np.array_equal(a.y22, b.y22)


def test_transmit_power_is_split_across_antennas():
    cfg = SchemeConfig(n=128, power=7.0, seed=13)
    t = scheme.run_phases_1_2(cfg)
    per_antenna = np.mean(np.abs(t.x1) ** 2)
    assert per_antenna == pytest.approx(cfg.power / 2.0, rel=0.05)
    # the overheard mixture then carries the full transmit power
    assert np.mean(np.abs(t.s21) ** 2) == pytest.approx(cfg.power, rel=0.05)


def test_vanishing_power_leaves_unit_noise():
    cfg = SchemeConfig(n=128, power=1e-12, seed=17)
    t = scheme.run_phases_1_2(cfg)
    assert np.mean(np.abs(t.y11) ** 2) == pytest.approx(1.0, rel=0.05)


def test_phase3_budget_quotient():
    assert scheme.phase3_budget(100, 2.0, 3.0, 0.5) == 80
    assert scheme.phase3_budget(1, 2.0, 3.0, 0.5) == 1
    assert scheme.phase3_budget(10, 0.0, 3.0, 0.5) == 0


def test_phase3_budget_needs_margin():
    with pytest.raises(DomainError):
        scheme.phase3_budget(100, 2.5, 3.0, 0.5)
    with pytest.raises(DomainError):
        scheme.phase3_budget(100, 0.1, 0.2, 0.5)
    # the rates and delta are numbers, not strings, bools or None
    for bad in ("2.0", True, None):
        for name, args in (("rq_value", (bad, 3.0, 0.5)), ("c21_value", (2.0, bad, 0.5)),
                           ("delta", (2.0, 3.0, bad))):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                scheme.phase3_budget(100, *args)


def test_run_phase_3_aborts_without_margin():
    cfg = SchemeConfig(n=8, power=10.0, distortion=4.0, delta=3.0, seed=19)
    t = scheme.run_phases_1_2(cfg)
    with pytest.raises(DomainError, match="at P = 10"):
        scheme.run_phase_3(t, ref_mc=REF)


def test_pipeline_stage_order_is_enforced():
    cfg = SchemeConfig(n=4, power=2.0, seed=23)
    bare = scheme.SchemeTranscript(config=cfg)
    with pytest.raises(ValueError):
        scheme.run_phase_3(bare, ref_mc=REF)
    with pytest.raises(ValueError):
        scheme.deinterleave_and_reconstruct(bare)
    with pytest.raises(ValueError):
        scheme.mi_accounting(bare)
    with pytest.raises(ValueError):
        scheme.summary(bare)
    with pytest.raises(ValueError):
        scheme.check_stats(bare)
    with pytest.raises(ValueError):
        scheme.dump_transcript(bare, io.BytesIO())


def _run_stages(count):
    """A transcript after the first ``count`` pipeline stages, or after
    ``run_scheme`` if ``count`` is None."""
    cfg = SchemeConfig(n=4, power=2.0, seed=23)
    if count is None:
        return scheme.run_scheme(cfg, ref_mc=REF)
    t = scheme.run_phases_1_2(cfg) if count else scheme.SchemeTranscript(config=cfg)
    if count > 1:
        scheme.run_phase_3(t, ref_mc=REF)
    if count > 2:
        scheme.deinterleave_and_reconstruct(t)
    return t


# each call one stage before its input exists, or after run_scheme released it
@pytest.mark.parametrize("stages, call, message", [
    (0, lambda t: scheme.run_phase_3(t, ref_mc=REF), "phases 1 and 2"),
    (1, scheme.deinterleave_and_reconstruct, "phase 3 must run first"),
    (0, scheme.mi_accounting, "phases 1 and 2 must run first"),
    (3, scheme.summary, "full pipeline"),
    (2, scheme.check_stats, "before checking statistics"),
    (1, lambda t: scheme.dump_transcript(t, io.BytesIO()), "before dumping"),
    (None, lambda t: scheme.run_phase_3(t, ref_mc=REF), "s21 is None"),
    (None, scheme.deinterleave_and_reconstruct, "delivered is None"),
    (None, scheme.mi_accounting, "h1 is None"),
], ids=["run_phase_3", "deinterleave_and_reconstruct", "mi_accounting", "summary",
        "check_stats", "dump_transcript", "run_phase_3_after_run_scheme",
        "deinterleave_and_reconstruct_after_run_scheme", "mi_accounting_after_run_scheme"])
def test_stage_guard_rejects_missing_input(stages, call, message):
    t = _run_stages(stages)
    with pytest.raises(ValueError, match=message):
        call(t)


STORED = {"u1", "u2", "quant_indices"}
RELEASED = ("h1", "g1", "h2", "g2", "z11", "z21", "z12", "z22", "s21", "s12", "delivered")
DERIVED = ("x1", "x2", "y11", "y21", "y12", "y22", "ytilde21", "ytilde12", "quant_error")


def _arrays(t):
    return {k for k, v in vars(t).items() if isinstance(v, np.ndarray)}


def test_transcript_stores_draws_and_derives_the_rest(staged128):
    cfg, t = staged128
    assert _arrays(t) == STORED | set(RELEASED)
    assert np.shares_memory(t.x1, t.u1) and np.shares_memory(t.x2, t.u2)
    with pytest.raises(AttributeError):
        t.x1 = t.u1

    def receive(rows, x):
        return np.einsum("bta,bta->bt", rows, x)

    x1, x2 = np.swapaxes(t.u1, 0, 1), np.swapaxes(t.u2, 0, 1)
    y12 = t.s12 + t.z12
    y21 = t.s21 + t.z21
    derived = {
        "x1": x1, "x2": x2,
        "y11": receive(t.h1, x1) + t.z11, "y21": y21,
        "y12": y12, "y22": receive(t.g2, x2) + t.z22,
        "ytilde21": t.delivered - y12, "ytilde12": t.delivered - y21,
        "quant_error": t.delivered - (t.s21 + t.s12),
    }
    assert set(derived) == set(DERIVED)
    for name, expect in derived.items():
        assert np.array_equal(getattr(t, name), expect), name
    assert np.array_equal(t.s21, receive(t.g1, x1))
    assert np.array_equal(t.s12, receive(t.h2, x2))
    fresh = core.sample_cn01(core.stream(cfg.seed, 6, 2), out=np.empty_like(t.z21))
    assert np.array_equal(t.z21, fresh)
    # before phase 3 nothing is delivered, so nothing is reconstructed
    early = scheme.run_phases_1_2(SchemeConfig(n=4, power=2.0, seed=23))
    assert early.ytilde21 is None and early.ytilde12 is None and early.quant_error is None


@pytest.mark.parametrize("n", [1, 2, 17])
def test_run_scheme_releases_what_it_no_longer_reads(n):
    cfg = SchemeConfig(n=n, power=10.0, seed=73)
    ref = MCConfig(samples=2000, seed=73)
    kept = _staged(cfg, ref)
    t = scheme.run_scheme(cfg, ref_mc=ref)
    # the two runs agree on what run_scheme keeps and on every result
    assert _arrays(t) == STORED
    for name in STORED:
        assert np.array_equal(getattr(t, name), getattr(kept, name)), name
    assert (t.stats, t.mi, t.reference, t.phase3_budget) == (
        kept.stats, kept.mi, kept.reference, kept.phase3_budget)
    # a released array reads None, and so does every view made from one
    for name in RELEASED + DERIVED[2:]:
        assert getattr(t, name) is None, name


def test_mi_bits_do_not_depend_on_when_it_runs():
    cfg = SchemeConfig(n=17, power=10.0, seed=79)

    def bits(mi):
        return [(e.value.hex(), e.stderr.hex()) for e in (mi.user1, mi.user2)]

    early = scheme.run_phases_1_2(cfg)
    before = bits(scheme.mi_accounting(early))
    late = scheme.run_phases_1_2(cfg)
    scheme.run_phase_3(late, ref_mc=REF)
    scheme.deinterleave_and_reconstruct(late)
    assert bits(scheme.mi_accounting(late)) == before
    assert bits(scheme.run_scheme(cfg, ref_mc=REF).mi) == before


@pytest.mark.parametrize("n", [33, 100])
def test_mi_row_blocks_match_one_whole_grid_call(n):
    # n is no multiple of the row block, so the last block is partial
    assert n % scheme._MI_ROWS
    cfg = SchemeConfig(n=n, power=10.0, seed=83)
    t = scheme.run_phases_1_2(cfg)

    def whole(rows):
        vals = core.logdet_capacity_term(rows, cfg.power, (1.0, 1.0 + cfg.distortion)).ravel()
        return float(np.mean(vals)).hex(), float(np.std(vals, ddof=1) / n).hex()

    mi = scheme.mi_accounting(t)
    assert [(e.value.hex(), e.stderr.hex()) for e in (mi.user1, mi.user2)] == [
        whole((t.h1, t.g1)), whole((t.g2, t.h2))]


# a reference of four blocks, the last partial, under the default workers
MULTI_BLOCK = 3 * capacity._BLOCK + 5


def _recording_pools(monkeypatch, module, pools):
    real_pool = module.ThreadPoolExecutor

    def recording_pool(workers):
        pools.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(module, "ThreadPoolExecutor", recording_pool)


@pytest.mark.parametrize("cpus", [1, 2])
def test_overlapped_reference_keeps_the_bits(monkeypatch, cpus):
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: cpus)
    cfg = SchemeConfig(n=16, power=10.0, seed=89)
    ref = MCConfig(samples=MULTI_BLOCK, seed=89)

    def outputs(t):
        buf = io.BytesIO()
        scheme.dump_transcript(t, buf)
        return json.dumps(scheme.summary(t), sort_keys=True), buf.getvalue()

    staged = scheme.run_phases_1_2(cfg)
    scheme.mi_accounting(staged)
    scheme.run_phase_3(staged, ref_mc=ref)
    scheme.deinterleave_and_reconstruct(staged)

    phase_pools, estimator_pools = [], []
    _recording_pools(monkeypatch, scheme, phase_pools)
    _recording_pools(monkeypatch, capacity, estimator_pools)
    before = threading.active_count()
    t = scheme.run_scheme(cfg, ref_mc=ref)
    assert threading.active_count() == before
    # on two CPUs one two-thread pool for the phases and one pool for the
    # reference, whose one thread runs beside the caller; none on one CPU
    assert (phase_pools, estimator_pools) == (([2], [1]) if cpus == 2 else ([], []))

    (point,) = capacity.estimate(("c21", "c22d", "rq"), capacity.PowerGrid.single(cfg.power),
                                 ref, cfg.distortion)
    assert [(e.value.hex(), e.stderr.hex()) for e in t.reference.values()] == [
        (e.value.hex(), e.stderr.hex()) for e in point.estimates]
    assert outputs(t) == outputs(staged)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("power, error, message", [
    # the reference overflows, and so would the quantizer: the reference's error wins
    (1e200, DomainError, "c22d is not finite"),
    (0.1, DomainError, "phase-3 forwarding needs rq < c21 - delta"),
    (1e22, ValueError, "lattice coordinates overflow int32"),
])
def test_run_scheme_raises_the_first_error_in_stage_order(monkeypatch, cpus, power, error,
                                                          message):
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: cpus)
    cfg = SchemeConfig(n=8, power=power, seed=97)
    before = threading.active_count()
    with pytest.raises(error, match=message):
        scheme.run_scheme(cfg, ref_mc=MCConfig(samples=MULTI_BLOCK, seed=97))
    assert threading.active_count() == before


def test_causality_audit(run128):
    _, t = run128
    assert t.audit.ok()
    assert t.audit.min_margin() == 1
    n = t.config.n
    # one slot per block and phase: the last, binding coefficient
    assert t.audit.coeff_slots.shape == (2, n, 1)
    assert t.audit.read_slots.shape == (n,)
    # block 0 phase-1 coefficients occupy slots 0..n-1, read at slot 2n
    assert t.audit.coeff_slots[0, 0, 0] == n - 1
    assert t.audit.coeff_slots[1, 0, 0] == 2 * n - 1
    assert t.audit.read_slots[0] == 2 * n
    # a read in the slot of a block's last coefficient is one slot early
    reads = t.audit.read_slots.copy()
    reads[5] = t.audit.coeff_slots[1, 5, 0]
    early = CausalityAudit(t.audit.coeff_slots, reads)
    assert not early.ok()
    assert early.min_margin() == 0


def test_tampered_audit_is_caught():
    coeff = np.full((2, 3, 3), 6, dtype=np.int64)
    read = np.full(3, 6, dtype=np.int64)
    audit = CausalityAudit(coeff, read)
    assert not audit.ok()
    assert audit.min_margin() == 0


def test_reconstruction_identities(staged128):
    _, t = staged128
    assert np.allclose(t.ytilde21, t.s21 + t.quant_error - t.z12)
    assert np.allclose(t.ytilde12, t.s12 + t.quant_error - t.z21)
    assert np.allclose(t.delivered - (t.s21 + t.s12), t.quant_error)


def test_residual_statistics(run128):
    cfg, t = run128
    d = cfg.distortion
    assert t.stats.noise_var_user1 == pytest.approx(1.0 + d, rel=0.05)
    assert t.stats.noise_var_user2 == pytest.approx(1.0 + d, rel=0.05)
    assert t.stats.quant_error_var == pytest.approx(d, rel=0.05)
    for corr in (t.stats.autocorr_user1, t.stats.autocorr_user2,
                 t.stats.signal_corr_user1, t.stats.signal_corr_user2,
                 t.stats.noise_cross_corr_user1, t.stats.noise_cross_corr_user2):
        assert corr < 0.05


def test_check_stats_clean_run(run128):
    _, t = run128
    assert scheme.check_stats(t) == []


def test_check_stats_flags_bad_variance(run128):
    cfg, t = run128
    broken = scheme.SchemeStats(
        noise_var_user1=2 * (1 + cfg.distortion),
        noise_var_user2=t.stats.noise_var_user2,
        autocorr_user1=0.5,
        autocorr_user2=t.stats.autocorr_user2,
        signal_corr_user1=t.stats.signal_corr_user1,
        signal_corr_user2=t.stats.signal_corr_user2,
        noise_cross_corr_user1=t.stats.noise_cross_corr_user1,
        noise_cross_corr_user2=t.stats.noise_cross_corr_user2,
        quant_error_var=t.stats.quant_error_var,
    )
    spare = scheme.SchemeTranscript(config=cfg)
    spare.stats = broken
    spare.audit = t.audit
    msgs = scheme.check_stats(spare)
    assert any("noise_var_user1" in m for m in msgs)
    assert any("autocorr_user1" in m for m in msgs)


def test_mi_matches_direct_log_det():
    cfg = SchemeConfig(n=8, power=5.0, distortion=4.0, seed=37)
    t = _staged(cfg)
    sigma = np.diag([1.0, 1.0 + cfg.distortion])
    total = 0.0
    for b in range(cfg.n):
        for tt in range(cfg.n):
            h = np.array([t.h1[b, tt], t.g1[b, tt]])
            m = np.eye(2) + (cfg.power / 2.0) * np.linalg.inv(sigma) @ h @ h.conj().T
            total += np.linalg.slogdet(m)[1] / math.log(2.0)
    assert t.mi.user1.value == pytest.approx(total / cfg.n**2, rel=1e-10)


def test_mi_overflow_is_a_domain_error_not_a_warning():
    # at P = 1e200 every log-det is infinite; np.std over them would warn
    t = scheme.run_phases_1_2(SchemeConfig(n=8, power=1e200, seed=9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"mutual information is not finite at P = 1e\+200"):
            scheme.mi_accounting(t)
    assert t.mi is None


def test_mi_agrees_with_ergodic_capacity(run128):
    cfg, t = run128
    ref = capacity.c22d(cfg.power, cfg.distortion, MCConfig(samples=200_000, seed=41))
    tol = 4.0 * math.hypot(t.mi.user1.stderr, ref.stderr)
    assert abs(t.mi.user1.value - ref.value) < tol
    assert abs(t.mi.user2.value - ref.value) < tol


def test_mi_collapses_to_single_row_at_huge_distortion():
    cfg = SchemeConfig(n=64, power=10.0, distortion=1e6, seed=43)
    t = _staged(cfg)
    direct = float(np.mean(core.logdet_capacity_term((t.h1,), cfg.power, (1.0,))))
    assert abs(t.mi.user1.value - direct) < 1e-3


def test_achieved_rate_pair_endpoints():
    r, s = scheme.achieved_rate_pair(3.0, 0.0, 2.0)
    assert r == s == 1.5
    r, _ = scheme.achieved_rate_pair(3.0, 2.0, 2.0)
    assert r == 1.0
    r, _ = scheme.achieved_rate_pair(4.2, 1.0, 2.0)
    assert r == pytest.approx(4.2 / 2.5, rel=1e-15)


def test_achieved_rate_pair_dominates_floor():
    rng = np.random.default_rng(47)
    for _ in range(50):
        c21v = float(rng.uniform(0.5, 6.0))
        c22dv = c21v * float(rng.uniform(1.0, 2.0))
        rqv = c21v * float(rng.uniform(0.0, 1.0))
        r, _ = scheme.achieved_rate_pair(c22dv, rqv, c21v)
        floor = scheme.rate_floor(c22dv, rqv, c21v)
        assert floor is not None
        assert r >= floor - 1e-12


def test_achieved_rate_pair_validation():
    with pytest.raises(ValueError):
        scheme.achieved_rate_pair(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scheme.achieved_rate_pair(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        scheme.achieved_rate_pair(1.0, 1.0, 0.0)
    for fn in (scheme.achieved_rate_pair, scheme.rate_floor):
        for bad in ("1.0", True, None):
            for name, args in (("c22d_value", (bad, 1.0, 1.0)), ("rq_value", (1.0, bad, 1.0)),
                               ("c21_value", (1.0, 1.0, bad))):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    fn(*args)


def test_rate_floor_requires_forwardable_rate():
    assert scheme.rate_floor(3.0, 2.5, 2.0) is None
    assert scheme.rate_floor(3.0, 2.0, 2.0) == 1.0
    # the range checks of achieved_rate_pair
    for args in ((3.0, 2.0, 0.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (math.inf, 1.0, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            scheme.rate_floor(*args)


def test_summary_layout(run128):
    _, t = run128
    s = scheme.summary(t)
    assert set(s) == {
        "config", "phase3_budget", "noise_var_user1", "noise_var_user2",
        "residual_autocorr", "mi_user1", "mi_user2", "achieved_rate_pair",
        "reference", "diagnostics",
    }
    assert set(s["reference"]) == {"c21", "c22d", "rq"}
    assert set(s["residual_autocorr"]) == {"user1", "user2"}
    assert set(s["mi_user1"]) == {"value", "stderr", "samples", "seed"}
    assert len(s["achieved_rate_pair"]) == 2
    assert s["config"]["n"] == 128
    assert s["diagnostics"]["causality_ok"] is True
    json.dumps(s)  # must be serializable as-is


def test_summary_budget_consistent(run128):
    cfg, t = run128
    s = scheme.summary(t)
    ref = s["reference"]
    expect = scheme.phase3_budget(cfg.n, ref["rq"]["value"], ref["c21"]["value"],
                                  cfg.delta)
    assert s["phase3_budget"] == expect == t.phase3_budget


def test_run_scheme_deterministic():
    cfg = SchemeConfig(n=16, power=4.0, seed=53)
    a = scheme.summary(scheme.run_scheme(cfg, ref_mc=REF))
    b = scheme.summary(scheme.run_scheme(cfg, ref_mc=REF))
    assert a == b


def test_transcript_dump_round_trip():
    cfg = SchemeConfig(n=12, power=6.0, seed=59)
    t = scheme.run_scheme(cfg, ref_mc=REF)
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    # header, u1 and u2, then the index stream's header and int32 pairs
    assert len(buf.getvalue()) == 8 + 2 * 16 * 2 * cfg.n**2 + 16 + 8 * cfg.n**2
    buf.seek(0)
    back = scheme.read_transcript_dump(buf)
    for name, grid in (("u1", t.u1), ("u2", t.u2), ("x1", t.x1), ("x2", t.x2)):
        assert np.array_equal(back[name], grid)
        assert back[name].dtype == np.complex128
    assert back["quant_step"] == t.quant_step
    assert np.array_equal(back["quant_indices"], t.quant_indices)
    # the transcript holds the indices at the width the dump stores them
    assert t.quant_indices.dtype == back["quant_indices"].dtype == np.int32


def test_transcript_dump_corruption_detected():
    cfg = SchemeConfig(n=4, power=2.0, seed=61)
    t = scheme.run_scheme(cfg, ref_mc=REF)
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    raw = buf.getvalue()
    grids_end = 8 + 2 * 16 * cfg.n * cfg.n * 2
    short = io.BytesIO()
    quantizer.write_indices(short, t.quant_step, t.quant_indices[:3])
    for blob, message in (
        (raw[:4], "truncated header"),
        (b"XXXX" + raw[4:], "bad magic"),
        # the four-grid format that stored x1 and x2 too is not read
        (b"MBT1" + raw[4:], "bad magic"),
        (raw[: len(raw) // 2], "truncated signal grid"),
        # the index stream after the grids keeps its own checks
        (raw[:grids_end + 10], "truncated header"),
        (raw[:grids_end] + b"XXXX" + raw[grids_end + 4:], "bad magic"),
        (raw[:-4], "promises"),
        (raw + bytes(8), "promises"),
        # a well-formed index stream for fewer samples than the grids hold
        (raw[:grids_end] + short.getvalue(), "holds 3 samples, expected n\\^2 = 16"),
    ):
        with pytest.raises(ValueError, match=message):
            scheme.read_transcript_dump(io.BytesIO(blob))


@pytest.fixture(scope="module")
def dump256():
    t = scheme.run_scheme(SchemeConfig(n=256, power=10.0, seed=71),
                          ref_mc=MCConfig(samples=2000, seed=71))
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    return t, buf.getvalue()


def test_dump_reader_returns_views_of_the_bytes_it_read(dump256):
    t, blob = dump256
    back = scheme.read_transcript_dump(io.BytesIO(blob))
    raw = np.frombuffer(blob, dtype=np.uint8)
    for name in ("u1", "u2", "x1", "x2"):
        assert np.array_equal(back[name], getattr(t, name))
        assert np.shares_memory(back[name], raw)
        assert not back[name].flags.writeable
    # the transmit grids are not stored but derived from the message grids
    assert np.shares_memory(back["x1"], back["u1"])
    assert np.shares_memory(back["x2"], back["u2"])
    assert np.array_equal(back["quant_indices"], t.quant_indices)
    assert np.shares_memory(back["quant_indices"], raw)
    assert back["quant_indices"].dtype == np.dtype("<i4")
    assert not back["quant_indices"].flags.writeable


def test_dump_reader_reads_files_and_streams_past_other_content(dump256, tmp_path):
    t, blob = dump256
    path = tmp_path / "run.mbt"
    with open(path, "wb") as fp:
        scheme.dump_transcript(t, fp)
    with open(path, "rb") as fp:
        from_file = scheme.read_transcript_dump(fp)
    buf = io.BytesIO(b"preamble" + blob)
    buf.seek(len(b"preamble"))
    from_offset = scheme.read_transcript_dump(buf)
    for back in (from_file, from_offset):
        for name in ("u1", "u2", "x1", "x2"):
            assert back[name].tobytes() == getattr(t, name).astype("<c16").tobytes()
        assert back["quant_step"] == t.quant_step
        assert np.array_equal(back["quant_indices"], t.quant_indices)


def test_dump_reader_allocates_little_beyond_the_dump(dump256):
    # the grids and the indices are views of the bytes read, so the reader
    # allocates only small objects, no copies
    _, blob = dump256
    tracemalloc.start()
    try:
        scheme.read_transcript_dump(io.BytesIO(blob))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
