"""Random stream reproducibility, the task runner and closed-form log-det arithmetic."""

import ast
import math
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from misobc import core


def test_stream_is_reproducible():
    a = core.stream(123, 1, 7).standard_normal(64)
    b = core.stream(123, 1, 7).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    a = core.stream(123, 1, 0).standard_normal(64)
    b = core.stream(123, 1, 1).standard_normal(64)
    c = core.stream(123, 2, 0).standard_normal(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_distinct_seeds_give_distinct_streams():
    a = core.stream(1, 5).standard_normal(32)
    b = core.stream(2, 5).standard_normal(32)
    assert not np.array_equal(a, b)


def test_stream_tags_are_distinct_and_frozen():
    # an alias would let two consumers draw the same numbers; a renumbered
    # tag would move every frozen result drawn under it
    assert {name: int(tag) for name, tag in core.StreamTag.__members__.items()} == {
        "CAPACITY_CHANNEL": 1, "QUANTIZER_DITHER": 3,
        "SCHEME_SIGNAL": 4, "SCHEME_CHANNEL": 5, "SCHEME_NOISE": 6,
    }
    assert len(set(core.StreamTag)) == len(core.StreamTag.__members__)


def test_every_stream_tag_has_a_consumer():
    # a tag that no module draws under is dead; its value stays retired
    src = Path(core.__file__).parent
    text = "\n".join(p.read_text(encoding="utf-8") for p in src.glob("*.py")
                     if p.name != "core.py")
    for name in core.StreamTag.__members__:
        assert re.search(rf"\bStreamTag\.{name}\b", text), name


def test_sample_cn01_scalar_and_shapes():
    rng = core.stream(9, 0)
    z = core.sample_cn01(rng)
    assert z.shape == () and z.dtype == np.complex128
    arr = core.sample_cn01(rng, 10)
    assert arr.shape == (10,)
    grid = core.sample_cn01(rng, (3, 4, 2))
    assert grid.shape == (3, 4, 2)
    assert grid.dtype == np.complex128


def test_sample_cn01_scalar_size_must_be_an_integer():
    # as NumPy's standard_normal refuses 2.5, rather than drawing 2 values
    rng = core.stream(9, 0)
    assert core.sample_cn01(rng, np.int64(3)).shape == (3,)
    for size in (2.5, "2", True):
        with pytest.raises(ValueError, match=r"^size must be an integer, got "):
            core.sample_cn01(rng, size)


def test_sample_cn01_matches_complex_expression():
    # the in-place scaling must keep the bits of the complex expression it
    # replaced: numpy divides a complex number by a real one by scaling
    # both parts with its reciprocal
    def reference(rng, size=None):
        shape = () if size is None else (size if isinstance(size, tuple) else (int(size),))
        z = rng.standard_normal(shape + (2,))
        return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)

    for size in (1, 7, 10_000, (3,), (5, 4), (16, 16, 2)):
        got = core.sample_cn01(core.stream(13, 1), size)
        want = reference(core.stream(13, 1), size)
        assert got.dtype == np.complex128
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for key in range(20):
        got = core.sample_cn01(core.stream(13, 2, key))
        assert got.shape == ()
        got, want = complex(got), complex(reference(core.stream(13, 2, key)))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_sample_cn01_fills_out_with_the_same_bits():
    for shape in ((), (7,), (5, 4), (16, 16, 2)):
        for scale in (None, 2.5):
            want = core.sample_cn01(core.stream(13, 3), shape, scale=scale)
            out = np.empty(shape, dtype=np.complex128)
            got = core.sample_cn01(core.stream(13, 3), out=out, scale=scale)
            assert got is out
            assert got.tobytes() == np.asarray(want).tobytes()
            assert core.sample_cn01(core.stream(13, 3), shape, out=out, scale=scale) is out
            assert out.tobytes() == np.asarray(want).tobytes()
    unscaled = core.sample_cn01(core.stream(13, 4), 9)
    assert np.array_equal(core.sample_cn01(core.stream(13, 4), 9, scale=2.5), unscaled * 2.5)


def test_sample_cn01_rejects_a_bad_out():
    rng = core.stream(13, 5)
    strided = np.empty((4, 6), dtype=np.complex128)[:, ::2]
    for out in (strided, np.empty((4, 3), dtype=np.complex64),
                np.empty((4, 3), dtype=np.float64), [0j, 0j]):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            core.sample_cn01(rng, out=out)
    for size in (12, (3, 4), (4, 3, 1)):
        with pytest.raises(ValueError, match="does not match out.shape"):
            core.sample_cn01(rng, size, out=np.empty((4, 3), dtype=np.complex128))


def test_sample_cn01_moments():
    rng = core.stream(2024, 0)
    z = core.sample_cn01(rng, 200_000)
    # unit total variance, split evenly between the parts, no pseudo-variance
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01
    assert abs(np.mean(z * z)) < 0.01


def test_logdet_diagonal_two_rows():
    # rows (1,0) at noise 1 and (0,1) at noise 1 + D = 4, power 2:
    # 1 + 1 + 1/4 + 1/4 = 2.5
    h = np.eye(2, dtype=complex)
    val = core.logdet_capacity_term(h[:, None], 2.0, 3.0)[0]
    assert val == pytest.approx(math.log2(2.5), abs=1e-14)
    assert val == pytest.approx(1.321928, abs=1e-6)


def test_logdet_matches_dense_evaluation():
    rng = core.stream(77, 0)
    for _ in range(50):
        h = core.sample_cn01(rng, (2, 2))
        power = float(rng.uniform(0.1, 50.0))
        distortion = float(rng.uniform(0.0, 4.0))
        got = core.logdet_capacity_term(h[:, None], power, distortion)[0]
        s = np.diag(1.0 / np.sqrt([1.0, 1.0 + distortion]))
        m = np.eye(2) + (power / 2.0) * (s @ h @ h.conj().T @ s)
        sign, logdet = np.linalg.slogdet(m)
        assert sign == pytest.approx(1.0)
        assert got == pytest.approx(logdet / math.log(2.0), rel=1e-12)


def logdet_with_noise_pair(rows, power, s0, s1):
    """The kernel's closed form with a noise variance per row, in its
    operation order: c (norm0/s0 + norm1/s1) + (c c) det2 / (s0 s1)."""
    row0, row1 = rows
    c = power / 2.0
    norm0 = np.abs(row0[..., 0]) ** 2
    norm0 += np.abs(row0[..., 1]) ** 2
    norm1 = np.abs(row1[..., 0]) ** 2
    norm1 += np.abs(row1[..., 1]) ** 2
    det = row0[..., 0] * row1[..., 1]
    det -= row0[..., 1] * row1[..., 0]
    arg = det.real**2
    arg += det.imag**2
    norm0 /= s0
    norm1 /= s1
    norm0 += norm1
    norm0 *= c
    arg *= c * c
    arg /= s0 * s1
    arg += norm0
    np.log1p(arg, out=arg)
    arg /= core.LN2
    return arg


@pytest.mark.parametrize("distortion", [0.0, 1e-3, 0.5, 4.0, 1e6])
def test_logdet_is_the_noise_pair_formula_at_unit_and_one_plus_d(distortion):
    # bit for bit: the first row's unit noise divides nothing, which is exact
    rows = core.sample_cn01(core.stream(11, 0), (2, 300, 2))
    for power in (0.0, 0.3, 10.0, 1e5):
        got = core.logdet_capacity_term(rows, power, distortion)
        want = logdet_with_noise_pair(rows, power, 1.0, 1.0 + distortion)
        assert np.array_equal(got, want), power


def test_logdet_batch_matches_loop():
    rng = core.stream(5, 0)
    batch = core.sample_cn01(rng, (40, 2, 2))
    got = core.logdet_capacity_term((batch[:, 0], batch[:, 1]), 7.0, 2.0)
    assert got.shape == (40,)
    sing = [core.logdet_capacity_term(batch[i][:, None], 7.0, 2.0)[0] for i in range(40)]
    assert np.allclose(got, sing, rtol=1e-14)


def test_logdet_zero_power_is_zero():
    rng = core.stream(6, 0)
    h = core.sample_cn01(rng, (8, 2, 2))
    assert np.all(core.logdet_capacity_term((h[:, 0], h[:, 1]), 0.0, 0.0) == 0.0)


def test_logdet_input_validation():
    good = np.zeros((2, 1, 2), dtype=complex)
    # a batch of 2x2 channels as its two row arrays, with a leading axis:
    # no third row, no single row, no bare (2, 2) matrix
    for rows in (np.zeros((3, 1, 2), dtype=complex), np.zeros((1, 4, 2), dtype=complex),
                 np.zeros((0, 2), dtype=complex), (), np.zeros((2, 2), dtype=complex)):
        with pytest.raises(ValueError, match="2 arrays of one shape"):
            core.logdet_capacity_term(rows, 1.0, 0.0)
    with pytest.raises(ValueError, match="one shape"):
        core.logdet_capacity_term((np.zeros((4, 2)), np.zeros((3, 2))), 1.0, 0.0)
    with pytest.raises(ValueError):
        core.logdet_capacity_term(np.zeros(2, dtype=complex), 1.0, 0.0)
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, 1.0, -1.0)
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, 1.0, math.inf)
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, -1.0, 0.0)
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, math.nan, 0.0)
    # the power and the distortion are numbers as misobc._number takes them:
    # no strings, bools, None or noise pairs
    for bad in ("10", True, np.True_, None):
        with pytest.raises(ValueError, match="power must be a number"):
            core.logdet_capacity_term(good, bad, 0.0)
    for bad in ("1", True, None, (1.0, 2.0)):
        with pytest.raises(ValueError, match="distortion must be a number"):
            core.logdet_capacity_term(good, 1.0, bad)


def test_domain_error_is_a_value_error():
    assert issubclass(core.DomainError, ValueError)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    # a platform without an affinity call counts every CPU, and at least one
    monkeypatch.delattr(core.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(core.os, "cpu_count", lambda: 3)
    assert core._usable_cpus() == 3
    monkeypatch.setattr(core.os, "cpu_count", lambda: None)
    assert core._usable_cpus() == 1


def test_run_tasks_returns_results_in_item_order(monkeypatch):
    # later items finish first on four threads; the results keep item order
    monkeypatch.setattr(core, "_usable_cpus", lambda: 4)

    def slow_first(k):
        time.sleep(0.002 * (8 - k))
        return k * k

    assert list(core.run_tasks(slow_first, range(8))) == [k * k for k in range(8)]
    assert list(core.run_tasks(slow_first, [])) == []
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    assert list(core.run_tasks(slow_first, range(8))) == [k * k for k in range(8)]


@pytest.mark.parametrize("cpus, items", [(1, 5), (4, 1)])
def test_run_tasks_runs_inline_on_one_thread(monkeypatch, cpus, items):
    # one usable CPU or one item: no pool, every task in the caller
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started for one thread")

    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(core, "ThreadPoolExecutor", no_pool)
    caller = threading.get_ident()
    assert list(core.run_tasks(lambda k: (k, threading.get_ident()), range(items))) == [
        (k, caller) for k in range(items)]


def test_run_tasks_raises_the_first_error_once_its_threads_stop(monkeypatch):
    # item 4 fails first in time, item 2 first in item order: item 2's error
    # surfaces, and only after every pool thread has stopped
    monkeypatch.setattr(core, "_usable_cpus", lambda: 3)

    def task(k):
        if k == 2:
            time.sleep(0.05)
            raise RuntimeError("item 2 failed")
        if k == 4:
            raise RuntimeError("item 4 failed")
        return k

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="item 2 failed"):
        list(core.run_tasks(task, range(8)))
    assert threading.active_count() == before
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    with pytest.raises(RuntimeError, match="item 2 failed"):
        list(core.run_tasks(task, range(8)))


def test_run_tasks_keeps_two_tasks_per_thread_in_flight(monkeypatch):
    # a task starts only once the caller has taken all but 2 * threads - 1 of
    # the results before it, so results never pile up ahead of the caller
    for cpus, ahead in ((2, 4), (1, 1)):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        started = []

        def task(k):
            started.append(k)
            return k

        for taken, k in enumerate(core.run_tasks(task, range(50)), 1):
            assert k == taken - 1
            time.sleep(0.002)  # an eager runner would start every task meanwhile
            assert len(started) <= taken - 1 + ahead, (cpus, taken)


def test_only_core_starts_threads():
    # the thread policy lives in one module: only core imports
    # concurrent.futures, and no other module defines _usable_cpus
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        imports |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        defines = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if path.name == "core.py":
            assert "concurrent.futures" in imports and "_usable_cpus" in defines
        else:
            assert not any(m.split(".")[0] == "concurrent" for m in imports), path.name
            assert "_usable_cpus" not in defines, path.name


BLAS_CALLS = {"dot", "vdot", "vecdot", "inner", "matmul", "tensordot"}


def blas_uses(source):
    """Every construct in ``source`` that may hand work to BLAS, whose thread
    count is an environment setting: the @ operator (decorators are no
    operator, so they pass), a call to one of BLAS_CALLS or into a linalg
    module, and an einsum given ``optimize=``, which may route through
    tensordot."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            owner = func.value if isinstance(func, ast.Attribute) else None
            owner = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if (name in BLAS_CALLS or owner == "linalg"
                    or name == "einsum" and any(k.arg == "optimize" for k in node.keywords)):
                found.append(ast.unparse(node))
    return found


def test_blas_scan_tells_blas_calls_from_the_rest():
    flagged = ("a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "np.inner(a, b)",
               "np.vecdot(a, b)", "np.matmul(a, b)", "np.tensordot(a, b, 1)",
               "np.linalg.det(m)", "linalg.solve(m, b)", "from numpy.linalg import det",
               'np.einsum("i,i->", a, b, optimize=False)')
    for source in flagged:
        assert blas_uses(source), source
    passed = ("@decorator\ndef f():\n    pass", 'np.einsum("i,i->", a, b)',
              "a * b", "v.sum()", "np.log1p(v, out=v)")
    for source in passed:
        assert not blas_uses(source), source


def test_package_makes_no_blas_call():
    # a BLAS reduction sums in an order set by OpenBLAS's thread count, so
    # with none every result is the same under any BLAS thread setting
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        assert blas_uses(path.read_text(encoding="utf-8")) == [], path.name
