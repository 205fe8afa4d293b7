"""Real arguments: every finite-and-sign check goes through ``misobc._real``,
so each entry point refuses a bad value with one message format."""

import io
import math
from pathlib import Path

import numpy as np
import pytest

import misobc
from misobc import capacity, core, quantizer, rd, regions, scheme
from misobc.capacity import MCConfig, PowerGrid
from misobc.quantizer import DitheredQuantizer
from misobc.scheme import SchemeConfig

_ROWS = np.zeros((2, 1, 2), dtype=complex)
_MC = MCConfig(samples=100, seed=4)
_OUTER = regions.outer_region(1.0)

# (entry point called with one argument replaced, the argument's name, positive)
# for the pairs that no other test checks with the message
PAIRS = [
    pytest.param(lambda v: misobc.check_gap_distortion(v), "distortion", True,
                 id="check_gap_distortion"),
    pytest.param(lambda v: PowerGrid((v,)), "grid point", False, id="PowerGrid"),
    pytest.param(lambda v: PowerGrid.single(v), "grid point", False, id="PowerGrid.single"),
    pytest.param(lambda v: capacity.c21_oracle(v), "power", False, id="c21_oracle"),
    pytest.param(lambda v: capacity.ergodic_wyner_rate(v, 1.0, 0.1, 0.5, _MC), "signal_var",
                 True, id="wyner-signal_var"),
    pytest.param(lambda v: capacity.ergodic_wyner_rate(1.0, v, 0.1, 0.5, _MC), "noise_var",
                 True, id="wyner-noise_var"),
    pytest.param(lambda v: core.logdet_capacity_term(_ROWS, v, (1.0, 1.0)), "power", False,
                 id="logdet-power"),
    pytest.param(lambda v: core.logdet_capacity_term(_ROWS, 1.0, (v, 1.0)), "noise variance",
                 True, id="logdet-noise0"),
    pytest.param(lambda v: core.logdet_capacity_term(_ROWS, 1.0, (1.0, v)), "noise variance",
                 True, id="logdet-noise1"),
    pytest.param(lambda v: quantizer.step_for_distortion(v), "distortion", True,
                 id="step_for_distortion"),
    pytest.param(lambda v: DitheredQuantizer(v, dither_seed=1), "step", True,
                 id="DitheredQuantizer"),
    pytest.param(lambda v: quantizer.write_indices(io.BytesIO(), v,
                                                   np.zeros((2, 2), dtype=np.int32)),
                 "step", True, id="write_indices"),
    pytest.param(lambda v: rd.rd_reverse_waterfill([1.0, 4.0], v), "distortion_budget", True,
                 id="waterfill-budget"),
    pytest.param(lambda v: rd.rd_suboptimal([1.0, 4.0], v), "distortion_budget", True,
                 id="suboptimal-budget"),
    pytest.param(lambda v: rd.rd_reverse_waterfill([1.0, v], 1.0), "variances", False,
                 id="waterfill-variances"),
    pytest.param(lambda v: rd.rd_suboptimal([1.0, v], 1.0), "variances", False,
                 id="suboptimal-variances"),
    pytest.param(lambda v: regions.outer_region(v), "c21_value", False, id="outer_region"),
    pytest.param(lambda v: regions.achievable_region(v, 1.0), "c21_value", True,
                 id="achievable-c21"),
    pytest.param(lambda v: regions.achievable_region(1.0, v), "c22d_value", True,
                 id="achievable-c22d"),
    pytest.param(lambda v: regions.gap_closed_form(v, 1.0), "c21_value", True,
                 id="gap_closed_form-c21"),
    pytest.param(lambda v: regions.gap_closed_form(1.0, v), "c22d_value", True,
                 id="gap_closed_form-c22d"),
    pytest.param(lambda v: regions.erode(_OUTER, v), "tau", False, id="erode"),
    pytest.param(lambda v: SchemeConfig(n=4, power=v), "power", True, id="SchemeConfig-power"),
    pytest.param(lambda v: SchemeConfig(n=4, power=1.0, distortion=v), "distortion", True,
                 id="SchemeConfig-distortion"),
    pytest.param(lambda v: SchemeConfig(n=4, power=1.0, delta=v), "delta", True,
                 id="SchemeConfig-delta"),
    pytest.param(lambda v: scheme.achieved_rate_pair(v, 1.0, 1.0), "c22d_value", False,
                 id="achieved-c22d"),
    pytest.param(lambda v: scheme.achieved_rate_pair(1.0, v, 1.0), "rq_value", False,
                 id="achieved-rq"),
    pytest.param(lambda v: scheme.achieved_rate_pair(1.0, 1.0, v), "c21_value", True,
                 id="achieved-c21"),
]


@pytest.mark.parametrize("call, name, positive", PAIRS)
def test_real_arguments_share_one_message(call, name, positive):
    rule = "positive" if positive else "nonnegative"
    bad = (math.nan, math.inf, -math.inf, -1.0) + ((0.0, np.float32(0.0)) if positive else ())
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} must be finite and {rule}$"):
            call(value)
    if not positive:
        call(0.0)  # zero is a legal value of a nonnegative argument


def test_real_returns_a_float():
    assert misobc._real(np.int64(3), "x") == 3.0 and type(misobc._real(3, "x")) is float
    assert misobc._real(0, "x") == 0.0
    assert misobc._real(np.float32(0.5), "x", positive=True) == 0.5
    with pytest.raises(ValueError, match="^x must be a number, got None$"):
        misobc._real(None, "x")


def test_only_the_package_module_checks_real_arguments():
    # the finite-and-sign rule and its message live in misobc._real: no
    # other module writes its own copy
    for path in sorted(Path(misobc.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert ("must be finite and" in text) == (path.name == "__init__.py"), path.name
