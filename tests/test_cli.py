"""End-to-end command line checks, run in process through cli.main."""

import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import misobc
from misobc import capacity, cli, core, oracles, rd, regions, scheme

FAST = ["--samples", "20000", "--seed", "9"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_capacity_single_power_csv(capsys):
    code, out, _ = run(capsys, ["capacity", "--quantity", "c21",
                                "--power", "2.0", *FAST])
    assert code == 0
    assert out.startswith("# config: ")
    header, rows = parse_csv(out)
    assert header == ["P", "value", "stderr", "samples", "seed"]
    assert len(rows) == 1
    assert float(rows[0]["P"]) == 2.0
    assert float(rows[0]["value"]) == pytest.approx(1.4427, abs=0.05)
    assert rows[0]["samples"] == "20000"
    assert rows[0]["seed"] == "9"


def test_capacity_output_is_reproducible(capsys, tmp_path):
    argv = ["capacity", "--quantity", "c22d", "--distortion", "4",
            "--power", "5.0", *FAST]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert first == second
    # and identical again when routed to a file
    target = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, argv + ["--output", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == first


def test_capacity_zero_power_allowed(capsys):
    code, out, _ = run(capsys, ["capacity", "--quantity", "c21",
                                "--power", "0", *FAST])
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["value"]) == 0.0
    assert float(rows[0]["stderr"]) == 0.0


def test_capacity_json_format(capsys):
    code, out, _ = run(capsys, ["capacity", "--quantity", "c21",
                                "--power", "1.0", "--format", "json", *FAST])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "rows"}
    assert payload["config"]["quantity"] == "c21"
    assert len(payload["rows"]) == 1


def test_capacity_flag_contradictions(capsys):
    code, _, err = run(capsys, ["capacity", "--quantity", "c21",
                                "--distortion", "4", "--power", "1", *FAST])
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, ["capacity", "--quantity", "c22d",
                                "--power", "1", *FAST])
    assert code == 2
    assert "usage error" in err


def test_argparse_rejections_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["capacity", "--quantity", "c21", "--power", "1",
                  "--grid-points", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["capacity", "--quantity", "c21", "--power", "10", *FAST], "--output"),
    (["simulate", "--n", "8", "--power", "10", *FAST], "--dump"),
    (["region", "--power", "10", *FAST], "--output-dir"),
    (["simulate", "--n", "8", "--power", "10", *FAST], "--output"),
])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, flag):
    (tmp_path / "plain").write_text("")
    target = tmp_path / "plain" / "out"  # below a regular file
    code, out, err = run(capsys, argv + [flag, str(target)])
    assert code == 2
    assert out == ""  # simulate checks both outputs before it runs, so nothing is reported
    assert err.startswith(f"usage error: cannot write {target}: ")
    assert "Traceback" not in err


def test_rq_ratio_below_one_at_certified_distortion(capsys):
    code, out, err = run(capsys, ["rq", "--distortion", "4", "--power", "1.0",
                                  "--assert-le-one", *FAST])
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["P", "rq", "c21", "ratio", "ratio_stderr"]
    assert float(rows[0]["ratio"]) < 1.0


@pytest.mark.parametrize("argv, message", [
    pytest.param(["capacity", "--quantity", "c22d", "--distortion", "4", "--power", "1e160"],
                 "error: c22d is not finite at P = 1e+160", id="capacity"),
    pytest.param(["rq", "--power", "1e308", "--assert-le-one"],
                 "error: c21 is not finite at P = 1e+308", id="rq"),
    # the exact reference stays finite; the accounting's log-dets overflow,
    # and raise before NumPy warns
    pytest.param(["simulate", "--n", "8", "--power", "1e200", "--seed", "9"],
                 "error: mutual information is not finite at P = 1e+200", id="simulate"),
])
def test_overflowing_estimate_exits_3(argv, message):
    # in a fresh interpreter, so a NumPy warning would reach stderr; before,
    # these printed inf or nan and exited 0
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "misobc.cli", *argv, "--samples", "1000"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1


def test_rq_assertion_trips_at_small_distortion(capsys):
    code, _, err = run(capsys, ["rq", "--distortion", "0.1", "--power", "1000",
                                "--assert-le-one", *FAST])
    assert code == 4
    assert "P = 1000" in err


def test_region_writes_noted_files(capsys, tmp_path):
    code, out, _ = run(capsys, ["region", "--power", "10", "--distortion", "4",
                                "--output-dir", str(tmp_path),
                                "--samples", "50000", "--seed", "9"])
    assert code == 0
    names = {"outer_vertices.csv", "achievable_vertices.csv", "corners.csv"}
    assert {p.name for p in tmp_path.iterdir()} == names
    for name in names:
        assert str(tmp_path / name) in out

    def load_vertices(name):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "R1,R2"
        return [tuple(map(float, ln.split(","))) for ln in lines[2:]]

    # both polygons lie in the outer region of the printed c21, to the
    # 12 significant digits the files carry
    c21 = float(re.search(r"c21 = ([0-9.eE+-]+)", out).group(1))
    c22d = float(re.search(r"c22d = ([0-9.eE+-]+)", out).group(1))
    outer = regions.outer_region(c21)
    for name in ("outer_vertices.csv", "achievable_vertices.csv"):
        points = load_vertices(name)
        assert len(points) >= 3
        for x, y in points:
            assert x >= 0.0 and y >= 0.0
            for h in outer.constraints:
                assert h.a * x + h.b * y <= h.c + 1e-9, (name, x, y)
    corner_lines = (tmp_path / "corners.csv").read_text().splitlines()
    label, ax, ay = corner_lines[2].split(",")
    assert label == "A"
    assert float(ax) == pytest.approx(c22d / 3.0, abs=1e-9)
    assert float(ax) == float(ay)


@pytest.mark.parametrize("power", ["1e-100", "5e-324", "1e-80"])
def test_rq_underflowing_error_bar_exits_3(capsys, power):
    # c21**4 in the ratio's error bar underflows: before, 1e-80 printed a
    # wrong stderr and the smaller powers raised ZeroDivisionError
    code, out, err = run(capsys, ["rq", "--power", power, "--samples", "1000"])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: c21 is too small at P = {float(power):g}: ")
    assert err.count("\n") == 1


def test_gap_underflowing_error_bar_exits_3(capsys):
    # the squared terms of c21's error bar underflow: before, the stderr
    # columns printed 0
    code, out, err = run(capsys, ["gap", "--power", "1e-300", "--samples", "1000"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: c21 is too small at P = 1e-300: ")
    assert err.count("\n") == 1


def test_gap_csv_flags_max_row(capsys):
    code, out, _ = run(capsys, ["gap", "--power", "10", *FAST])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "P,c21,c21_stderr,c22d,c22d_stderr,tau,tau_stderr"
    assert len(lines) == 4
    row = lines[2].split(",")
    footer = lines[3]
    assert footer == f"# max_tau: P={row[0]} tau={row[5]} tau_stderr={row[6]}"


def test_gap_json_and_theorem_assertion(capsys):
    code, out, _ = run(capsys, ["gap", "--power", "10", "--format", "json",
                                "--assert-theorem", *FAST])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "rows", "max_tau"}
    assert payload["max_tau"]["tau"] == payload["rows"][0]["tau"]
    assert payload["max_tau"]["tau"] < regions.GAP_BOUND


@pytest.mark.parametrize("power", ["0", "-1", "nan", "inf"])
def test_region_refuses_a_power_without_a_region(capsys, tmp_path, power):
    # refused before any draw, naming the flag; the output directory is not made
    outdir = tmp_path / "region"
    code, out, err = run(capsys, ["region", "--power", power, "--output-dir", str(outdir),
                                  *FAST])
    assert code == 3
    assert out == ""
    assert err == (f"error: region needs a finite, strictly positive power, "
                   f"got --power {float(power):g}\n")
    assert not outdir.exists()


def test_gap_guards_small_distortion(capsys):
    code, out, err = run(capsys, ["gap", "--distortion", "3", "--power", "1", *FAST])
    assert code == 3
    assert out == ""
    # the command line names its flag, the library its keyword
    assert err == ("error: distortion 3 is below the certified choice 4; "
                   "pass --allow-small-distortion to run anyway\n")
    code, _, _ = run(capsys, ["gap", "--distortion", "3", "--power", "1",
                              "--allow-small-distortion", *FAST])
    assert code == 0


def test_simulate_json_report(capsys):
    argv = ["simulate", "--n", "8", "--power", "10", *FAST]
    code, first, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(first)
    assert set(payload) == {"config", "report"}
    report = payload["report"]
    assert report["phase3_budget"] > 0
    assert report["config"]["n"] == 8
    assert len(report["achieved_rate_pair"]) == 2
    # byte-identical on a repeat run with the same seed
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert first == second


def test_simulate_single_block_run(capsys):
    code, out, _ = run(capsys, ["simulate", "--n", "1", "--power", "2",
                                "--samples", "5000", "--seed", "9"])
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["phase3_budget"] == 1


def test_simulate_dump_round_trip(capsys, tmp_path):
    dump = tmp_path / "run.bin"
    code, _, _ = run(capsys, ["simulate", "--n", "8", "--power", "10",
                              "--dump", str(dump), *FAST])
    assert code == 0
    with open(dump, "rb") as fp:
        back = scheme.read_transcript_dump(fp)
    assert back["u1"].shape == (8, 8, 2)
    assert np.isfinite(back["quant_step"])
    assert back["quant_indices"].shape[1] == 2


def test_simulate_assert_stats_clean(capsys):
    code, _, err = run(capsys, ["simulate", "--n", "128", "--power", "10",
                                "--assert-stats", "--samples", "20000",
                                "--seed", "31"])
    assert code == 0
    assert err == ""


def test_simulate_full_size_run_passes_assertions(capsys):
    code, out, err = run(capsys, ["simulate", "--n", "256", "--power", "10",
                                  "--distortion", "4", "--assert-stats"])
    assert code == 0
    assert err == ""
    report = json.loads(out)["report"]
    assert report["noise_var_user1"] == pytest.approx(5.0, rel=0.05)
    assert report["noise_var_user2"] == pytest.approx(5.0, rel=0.05)


def test_simulate_infeasible_forwarding_exits_3(capsys):
    code, _, err = run(capsys, ["simulate", "--n", "8", "--power", "10",
                                "--delta", "3.0", *FAST])
    assert code == 3
    assert "phase-3" in err


def test_simulate_lattice_overflow_exits_3(capsys):
    # at P = 1e22 the overheard mixture spans ~1e11 lattice steps of
    # sqrt(24), past int32: the quantizer refuses before anything is written
    code, out, err = run(capsys, ["simulate", "--n", "8", "--power", "1e22",
                                  "--samples", "3000", "--seed", "9"])
    assert code == 3
    assert out == ""
    assert "lattice coordinates overflow int32" in err



def test_simulate_overflowing_quantizer_step_exits_3(capsys):
    code, out, err = run(capsys, ["simulate", "--n", "4", "--power", "10",
                                  "--distortion", "1e308"])
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: distortion 1e+308 is too large: "
                                "its quantizer step overflows a double"]

def test_simulate_abort_keeps_existing_outputs(capsys, tmp_path):
    output, dump = tmp_path / "report.json", tmp_path / "run.dump"
    output.write_text("earlier report\n")
    dump.write_bytes(b"earlier dump")
    code, out, _ = run(capsys, ["simulate", "--n", "8", "--power", "10", "--delta", "3.0",
                                *FAST, "--output", str(output), "--dump", str(dump)])
    assert code == 3
    assert out == ""
    assert output.read_text() == "earlier report\n"
    assert dump.read_bytes() == b"earlier dump"


@pytest.mark.parametrize("flags, dump, code", [
    (["--power", "0.05", "--samples", "2000"], "new.bin", 3),  # forwarding cannot keep up
    (["--power", "10", "--samples", "0"], "new.bin", 3),  # rejected before the run
    (["--power", "10", *FAST], "plain/out", 2),  # the dump path lies below a regular file
], ids=["infeasible_forwarding", "zero_samples", "unwritable_dump"])
def test_simulate_abort_removes_the_outputs_it_created(capsys, tmp_path, flags, dump, code):
    (tmp_path / "plain").write_text("")
    got, out, _ = run(capsys, ["simulate", "--n", "4", *flags, "--output",
                               str(tmp_path / "new.json"), "--dump", str(tmp_path / dump)])
    assert got == code
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]
    assert (tmp_path / "plain").read_text() == ""


def test_rd_waterfill_single_source(capsys):
    code, out, _ = run(capsys, ["rd", "--mode", "waterfill",
                                "--const-sigma2", "4", "--budget", "1"])
    assert code == 0
    assert float(out.splitlines()[1]) == 2.0


def test_rd_waterfill_variance_list(capsys):
    code, out, _ = run(capsys, ["rd", "--mode", "waterfill",
                                "--sigma2-list", "1,4", "--budget", "1"])
    assert code == 0
    assert float(out.splitlines()[1]) == 1.0


def test_rd_suboptimal_unit_source(capsys):
    code, out, _ = run(capsys, ["rd", "--mode", "suboptimal",
                                "--const-sigma2", "1", "--budget", "1"])
    assert code == 0
    assert float(out.splitlines()[1]) == 1.0


def test_rd_wyner_constant_gain(capsys):
    code, out, _ = run(capsys, ["rd", "--mode", "wyner", "--sigx2", "1",
                                "--sigu2", "1", "--gain-const", "1",
                                "--budget", "0.25", *FAST])
    assert code == 0
    assert float(out.splitlines()[1]) == 1.0



@pytest.mark.parametrize("gain", [["--gain-const", "1"], ["--gain-rayleigh"]])
def test_rd_wyner_prices_a_rate_whose_intermediates_overflow(capsys, gain):
    # signal_var * noise_var overflows a double, but the rate is finite; it
    # is scale-free, so the unit variances at budget 1e-301 price the same
    code, out, _ = run(capsys, ["rd", "--mode", "wyner", "--sigx2", "1e300", "--sigu2", "1e300",
                                *gain, "--budget", "0.1", "--samples", "10"])
    assert code == 0
    rate = float(out.splitlines()[1])
    code, out, _ = run(capsys, ["rd", "--mode", "wyner", "--sigx2", "1", "--sigu2", "1",
                                *gain, "--budget", "1e-301", "--samples", "10"])
    assert code == 0
    assert rate == pytest.approx(float(out.splitlines()[1]), rel=1e-12)
    if gain[0] == "--gain-const":
        assert rate == pytest.approx(math.log2(5e300), rel=1e-12)

def test_rd_wyner_json_format(capsys):
    code, out, _ = run(capsys, ["rd", "--mode", "wyner", "--sigx2", "1",
                                "--sigu2", "1", "--gain-const", "1",
                                "--budget", "0.25", "--format", "json", *FAST])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"config", "rate"}
    assert payload["rate"] == 1.0


def test_rd_wyner_rejects_oversized_budget(capsys):
    code, _, err = run(capsys, ["rd", "--mode", "wyner", "--sigx2", "1",
                                "--sigu2", "1", "--gain-const", "1",
                                "--budget", "0.6", *FAST])
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("mode", ["waterfill", "suboptimal"])
def test_rd_prices_variances_whose_sum_overflows(capsys, mode):
    # the sum 2e308 overflows a double, the mean and the rate do not
    code, out, err = run(capsys, ["rd", "--mode", mode, "--sigma2-list", "1e308,1e308",
                                  "--budget", "1"])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "1023.15385323"


@pytest.mark.parametrize("budget", ["1e308", "1.5e308"])
def test_rd_waterfill_budget_over_an_overflowing_mean_is_free(capsys, budget):
    code, out, err = run(capsys, ["rd", "--mode", "waterfill", "--sigma2-list", "1e308,1e308",
                                  "--budget", budget])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "0"


def test_request_too_large_to_allocate_is_a_numeric_abort(capsys):
    # NumPy refuses the 7.28 TiB grid at once, before anything is allocated
    code, out, err = run(capsys, ["capacity", "--quantity", "c21",
                                  "--grid-points", "1000000000000"])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")


def test_simulate_memory_error_removes_the_outputs_it_created(capsys, tmp_path, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("out of memory")

    monkeypatch.setattr(scheme, "run_scheme", exhausted)
    code, out, err = run(capsys, ["simulate", "--n", "4", "--power", "10", *FAST, "--output",
                                  str(tmp_path / "new.json"), "--dump", str(tmp_path / "new.bin")])
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--mode", "waterfill", "--const-sigma2", "1e308", "--budget", "1e-308"],
    ["--mode", "suboptimal", "--sigma2-list", "1e308,1e308", "--budget", "1e-300"],
], ids=["waterfill", "suboptimal"])
def test_rd_overflow_is_a_numeric_abort(capsys, flags):
    # an overflowing rate ends with exit 3 and one error line, not an inf
    code, out, err = run(capsys, ["rd", *flags])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "rate is not finite" in err


def test_rd_malformed_variance_list_is_a_usage_error(capsys):
    code, out, err = run(capsys, ["rd", "--mode", "waterfill",
                                  "--sigma2-list", "1,a", "--budget", "1"])
    assert code == 2
    assert out == ""
    assert err == "usage error: --sigma2-list takes comma-separated numbers, got '1,a'\n"


@pytest.mark.parametrize("text", [",", " , ", ""])
def test_rd_empty_variance_list_is_a_usage_error(capsys, text):
    # a list with no numbers is a malformed flag value, not a numerical abort
    code, out, err = run(capsys, ["rd", "--mode", "waterfill",
                                  "--sigma2-list", text, "--budget", "1"])
    assert code == 2
    assert out == ""
    assert err == f"usage error: --sigma2-list takes comma-separated numbers, got {text!r}\n"


@pytest.mark.parametrize("argv", [
    ["capacity", "--quantity", "c21", "--power", "1", "--samples", "1000"],
    ["simulate", "--n", "8", "--power", "10", "--samples", "1000"],
])
def test_negative_seed_names_the_flag_value(capsys, argv):
    code, out, err = run(capsys, argv + ["--seed", "-1"])
    assert code == 3
    assert out == ""
    assert err == "error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("flags, message", [
    (["--mode", "waterfill", "--const-sigma2", "4", "--sigma2-list", "1,4"],
     "--const-sigma2 and --sigma2-list exclude each other"),
    (["--mode", "wyner", "--sigx2", "1", "--sigu2", "1", "--gain-const", "1",
      "--gain-rayleigh"],
     "--gain-const and --gain-rayleigh exclude each other"),
])
def test_rd_conflicting_flags_are_a_usage_error(capsys, flags, message):
    code, out, err = run(capsys, ["rd", *flags, "--budget", "0.25", "--samples", "1000"])
    assert code == 2
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_rd_takes_no_workers_flag():
    # no rd mode runs threads, so a worker count would be echoed but unused
    with pytest.raises(SystemExit) as exc:
        cli.main(["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1",
                  "--workers", "2"])
    assert exc.value.code == 2


def test_rd_missing_mode_flags(capsys):
    code, _, err = run(capsys, ["rd", "--mode", "waterfill", "--budget", "1"])
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, ["rd", "--mode", "wyner", "--budget", "0.1",
                                "--sigx2", "1", "--sigu2", "1"])
    assert code == 2
    code, _, err = run(capsys, ["rd", "--mode", "wyner", "--budget", "0.1",
                                "--gain-const", "1"])
    assert code == 2


def test_seed_env_var_sets_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "123")
    code, out, _ = run(capsys, ["capacity", "--quantity", "c21", "--power", "1",
                                "--samples", "20000"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["seed"] == "123"
    monkeypatch.setenv(cli.SEED_ENV, "0x10")
    code, out, _ = run(capsys, ["capacity", "--quantity", "c21", "--power", "1",
                                "--samples", "20000"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["seed"] == "16"


def test_seed_env_var_rejected_cleanly(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "not-a-seed")
    code, _, err = run(capsys, ["capacity", "--quantity", "c21", "--power", "1"])
    assert code == 2
    assert "usage error" in err


def test_shared_names_have_one_definition():
    assert misobc.DomainError is core.DomainError is capacity.DomainError
    assert regions.DomainError is scheme.DomainError is misobc.DomainError
    assert capacity.DEFAULT_SEED is scheme.SchemeConfig.seed is misobc.DEFAULT_SEED
    assert capacity.DEFAULT_SAMPLES is misobc.DEFAULT_SAMPLES
    assert regions.GAP_BOUND is misobc.GAP_BOUND
    assert regions.MIN_CERTIFIED_DISTORTION is misobc.MIN_CERTIFIED_DISTORTION
    assert cli._fmt is misobc._fmt and cli._round12 is scheme._round12 is misobc._round12
    assert scheme.MAX_BLOCKS is misobc.MAX_BLOCKS
    for name in ("c21_oracle", "c22d_oracle", "rq_oracle"):
        assert getattr(capacity, name) is getattr(oracles, name), name
    assert regions.write_csv is misobc.write_csv
    assert capacity._Table is regions._Table is misobc._Table
    assert core.LN2 is capacity.LN2 is oracles.LN2 is rd.LN2 is misobc.LN2


# Runs the command line in a fresh interpreter and writes its exit code and
# the names of the modules it loaded to the file named by the first argument;
# without further arguments it only imports misobc.cli.
STARTUP_PROBE = """
import json, sys
from misobc import cli
code = None
if sys.argv[2:]:
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as stop:
        code = stop.code
with open(sys.argv[1], "w") as fp:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fp)
"""

SMALL = ["--samples", "2000", "--seed", "9"]
NUMERIC = ("misobc.core", "misobc.capacity")
NO_NUMPY = ("numpy", *NUMERIC, "misobc.regions", "misobc.scheme")


@pytest.mark.parametrize("argv, code, loaded, unloaded", [
    pytest.param([], None, (), ("numpy",), id="import"),
    pytest.param(["--help"], 0, (), ("numpy",), id="help"),
    pytest.param(["capacity", "--no-such-flag"], 2, (), ("numpy",), id="bad_flag"),
    pytest.param(["capacity", "--quantity", "c21", "--power", "10", *SMALL], 0,
                 NUMERIC, ("misobc.regions", "misobc.scheme"), id="capacity"),
    pytest.param(["rq", "--power", "10", *SMALL], 0,
                 NUMERIC, ("misobc.regions", "misobc.scheme"), id="rq"),
    pytest.param(["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1"], 0,
                 ("misobc.rd",), NO_NUMPY, id="rd"),
    pytest.param(["rd", "--mode", "suboptimal", "--sigma2-list", "1,4", "--budget", "1"], 0,
                 ("misobc.rd",), NO_NUMPY, id="rd_suboptimal"),
    pytest.param(["rd", "--mode", "waterfill", "--const-sigma2", "4", "--sigma2-list", "1",
                  "--budget", "1"], 2, (), NO_NUMPY + ("misobc.rd",), id="rd_conflict"),
    pytest.param(["rd", "--mode", "wyner", "--sigx2", "1", "--sigu2", "1", "--gain-const", "1",
                  "--budget", "0.25", *SMALL], 0,
                 NUMERIC, ("misobc.regions", "misobc.scheme"), id="rd_wyner"),
    pytest.param(["region", "--power", "10", *SMALL], 0,
                 NUMERIC + ("misobc.regions",), ("misobc.scheme",), id="region"),
    pytest.param(["gap", "--power", "10", *SMALL], 0,
                 NUMERIC + ("misobc.regions",), ("misobc.scheme",), id="gap"),
    pytest.param(["region", "--power", "0", *SMALL], 3, (), NO_NUMPY, id="region_zero_power"),
    *(pytest.param(["gap", "--distortion", d, "--power", "10", *SMALL], 3, (), NO_NUMPY,
                   id=f"gap_refused_{d}") for d in ("2", "nan", "-1")),
    pytest.param(["simulate", "--n", "8", "--power", "10", *SMALL], 0,
                 NUMERIC + ("misobc.scheme",), ("misobc.regions",), id="simulate"),
])
def test_startup_loads_only_what_the_command_runs(tmp_path, argv, code, loaded, unloaded):
    # a cold command pays for every module it imports; no command needs
    # scipy, and none needs numpy to parse flags
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop(cli.SEED_ENV, None)
    report = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(report), *argv],
                   capture_output=True, cwd=tmp_path, env=env, check=True, timeout=120)
    result = json.loads(report.read_text())
    assert result["code"] == code
    modules = set(result["modules"])
    assert {"misobc", "misobc.cli", *loaded} <= modules
    assert modules.isdisjoint({"scipy", *unloaded})


# Modules whose module-level imports name only the standard library and
# each other, so importing them loads no NumPy.
STANDARD_LIBRARY_ONLY = ("__init__", "cli", "oracles", "rd", "regions")


def module_level_imports(source):
    """The absolute names of the modules that importing ``source``, a module
    of the package, imports: every import outside functions and classes but
    in no ``if TYPE_CHECKING:`` block; ``from . import x`` names the
    submodule ``misobc.x`` if there is one, else the package."""
    here = Path(misobc.__file__).parent
    names = []
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                names.append(node.module)
            elif node.module:
                names.append(f"misobc.{node.module}")
            else:
                names += [f"misobc.{alias.name}" if (here / f"{alias.name}.py").exists()
                          else "misobc" for alias in node.names]
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            nodes += node.orelse
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            nodes += [child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
    return names


def numpy_free(name):
    """Whether importing ``name`` keeps NumPy out: a standard-library module
    or the package or one of STANDARD_LIBRARY_ONLY."""
    top, _, sub = name.partition(".")
    if top == "misobc":
        return sub in ("", *STANDARD_LIBRARY_ONLY)
    return top in sys.stdlib_module_names


def test_import_scan_tells_numpy_free_imports_from_the_rest():
    flagged = ("import numpy as np", "from numpy import log", "from . import core",
               "from . import DomainError, capacity", "from .capacity import PowerGrid",
               "try:\n    import scipy\nexcept ImportError:\n    pass",
               "if FAST:\n    from . import scheme")
    for source in flagged:
        assert not all(map(numpy_free, module_level_imports(source))), source
    passed = ("import math", "from __future__ import annotations", "from . import _real, rd",
              "from .oracles import c21_oracle",
              "if TYPE_CHECKING:\n    from .capacity import PowerGrid",
              "def f():\n    from . import capacity", "class C:\n    import numpy")
    for source in passed:
        assert all(map(numpy_free, module_level_imports(source))), source


@pytest.mark.parametrize("name", STANDARD_LIBRARY_ONLY)
def test_module_level_imports_load_no_numpy(name):
    # the static twin of test_startup_loads_only_what_the_command_runs: what
    # these modules import when they load is the standard library and each other
    source = (Path(misobc.__file__).parent / f"{name}.py").read_text(encoding="utf-8")
    names = module_level_imports(source)
    assert names and [m for m in names if not numpy_free(m)] == [], name


GOLDEN = ["--samples", "3000", "--seed", "7"]
OUT = "{out}"  # replaced by a path under the test's tmp directory

# sha256 of the exit code, stdout, stderr and every written file of a
# command, with the tmp directory replaced by a fixed string: the format of
# every result, the config echo included, must not move
GOLDEN_SHA256 = {
    "capacity_csv": (["capacity", "--quantity", "c21", "--grid-points", "4",
                      "--output", f"{OUT}/c21.csv", *GOLDEN],
        "a322015855c7c6a0f64b4d9c3255f0af889fb3c3780b1c32e7ad6ac8f8d048c5"),
    "capacity_json": (["capacity", "--quantity", "c22d", "--distortion", "4", "--power", "10",
                       "--format", "json", *GOLDEN],
        "49444b7afd01c24c2bde4788c78fc7795c3f3735d3b972b555d2f5d4a1d31030"),
    "capacity_zero_power": (["capacity", "--quantity", "c21", "--power", "0", *GOLDEN],
        "4354ea9993872297b37858e947a93d2f32bda07aa3a47e606e96c19b55d66480"),
    "rq_csv": (["rq", "--grid-points", "3", *GOLDEN],
        "ccdfee50d5719a0d2da5539228749d494b975bba2eaff23c17c2463b87a1c0a5"),
    "rq_json_workers2": (["rq", "--power", "10", "--format", "json", "--workers", "2", *GOLDEN],
        "26d04889c3e9e0a713cfa155f91fad158784b583eadfa4abdc6aef021e07d8dd"),
    "rq_assert_fails": (["rq", "--distortion", "0.5", "--grid-points", "3", "--grid-min", "1",
                         "--grid-max", "100", "--assert-le-one", *GOLDEN],
        "a3a8ed55952f9a96f3249d7de3503b293615199be1e895188fa6391d0e1e0ad5"),
    "gap_csv_assert": (["gap", "--grid-points", "3", "--assert-theorem", *GOLDEN],
        "349a06a7ff77eeb1d1cb3fb4d5a04e69853aa35f6d21c0dd66ab5466fc6c9b8d"),
    "gap_json": (["gap", "--power", "10", "--format", "json", *GOLDEN],
        "8d7d599e1fec46b2cd99e879c132d12c3d220da468be7f63dbe968e57a3a66b6"),
    "gap_small_distortion": (["gap", "--distortion", "3", "--power", "1",
                              "--allow-small-distortion", *GOLDEN],
        "bf434fba28e262330914ef256bbf05422f62611f4613058ba5919f65773e953f"),
    "region": (["region", "--power", "10", "--output-dir", f"{OUT}/region", *GOLDEN],
        "d0e3a4a59b15e24294aa55d996465f7f470121257f6e0bdf0f4a8bd2fe880e5c"),
    "simulate": (["simulate", "--n", "16", "--power", "10", "--output", f"{OUT}/report.json",
                  "--dump", f"{OUT}/run.bin", *GOLDEN],
        "b70287e2adae42ec66d63600ec94351e7240fea534bc1a81926442241199be6b"),
    "rd_waterfill": (["rd", "--mode", "waterfill", "--sigma2-list", "1,4,9", "--budget", "1"],
        "beb811d8d68b6cad49431740fb8a445935c25d4f949f5e3bc7e5d78d6179dff0"),
    "rd_wyner_json": (["rd", "--mode", "wyner", "--sigx2", "1", "--sigu2", "1", "--gain-rayleigh",
                       "--budget", "0.01", "--format", "json", *GOLDEN],
        "a4e9632bb8818d191cbc500bcba97878af0dae14625b955a61c3714a13ab3424"),
}


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_golden_output(capsys, monkeypatch, tmp_path, name):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    argv, digest = GOLDEN_SHA256[name]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = cli.main([a.replace(OUT, str(out_dir)) for a in argv])
    captured = capsys.readouterr()
    blob = b"%d\n--stdout--\n%s--stderr--\n%s" % (
        code, captured.out.encode(), captured.err.encode())
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        blob += b"--file %s--\n%s" % (path.relative_to(out_dir).as_posix().encode(),
                                      path.read_bytes())
    assert hashlib.sha256(blob.replace(str(out_dir).encode(), b"OUT")).hexdigest() == digest


# sha256 of `misobc [SUBCOMMAND] --help` with COLUMNS=80, as argparse of
# CPython 3.11 formats it: flags, defaults and help strings must not move
HELP_SHA256 = {
    "": "935a68c298fbc4549b732806f03808a8b26560e167987debd72a1b0f8923296d",
    "capacity": "a293e37e3269e73d9554e2803a46c8c487928fa391afbb6c67fc128867d1815e",
    "rq": "067f70372f0e402732e73a10b777bc71c4c825d4df1b597124aecae42e4eb04d",
    "region": "119dc4abfb8582b442e7ed52b25d5dda34c232a1b76531723ee1bc519b1cbb50",
    "gap": "803c51a60d78f94a53ba2fefeab6878381f4258bc72926063bb3c391ca56bd40",
    "simulate": "f3b5bdad46d5e3461de6adeae20a938c8994207265efeac8fd8083ef88d68541",
    "rd": "33e7465373d855753e52f48838fe2bdbb61b0a5e89b0fc20f3b8abf719c0a23c",
}


@pytest.mark.parametrize("sub", list(HELP_SHA256), ids=lambda sub: sub or "top")
def test_help_text_is_frozen(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"] if sub else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[sub]
