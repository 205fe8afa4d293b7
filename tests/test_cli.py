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
from misobc import capacity, cli, config, core, oracles, rd, regions, scheme

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


def refuse_to_compute(monkeypatch):
    """Make every entry point that computes a command's result raise
    AssertionError, which main does not catch."""
    def computed(*args, **kwargs):
        raise AssertionError("computed before the outputs were made")

    for module, name in ((capacity, "estimate"), (scheme, "run_scheme"),
                         (rd, "rd_reverse_waterfill")):
        monkeypatch.setattr(module, name, computed)


@pytest.mark.parametrize("argv, flag, value, blamed", [
    (["capacity", "--quantity", "c21", "--power", "10", *FAST], "--output", "plain/out", None),
    (["simulate", "--n", "8", "--power", "10", *FAST], "--dump", "plain/out", None),
    (["region", "--power", "10", *FAST], "--output-dir", "plain/out", None),
    (["simulate", "--n", "8", "--power", "10", *FAST], "--output", "plain/out", None),
    (["rq", "--power", "10", *FAST], "--output", "plain/out", None),
    (["gap", "--power", "10", *FAST], "--output", "plain/out", None),
    (["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1"], "--output",
     "plain/out", None),
    # the directory exists, and its third file is a directory: the first two
    # files are made, and removed again
    (["region", "--power", "10", *FAST], "--output-dir", "kept", "kept/corners.csv"),
], ids=["argv0---output", "argv1---dump", "argv2---output-dir", "argv3---output", "rq",
        "gap", "rd", "region_file_is_a_directory"])
def test_unwritable_output_path_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, flag,
                                                 value, blamed):
    # refused before anything is computed, and nothing this run made is left
    (tmp_path / "plain").write_text("")  # "plain/out" lies below a regular file
    (tmp_path / "kept" / "corners.csv").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    refuse_to_compute(monkeypatch)
    code, out, err = run(capsys, argv + [flag, str(tmp_path / value)])
    assert code == 2
    assert out == ""  # simulate checks both outputs before it runs, so nothing is reported
    assert err.startswith(f"usage error: cannot write {tmp_path / (blamed or value)}: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


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


def test_region_failing_estimate_leaves_no_new_directory(capsys, tmp_path):
    # the output directory is made before the estimate, and the directories
    # this run made are removed when the estimate aborts; one it found stays
    kept = tmp_path / "kept"
    kept.mkdir()
    for outdir in (tmp_path / "made" / "by" / "run", kept):
        code, out, err = run(capsys, ["region", "--power", "1e160",
                                      "--output-dir", str(outdir), *FAST])
        assert code == 3
        assert out == ""
        assert err.startswith("error: c22d is not finite at P = 1e+160")
        assert list(tmp_path.iterdir()) == [kept]
        assert list(kept.iterdir()) == []


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


def test_simulate_failing_assert_stats_exits_4_and_keeps_the_report(capsys, tmp_path):
    # at n = 2 the grids are too small for the statistics to hold: one
    # stderr line per violated invariant, and the report is written anyway
    target = tmp_path / "report.json"
    code, out, err = run(capsys, ["simulate", "--n", "2", "--power", "10", "--assert-stats",
                                  "--output", str(target)])
    problems = scheme.check_stats(scheme.run_scheme(scheme.SchemeConfig(n=2, power=10.0)))
    assert code == 4 and out == "" and problems
    assert err.splitlines() == [f"assertion failed: {line}" for line in problems]
    payload = json.loads(target.read_text())
    assert payload["config"]["assert_stats"] is True
    assert payload["report"]["config"]["n"] == 2


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


@pytest.mark.parametrize("flags, dump, code, message", [
    (["--power", "0.05", "--samples", "2000"], "new.bin", 3, "phase-3"),  # cannot keep up
    (["--power", "10", "--samples", "0"], "new.bin", 3, "samples"),  # rejected before the run
    (["--power", "10", *FAST], "plain/out", 2, "cannot write"),  # the dump lies below a file
    # the samples check and the output paths come before the phase-3 sizing
    (["--power", "0.05", "--samples", "0"], "new.bin", 3, "samples"),
    (["--power", "0.05", *FAST], "plain/out", 2, "cannot write"),
], ids=["infeasible_forwarding", "zero_samples", "unwritable_dump",
        "zero_samples_before_infeasible", "unwritable_dump_before_infeasible"])
def test_simulate_abort_removes_the_outputs_it_created(capsys, tmp_path, flags, dump, code,
                                                       message):
    (tmp_path / "plain").write_text("")
    got, out, err = run(capsys, ["simulate", "--n", "4", *flags, "--output",
                                 str(tmp_path / "new.json"), "--dump", str(tmp_path / dump)])
    assert got == code
    assert out == ""
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]
    assert (tmp_path / "plain").read_text() == ""


def output_at_estimate(monkeypatch, target):
    """Wrap capacity.estimate to note the bytes of ``target`` at each call,
    and return the list of notes."""
    seen, estimate = [], capacity.estimate

    def noting_estimate(*args, **kwargs):
        seen.append(target.read_bytes())
        return estimate(*args, **kwargs)

    monkeypatch.setattr(capacity, "estimate", noting_estimate)
    return seen


@pytest.mark.parametrize("argv", [
    ["capacity", "--quantity", "c21"],
    ["rq"],
    ["gap"],
], ids=lambda argv: argv[0])
def test_sweep_abort_removes_the_output_it_made_and_keeps_an_existing_one(
        capsys, monkeypatch, tmp_path, argv):
    # the output exists while the estimate runs; when the estimate aborts
    # (its error bar underflows), a file this run made is removed and an
    # existing file keeps its bytes
    target = tmp_path / "sweep.csv"
    seen = output_at_estimate(monkeypatch, target)
    argv = [*argv, "--power", "1e-300", "--samples", "1000", "--output", str(target)]
    for earlier in (None, b"earlier sweep\n"):
        if earlier is not None:
            target.write_bytes(earlier)
        seen.clear()
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "") and err.startswith("error: ")
        assert seen == [earlier or b""]
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["sweep.csv"])
    assert target.read_bytes() == b"earlier sweep\n"


@pytest.mark.parametrize("argv", [
    ["rq", "--distortion", "0.5", "--assert-le-one"],
    ["gap", "--distortion", "50", "--assert-theorem"],
], ids=lambda argv: argv[0])
def test_failing_assertion_exits_4_and_keeps_the_output(capsys, monkeypatch, tmp_path, argv):
    # the output is made before the estimate and written after it, whatever
    # the assertion then finds
    target = tmp_path / "sweep.csv"
    seen = output_at_estimate(monkeypatch, target)
    code, out, err = run(capsys, [*argv, "--power", "1000", *FAST, "--output", str(target)])
    assert (code, out) == (4, "") and err.startswith("assertion failed: ")
    assert seen == [b""]
    text = target.read_text()
    assert text.startswith("# config: ") and "1000" in text


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


@pytest.mark.parametrize("mc_flags", [["--seed", "1"], ["--seed", "2"], ["--samples", "10"],
                                      ["--samples", "1000000"], []])
def test_rd_wyner_rayleigh_prints_one_value_whatever_the_samples_and_seed(capsys, mc_flags):
    # the rate is exact, so the flags are echoed but enter nothing
    code, out, _ = run(capsys, ["rd", "--mode", "wyner", "--sigx2", "4", "--sigu2", "1",
                                "--gain-rayleigh", "--budget", "0.1", *mc_flags])
    assert code == 0
    assert out.splitlines()[1] == "3.38744701384"


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


@pytest.mark.parametrize("argv", [
    ["capacity", "--quantity", "c21", "--power", "10"],
    ["region", "--power", "10"],
    ["gap", "--power", "10"],
    ["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1"],
    ["simulate", "--n", "8", "--power", "10"],
], ids=lambda argv: argv[0])
def test_only_rq_takes_a_workers_flag(capsys, monkeypatch, tmp_path, argv):
    # the estimator sets its own thread count, and rd and simulate run no
    # estimate, so a worker count is a usage error, refused before any output
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --workers 2\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["capacity", "--quantity", "c21", "--power", "10"],
    ["rq", "--power", "10"],
    ["region", "--power", "10"],
    ["gap", "--power", "10"],
], ids=lambda argv: argv[0])
def test_workers_below_one_are_refused(capsys, monkeypatch, tmp_path, argv):
    # rq checks its inert flag; the other sweeps have no such flag
    monkeypatch.chdir(tmp_path)
    if argv[0] == "rq":
        code, out, err = run(capsys, [*argv, "--samples", "1000", "--workers", "0"])
        assert (code, out, err) == (3, "", "error: workers must be at least 1\n")
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--samples", "1000", "--workers", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_shared_names_have_one_definition():
    assert misobc.DomainError is core.DomainError is capacity.DomainError is config.DomainError
    assert regions.DomainError is scheme.DomainError is misobc.DomainError
    assert scheme.SchemeConfig.seed is misobc.DEFAULT_SEED
    assert config.MCConfig.seed is config.DEFAULT_SEED is misobc.DEFAULT_SEED
    assert config.MCConfig.samples is misobc.DEFAULT_SAMPLES
    for name in ("MCConfig", "MonteCarloEstimate"):
        assert getattr(capacity, name) is getattr(config, name), name
    for name in ("MCConfig", "MonteCarloEstimate", "SchemeConfig", "phase3_budget"):
        assert getattr(scheme, name) is getattr(config, name), name
    assert regions.GAP_BOUND is misobc.GAP_BOUND
    assert regions.MIN_CERTIFIED_DISTORTION is misobc.MIN_CERTIFIED_DISTORTION
    assert cli._fmt is misobc._fmt and cli._round12 is scheme._round12 is misobc._round12
    assert config.MAX_BLOCKS is misobc.MAX_BLOCKS
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
NUMERIC = ("misobc.config", "misobc.core", "misobc.capacity")
NO_NUMPY = ("numpy", "misobc.core", "misobc.capacity", "misobc.regions", "misobc.scheme")
# what the standard secrets module loads; only numpy.random imports it
OPENSSL = ("secrets", "hmac", "_hashlib")


@pytest.mark.parametrize("argv, code, loaded, unloaded", [
    pytest.param([], None, (), ("numpy",), id="import"),
    pytest.param(["--help"], 0, (), ("numpy",), id="help"),
    pytest.param(["capacity", "--no-such-flag"], 2, (), ("numpy",), id="bad_flag"),
    pytest.param(["capacity", "--quantity", "c21", "--power", "10", *SMALL], 0,
                 NUMERIC, ("misobc.regions", "misobc.scheme"), id="capacity"),
    pytest.param(["rq", "--power", "10", *SMALL], 0,
                 NUMERIC, ("misobc.regions", "misobc.scheme"), id="rq"),
    pytest.param(["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1"], 0,
                 ("misobc.rd",), NO_NUMPY + ("misobc.oracles",), id="rd"),
    pytest.param(["rd", "--mode", "suboptimal", "--sigma2-list", "1,4", "--budget", "1"], 0,
                 ("misobc.rd",), NO_NUMPY, id="rd_suboptimal"),
    pytest.param(["rd", "--mode", "waterfill", "--const-sigma2", "4", "--sigma2-list", "1",
                  "--budget", "1"], 2, (), NO_NUMPY + ("misobc.rd",), id="rd_conflict"),
    pytest.param(["rd", "--mode", "wyner", "--sigx2", "1", "--sigu2", "1", "--gain-const", "1",
                  "--budget", "0.25", *SMALL], 0,
                 ("misobc.rd",), NO_NUMPY + ("misobc.oracles",), id="rd_wyner"),
    pytest.param(["rd", "--mode", "wyner", "--sigx2", "4", "--sigu2", "1", "--gain-rayleigh",
                  "--budget", "0.1", *SMALL], 0,
                 ("misobc.rd", "misobc.oracles"), NO_NUMPY, id="rd_wyner_rayleigh"),
    pytest.param(["region", "--power", "10", *SMALL], 0,
                 NUMERIC + ("misobc.regions",), ("misobc.scheme",), id="region"),
    pytest.param(["gap", "--power", "10", *SMALL], 0,
                 NUMERIC + ("misobc.regions",), ("misobc.scheme",), id="gap"),
    pytest.param(["region", "--power", "0", *SMALL], 3, (), NO_NUMPY, id="region_zero_power"),
    # an output directory that cannot be made is refused before the estimate
    pytest.param(["region", "--power", "10", "--output-dir", os.devnull, *SMALL], 2,
                 ("misobc.config",), NO_NUMPY, id="region_dir_is_a_file"),
    pytest.param(["region", "--power", "10", "--output-dir", os.path.join(os.devnull, "out"),
                  *SMALL], 2, ("misobc.config",), NO_NUMPY, id="region_dir_below_a_file"),
    *(pytest.param(["gap", "--distortion", d, "--power", "10", *SMALL], 3, (), NO_NUMPY,
                   id=f"gap_refused_{d}") for d in ("2", "nan", "-1")),
    # an output path that cannot be written is refused before the sweep
    # loads anything, as is a flag combination the parser cannot reject
    *(pytest.param([*argv, "--power", "10", "--output", os.path.join(misobc.__file__, "out"),
                    *SMALL], 2, (), NUMERIC + NO_NUMPY, id=f"{argv[0]}_output_below_a_file")
      for argv in (["capacity", "--quantity", "c21"], ["rq"], ["gap"])),
    pytest.param(["capacity", "--quantity", "c21", "--distortion", "4", "--power", "10", *SMALL],
                 2, (), NUMERIC + NO_NUMPY, id="capacity_c21_distortion"),
    pytest.param(["simulate", "--n", "8", "--power", "10", *SMALL], 0,
                 ("misobc.config", "misobc.core", "misobc.scheme"),
                 ("misobc.capacity", "misobc.regions"), id="simulate"),
    pytest.param(["simulate", "--n", "8", "--power", "0.1", *SMALL], 3,
                 ("misobc.config",), NO_NUMPY, id="simulate_infeasible"),
])
def test_startup_loads_only_what_the_command_runs(tmp_path, argv, code, loaded, unloaded):
    # a cold command pays for every module it imports; no command needs
    # scipy, and none needs numpy to parse flags.  A command that loads no
    # numpy loads no OpenSSL either, which keeps it at about 15 MB resident
    if "numpy" in unloaded:
        unloaded += OPENSSL
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    report = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(report), *argv],
                   capture_output=True, cwd=tmp_path, env=env, check=True, timeout=120)
    result = json.loads(report.read_text())
    assert result["code"] == code
    modules = set(result["modules"])
    assert {"misobc", "misobc.cli", *loaded} <= modules
    assert modules.isdisjoint({"scipy", *unloaded})


# Runs the command line in a fresh interpreter, as STARTUP_PROBE does, with
# capacity.estimate wrapped to note at each call whether misobc.regions is
# loaded, and writes the exit code and those notes to the first argument.
ESTIMATE_ORDER_PROBE = """
import json, sys
from misobc import capacity, cli
estimate, regions_loaded = capacity.estimate, []

def noting_estimate(*args, **kwargs):
    regions_loaded.append("misobc.regions" in sys.modules)
    return estimate(*args, **kwargs)

capacity.estimate = noting_estimate
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fp:
    json.dump({"code": code, "regions_loaded": regions_loaded,
               "regions_at_exit": "misobc.regions" in sys.modules}, fp)
"""


def test_region_estimates_before_it_loads_the_region_algebra(tmp_path):
    # the region algebra's module and the estimator's scratch arrays are
    # never held at once, which keeps the command's peak memory down
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    report = tmp_path / "order.json"
    subprocess.run([sys.executable, "-c", ESTIMATE_ORDER_PROBE, str(report),
                    "region", "--power", "10", *SMALL],
                   capture_output=True, cwd=tmp_path, env=env, check=True, timeout=120)
    assert json.loads(report.read_text()) == {"code": 0, "regions_loaded": [False],
                                              "regions_at_exit": True}


# Runs ``python -m misobc.cli`` as the process entry does, with the
# arguments after the second, having first imported the standard secrets
# module if the second is "real".  At exit it writes to the file named by
# the first: the collector's freeze count, the OpenSSL modules loaded, the
# public names of the loaded secrets module, and, if numpy.random is
# loaded, the entropy of two SeedSequences built without a seed.
MAIN_PROBE = """
import atexit, gc, json, runpy, sys
report, preload = sys.argv.pop(1), sys.argv.pop(1)
if preload == "real":
    import secrets

def write_report():
    loaded = set(sys.modules)
    entropy = None
    if "numpy.random" in loaded:
        from numpy.random import SeedSequence
        entropy = [SeedSequence().entropy for _ in range(2)]
    secrets = sys.modules.get("secrets")
    with open(report, "w") as fp:
        json.dump({"frozen": gc.get_freeze_count(),
                   "openssl": sorted(loaded & {"_hashlib", "hmac", "hashlib"}),
                   "secrets": secrets and sorted(n for n in vars(secrets) if n[0] != "_"),
                   "entropy": entropy}, fp)

atexit.register(write_report)
runpy.run_module("misobc.cli", run_name="__main__", alter_sys=True)
"""


def entry_and_main(capsys, tmp_path, argv, preload=""):
    """Run ``argv`` through the process entry in a child started in
    ``tmp_path`` and through ``main`` in process; return the child's exit
    code and stdout, main's, and the probe's report."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    expected = capsys.readouterr().out
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    report = tmp_path / "entry.json"
    proc = subprocess.run([sys.executable, "-c", MAIN_PROBE, str(report), preload, *argv],
                          capture_output=True, cwd=tmp_path, env=env, timeout=120)
    return (proc.returncode, proc.stdout.decode()), (code, expected), json.loads(report.read_text())


@pytest.mark.parametrize("argv, draws", [
    (["rd", "--mode", "waterfill", "--sigma2-list", "1,4,9", "--budget", "1"], False),
    (["simulate", "--n", "8", "--power", "0.1", *SMALL], False),
    (["capacity", "--no-such-flag"], False),
    (["capacity", "--quantity", "c21", "--power", "10", *SMALL], True),
    (["rq", "--power", "10", *SMALL], True),
    (["region", "--power", "10", *SMALL], True),
    (["gap", "--power", "10", *SMALL], True),
    (["simulate", "--n", "8", "--power", "10", *SMALL], True),
], ids=["ok", "abort", "argparse_exit", "capacity", "rq", "region", "gap", "simulate"])
def test_process_entry_runs_main_and_freezes_the_collector(capsys, monkeypatch, tmp_path, argv,
                                                           draws):
    monkeypatch.chdir(tmp_path)  # region writes where the child does, and names the same paths
    entry, in_process, report = entry_and_main(capsys, tmp_path, argv)
    assert entry == in_process
    # every object alive when main returned sits in the permanent generation
    assert report["frozen"] > 1000
    # the entry's secrets holds randbits alone, and nothing loaded OpenSSL
    assert report["secrets"] == ["randbits"]
    assert report["openssl"] == []
    # a generator built without a seed still draws fresh OS entropy
    if draws:
        first, second = report["entropy"]
        assert first != second
    else:
        assert report["entropy"] is None


def test_process_entry_keeps_a_loaded_secrets_module(capsys, tmp_path):
    argv = ["capacity", "--quantity", "c21", "--power", "10", *SMALL]
    entry, in_process, report = entry_and_main(capsys, tmp_path, argv, preload="real")
    assert entry == in_process
    assert {"randbits", "token_hex", "SystemRandom"} <= set(report["secrets"])
    first, second = report["entropy"]
    assert first != second


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"misobc": "misobc.cli:run"}


# Modules whose module-level imports name only the standard library and
# each other, so importing them loads no NumPy.
STANDARD_LIBRARY_ONLY = ("__init__", "cli", "config", "oracles", "rd", "regions")


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
        "b58778bb8879fcc2b1c0f4d133ef047413c5c27e9c0035f6029ec86a0197ea8f"),
    "capacity_json": (["capacity", "--quantity", "c22d", "--distortion", "4", "--power", "10",
                       "--format", "json", *GOLDEN],
        "e9556dac502ecf46b20a824a90ed2c6d5bddb285785a3c187aafa07b275913a1"),
    "capacity_zero_power": (["capacity", "--quantity", "c21", "--power", "0", *GOLDEN],
        "a6d977c3b690896bb609270c08e5ceced6ee59a89696ace7e6d87df4da857209"),
    "rq_csv": (["rq", "--grid-points", "3", *GOLDEN],
        "ccdfee50d5719a0d2da5539228749d494b975bba2eaff23c17c2463b87a1c0a5"),
    "rq_json_workers2": (["rq", "--power", "10", "--format", "json", "--workers", "2", *GOLDEN],
        "26d04889c3e9e0a713cfa155f91fad158784b583eadfa4abdc6aef021e07d8dd"),
    "rq_assert_fails": (["rq", "--distortion", "0.5", "--grid-points", "3", "--grid-min", "1",
                         "--grid-max", "100", "--assert-le-one", *GOLDEN],
        "a3a8ed55952f9a96f3249d7de3503b293615199be1e895188fa6391d0e1e0ad5"),
    "gap_csv_assert": (["gap", "--grid-points", "3", "--assert-theorem", *GOLDEN],
        "8ed1a3da39ce4f44e0bb8724873e3f4400f0c695ced324127c8653f87f149ff4"),
    "gap_json": (["gap", "--power", "10", "--format", "json", *GOLDEN],
        "b5def33f98eec87578e7ac5373b1c40e941b48b7ca675aaefe4033eed45aa88a"),
    "gap_small_distortion": (["gap", "--distortion", "3", "--power", "1",
                              "--allow-small-distortion", *GOLDEN],
        "1f24dd69902ca4eb443ecb2d29f8fd439e512dfab5fa7b7f16d841b5c57ae989"),
    "region": (["region", "--power", "10", "--output-dir", f"{OUT}/region", *GOLDEN],
        "a29d2f78b40ef38a6918575d76bf41c60d9a9a4efc2fb3974f37182c1f8789e7"),
    "simulate": (["simulate", "--n", "16", "--power", "10", "--output", f"{OUT}/report.json",
                  "--dump", f"{OUT}/run.bin", *GOLDEN],
        "b70287e2adae42ec66d63600ec94351e7240fea534bc1a81926442241199be6b"),
    "rd_waterfill": (["rd", "--mode", "waterfill", "--sigma2-list", "1,4,9", "--budget", "1"],
        "beb811d8d68b6cad49431740fb8a445935c25d4f949f5e3bc7e5d78d6179dff0"),
    "rd_wyner_json": (["rd", "--mode", "wyner", "--sigx2", "1", "--sigu2", "1", "--gain-rayleigh",
                       "--budget", "0.01", "--format", "json", *GOLDEN],
        "7e9d75456fb0d4b11078aac373e988a5f8a98622269e273a998499522f25114a"),
}


@pytest.mark.parametrize("name", list(GOLDEN_SHA256))
def test_golden_output(capsys, tmp_path, name):
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
    "capacity": "1e11676c7050a75e7b0868a2e9220d1ff024d0cce6998aa8509a3422a86d5294",
    "rq": "f618d9c2c8311c77de767f40611f572c042aa34de1a06a99ffa1fceedee85c0b",
    "region": "6d341c193c96380512e92c01ee5b961b776a068e463243813dd30ebcca83ba91",
    "gap": "abe206eee714993fa31b7545fdaa1e24c924439a0e377f61efe81a26c21922be",
    "simulate": "f3b5bdad46d5e3461de6adeae20a938c8994207265efeac8fd8083ef88d68541",
    "rd": "2216b1276609c05686cc1e6d91e0eeb0bc307f6e354eff743fe35d16c8efa81b",
}


@pytest.mark.parametrize("sub", list(HELP_SHA256), ids=lambda sub: sub or "top")
def test_help_text_is_frozen(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"] if sub else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[sub]


# every flag that is accepted, checked and echoed, but read by nothing:
# name: (argv, flag, two values)
INERT_FLAGS = {
    "simulate_samples": (["simulate", "--n", "8", "--power", "10", "--seed", "9"],
                         "--samples", ("1000", "2000")),
    "rd_samples": (["rd", "--mode", "wyner", "--sigx2", "4", "--sigu2", "1", "--gain-rayleigh",
                    "--budget", "0.1"], "--samples", ("10", "1000000")),
    "rd_seed": (["rd", "--mode", "waterfill", "--const-sigma2", "4", "--budget", "1"],
                "--seed", ("1", "2")),
    "rq_workers": (["rq", "--grid-points", "3", *SMALL], "--workers", ("1", "2")),
}


def drop_echo(text, key, value):
    """``text``, a command's stdout or written file, with ``key`` taken out
    of its config echo after checking that it holds ``value``, and the
    number of echoes found."""
    if text.startswith("{"):
        payload = json.loads(text)
        assert payload["config"].pop(key) == int(value)
        return json.dumps(payload, sort_keys=True), 1
    lines = text.splitlines()
    found = 0
    for i, line in enumerate(lines):
        if line.startswith("# config: "):
            cfg = json.loads(line.removeprefix("# config: "))
            assert cfg.pop(key) == int(value)
            lines[i] = json.dumps(cfg, sort_keys=True)
            found += 1
    return "\n".join(lines), found


@pytest.mark.parametrize("name", list(INERT_FLAGS))
def test_inert_flags_change_only_their_echo(capsys, monkeypatch, tmp_path, name):
    # two values give the same output but for the flag's echo key, and the
    # flag's help says it is unused
    argv, flag, values = INERT_FLAGS[name]
    outputs = []
    for value in values:
        out_dir = tmp_path / value
        out_dir.mkdir()
        code, out, err = run(capsys, [a.replace(OUT, str(out_dir)) for a in argv]
                             + [flag, value])
        assert (code, err) == (0, "")
        texts = [out] + [p.read_text() for p in sorted(out_dir.rglob("*")) if p.is_file()]
        dropped = [drop_echo(t.replace(str(out_dir), "OUT"), flag[2:], value) for t in texts]
        assert sum(found for _, found in dropped) >= 1
        outputs.append([t for t, _ in dropped])
    assert outputs[0] == outputs[1]

    monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
    with pytest.raises(SystemExit):
        cli.main([argv[0], "--help"])
    (help_line,) = re.findall(rf"^  {flag} \w+ +(.*)$", capsys.readouterr().out, re.M)
    assert "unused" in help_line
