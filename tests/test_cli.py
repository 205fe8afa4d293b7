"""End-to-end command line checks, run in process through cli.main."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import misobc
from misobc import cli, regions, scheme
from misobc.regions import RateRegion

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

    outer = RateRegion.from_vertices(load_vertices("outer_vertices.csv"))
    inner = RateRegion.from_vertices(load_vertices("achievable_vertices.csv"))
    assert regions.is_subset(inner, outer)

    c22d = float(re.search(r"c22d = ([0-9.eE+-]+)", out).group(1))
    corner_lines = (tmp_path / "corners.csv").read_text().splitlines()
    label, ax, ay = corner_lines[2].split(",")
    assert label == "A"
    assert float(ax) == pytest.approx(c22d / 3.0, abs=1e-9)
    assert float(ax) == float(ay)


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


def test_gap_guards_small_distortion(capsys):
    code, _, err = run(capsys, ["gap", "--distortion", "3", "--power", "1", *FAST])
    assert code == 3
    assert "error" in err
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is only needed by the quadrature oracle; importing it up front
    # would dominate the start-up of every command
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, misobc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
