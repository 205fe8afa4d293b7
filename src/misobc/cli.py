"""Command line front end.

Every computation in the package is exposed as a subcommand with a
fully resolved, reproducible configuration echoed into each output
header: every parsed flag but ``--output`` and ``--dump``, plus the
subcommand.  ``_emit`` writes each CSV or JSON result with that echo.
Exit codes are stable: 0 success, 2 usage error, 3 numerical or domain
abort, 4 opt-in assertion failure.

The default seed can be overridden with the MISOBC_SEED environment
variable (decimal or 0x-prefixed hex).

Importing this module loads no NumPy: the parser reads its defaults from
the package, so a usage error or ``--help`` costs an interpreter start
and argparse.  Each subcommand checks its flags first and then imports
the modules it runs: ``capacity``, ``rq`` and ``rd --mode wyner`` load
:mod:`misobc.capacity` (with :mod:`misobc.core`, :mod:`misobc.oracles`
and NumPy), ``region`` and ``gap`` add :mod:`misobc.regions`, and
``simulate`` adds :mod:`misobc.scheme`.  These commands load no NumPy:
``rd --mode waterfill|suboptimal`` loads only the standard-library
:mod:`misobc.rd`, ``gap`` refuses a distortion below the certified
floor before it loads anything, and ``region`` likewise refuses a power
that is not finite and positive.  A request too large to allocate exits
3 with one ``error:`` line, as a domain abort does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    GAP_BOUND,
    MAX_BLOCKS,
    MIN_CERTIFIED_DISTORTION,
    _fmt,
    _round12,
    check_gap_distortion,
)

if TYPE_CHECKING:
    from .capacity import MCConfig, PowerGrid

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_ASSERT = 4

SEED_ENV = "MISOBC_SEED"


class UsageError(Exception):
    """Flag combination that the parser alone cannot reject."""


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError as err:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from err


def _parse_seed(text: str) -> int:
    return int(text, 0)


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            yield fp


def _touch(path) -> bool:
    """Check that ``path`` can be written without truncating it: create it
    if it is missing, and say whether this call created it."""
    try:
        open(path, "xb").close()
    except FileExistsError:
        open(path, "ab").close()
        return False
    return True


def _config(args) -> dict:
    """Every parsed flag but the output paths, and the subcommand."""
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("command", "func", "output", "dump")}
    cfg["subcommand"] = args.command
    return cfg


def _echo_line(cfg: dict) -> str:
    return "# config: " + json.dumps(cfg, sort_keys=True) + "\n"


def _write_json(fp, payload: dict) -> None:
    json.dump(payload, fp, sort_keys=True, indent=2)
    fp.write("\n")


def _emit(args, write_csv, json_fields: dict) -> None:
    """Write the result to --output: for --format csv the config echo line,
    then ``write_csv(fp)``; for json one object of the config and ``json_fields``."""
    cfg = _config(args)
    with _open_out(args.output) as fp:
        if args.format == "csv":
            fp.write(_echo_line(cfg))
            write_csv(fp)
        else:
            _write_json(fp, {"config": cfg, **json_fields})


def _assert_rows(rows, name: str, bound: float) -> int:
    """EXIT_ASSERT, after one stderr line per row whose ``name`` exceeds
    ``bound`` by more than three of its standard errors; else EXIT_OK."""
    code = EXIT_OK
    for r in rows:
        value, stderr = getattr(r, name), getattr(r, f"{name}_stderr")
        if value > bound + 3.0 * stderr:
            print(f"assertion failed: {name} {value:.6g} > {bound:g} + 3*stderr "
                  f"({stderr:.3g}) at P = {r.power:.6g}", file=sys.stderr)
            code = EXIT_ASSERT
    return code


def _grid_from(args) -> PowerGrid:
    from .capacity import PowerGrid

    if args.power is not None:
        return PowerGrid.single(args.power)
    return PowerGrid.default(num=args.grid_points, lo=args.grid_min, hi=args.grid_max)


def _mc_from(args) -> MCConfig:
    from .capacity import MCConfig

    # rd has no --workers and runs one; simulate only checks the result
    return MCConfig(samples=args.samples, seed=args.seed, workers=getattr(args, "workers", 1))


def _add_mc_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="Monte Carlo samples (default 10^6)")
    p.add_argument("--seed", type=_parse_seed, default=_default_seed(),
                   help=f"master seed (default 0x{DEFAULT_SEED:X}, "
                        f"env {SEED_ENV} overrides)")
    p.add_argument("--workers", type=int, default=1,
                   help="threads over the fixed sample blocks, at most one per block "
                        "and per usable CPU; "
                        "results do not depend on it (default 1; the library's "
                        "default is one per usable CPU)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--power", type=float, default=None,
                       help="single transmit power instead of a grid")
    group.add_argument("--grid-points", type=int, default=50,
                       help="number of log-spaced grid points (default 50)")
    p.add_argument("--grid-min", type=float, default=1e-2,
                   help="grid lower endpoint (default 1e-2)")
    p.add_argument("--grid-max", type=float, default=1e4,
                   help="grid upper endpoint (default 1e4)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default=None,
                   help="output path (default stdout)")


def cmd_capacity(args) -> int:
    from . import capacity

    if args.quantity == "c21" and args.distortion is not None:
        raise UsageError("c21 takes no --distortion")
    if args.quantity == "c22d" and args.distortion is None:
        raise UsageError("c22d needs --distortion")
    table = capacity.sweep(args.quantity, _grid_from(args), _mc_from(args),
                           distortion=args.distortion)
    _emit(args, table.to_csv, {"rows": table.to_json()})
    return EXIT_OK


def cmd_rq(args) -> int:
    from . import capacity

    table = capacity.ratio_sweep(args.distortion, _grid_from(args), _mc_from(args))
    _emit(args, table.to_csv, {"rows": table.to_json()})
    return _assert_rows(table.rows, "ratio", 1.0) if args.assert_le_one else EXIT_OK


def cmd_region(args) -> int:
    # the refusal costs no NumPy; at zero power c21 is 0 and has no region
    if not 0.0 < args.power < math.inf:
        raise ValueError(f"region needs a finite, strictly positive power, "
                         f"got --power {args.power:g}")
    from . import capacity, regions
    from .capacity import PowerGrid

    (point,) = capacity.estimate(("c21", "c22d"), PowerGrid.single(args.power), _mc_from(args),
                                 args.distortion)
    c21e, c22de = point.estimates
    outer = regions.outer_region(c21e.value)
    inner = regions.achievable_region(c21e.value, c22de.value)
    corners = regions.corner_points(inner)

    echo = _echo_line(_config(args))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    targets = {
        "outer_vertices.csv": lambda fp: regions.write_vertices_csv(outer, fp),
        "achievable_vertices.csv": lambda fp: regions.write_vertices_csv(inner, fp),
        "corners.csv": lambda fp: regions.write_corners_csv(corners, fp),
    }
    for name, writer in targets.items():
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(echo)
            writer(fp)
    print(f"c21 = {_fmt(c21e.value)} (stderr {_fmt(c21e.stderr)})")
    print(f"c22d = {_fmt(c22de.value)} (stderr {_fmt(c22de.stderr)})")
    sx, sy = corners.symmetric
    print(f"symmetric corner A = ({_fmt(sx)}, {_fmt(sy)})")
    for name in targets:
        print(f"wrote {outdir / name}")
    return EXIT_OK


def cmd_gap(args) -> int:
    # the refusal costs no NumPy, and names the flag that overrides it
    check_gap_distortion(args.distortion, args.allow_small_distortion,
                         "--allow-small-distortion")
    from . import regions

    report = regions.gap_sweep(
        args.distortion,
        _grid_from(args),
        _mc_from(args),
        allow_small_distortion=args.allow_small_distortion,
    )
    top = report.max_row()
    peak = dict(P=top.power, tau=top.tau, tau_stderr=top.tau_stderr)

    def write_csv(fp):
        report.to_csv(fp)
        fp.write("# max_tau: " + " ".join(f"{k}={_fmt(v)}" for k, v in peak.items()) + "\n")

    _emit(args, write_csv, {"rows": report.to_json(),
                            "max_tau": {k: _round12(v) for k, v in peak.items()}})
    return _assert_rows(report.rows, "tau", GAP_BOUND) if args.assert_theorem else EXIT_OK


def cmd_simulate(args) -> int:
    from . import scheme

    run_cfg = scheme.SchemeConfig(
        n=args.n,
        power=args.power,
        distortion=args.distortion,
        delta=args.delta,
        seed=args.seed,
    )
    # --samples is checked as every command checks it, but no simulate stage
    # reads it: phase 3 is sized from closed forms
    _mc_from(args)
    # an unwritable output path fails here, before the run costs anything;
    # an existing file is kept until the run has succeeded, and a file this
    # run created is removed if the run ends with exit 2 or 3
    created = []
    try:
        for path in (None if args.output == "-" else args.output, args.dump):
            if path is not None and _touch(path):
                created.append(path)
        transcript = scheme.run_scheme(run_cfg)
        report = scheme.summary(transcript)
        with _open_out(args.output) as fp:
            _write_json(fp, {"config": _config(args), "report": report})
        if args.dump is not None:
            with open(args.dump, "wb") as fp:
                scheme.dump_transcript(transcript, fp)
    except (ValueError, OSError, MemoryError):  # what main reports with exit 2 or 3
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise
    if args.assert_stats:
        problems = scheme.check_stats(transcript)
        if problems:
            for line in problems:
                print(f"assertion failed: {line}", file=sys.stderr)
            return EXIT_ASSERT
    return EXIT_OK


def _rd_variances(args):
    if args.const_sigma2 is not None:
        return [args.const_sigma2]
    try:
        variances = [float(tok) for tok in args.sigma2_list.split(",") if tok.strip()]
    except ValueError:
        variances = []
    if not variances:
        raise UsageError(f"--sigma2-list takes comma-separated numbers, "
                         f"got {args.sigma2_list!r}")
    return variances


def cmd_rd(args) -> int:
    if args.const_sigma2 is not None and args.sigma2_list is not None:
        raise UsageError("--const-sigma2 and --sigma2-list exclude each other")
    if args.gain_const is not None and args.gain_rayleigh:
        raise UsageError("--gain-const and --gain-rayleigh exclude each other")
    if args.mode in ("waterfill", "suboptimal"):
        if args.const_sigma2 is None and args.sigma2_list is None:
            raise UsageError("waterfill/suboptimal need --const-sigma2 or --sigma2-list")
        variances = _rd_variances(args)
        from . import rd

        fn = rd.rd_reverse_waterfill if args.mode == "waterfill" else rd.rd_suboptimal
        rate = fn(variances, args.budget)
    else:
        if args.sigx2 is None or args.sigu2 is None:
            raise UsageError("wyner mode needs --sigx2 and --sigu2")
        if args.gain_const is None and not args.gain_rayleigh:
            raise UsageError("wyner mode needs --gain-const or --gain-rayleigh")
        from . import capacity

        # a bad gain is reported before a bad --samples or --seed
        gain = capacity._gain(args.gain_const)
        rate = capacity.ergodic_wyner_rate(args.sigx2, args.sigu2, args.budget, gain,
                                           _mc_from(args))
    _emit(args, lambda fp: fp.write(_fmt(rate) + "\n"), {"rate": _round12(rate)})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misobc",
        description="Rate and simulation toolkit for the two-user broadcast "
                    "channel with delayed transmitter CSI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="sweep c21 or c22d over transmit power")
    p.add_argument("--quantity", choices=("c21", "c22d"), required=True)
    p.add_argument("--distortion", type=float, default=None,
                   help="quantization distortion D (c22d only)")
    _add_grid_flags(p)
    _add_mc_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("rq", help="sweep the forwarding rate and its ratio to c21")
    p.add_argument("--distortion", type=float, default=4.0,
                   help="quantization distortion D (default 4)")
    p.add_argument("--assert-le-one", action="store_true",
                   help="exit 4 unless ratio <= 1 + 3*stderr everywhere")
    _add_grid_flags(p)
    _add_mc_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_rq)

    p = sub.add_parser("region", help="emit outer/achievable vertices and corners")
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--distortion", type=float, default=4.0)
    p.add_argument("--output-dir", default=".",
                   help="directory for the three CSV files (default .)")
    _add_mc_flags(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("gap", help="per-user gap between outer and achievable regions")
    p.add_argument("--distortion", type=float, default=4.0)
    p.add_argument("--assert-theorem", action="store_true",
                   help=f"exit 4 unless max tau <= {GAP_BOUND} + 3*stderr")
    p.add_argument("--allow-small-distortion", action="store_true",
                   help="permit D below the certified value "
                        f"{MIN_CERTIFIED_DISTORTION:g}")
    _add_grid_flags(p)
    _add_mc_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("simulate", help="run the three-phase scheme end to end")
    p.add_argument("--n", type=int, required=True,
                   help=f"blocks per phase (1..{MAX_BLOCKS})")
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--distortion", type=float, default=4.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="accepted, checked and echoed, but unused: the reference "
                        "rates are exact")
    p.add_argument("--seed", type=_parse_seed, default=_default_seed())
    p.add_argument("--assert-stats", action="store_true",
                   help="exit 4 if noise/correlation invariants fail")
    p.add_argument("--dump", default=None,
                   help="optional binary transcript dump path")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("rd", help="scalar rate-distortion helpers")
    p.add_argument("--mode", choices=("waterfill", "suboptimal", "wyner"),
                   required=True)
    p.add_argument("--budget", type=float, required=True,
                   help="average distortion budget D")
    p.add_argument("--const-sigma2", type=float, default=None,
                   help="single source variance")
    p.add_argument("--sigma2-list", default=None,
                   help="comma-separated source variances")
    p.add_argument("--sigx2", type=float, default=None,
                   help="wyner: source variance")
    p.add_argument("--sigu2", type=float, default=None,
                   help="wyner: side-information noise variance")
    p.add_argument("--gain-const", type=float, default=None,
                   help="wyner: constant side-information gain")
    p.add_argument("--gain-rayleigh", action="store_true",
                   help="wyner: |CN(0,1)| random gain")
    # accepted and echoed in every mode, but only wyner at a Rayleigh gain draws samples
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="Monte Carlo samples, wyner mode only (default 10^6)")
    p.add_argument("--seed", type=_parse_seed, default=_default_seed(),
                   help=f"master seed, wyner mode only (default 0x{DEFAULT_SEED:X}, "
                        f"env {SEED_ENV} overrides)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_rd)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as err:
        # a malformed MISOBC_SEED surfaces while defaults are resolved
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, MemoryError) as err:  # DomainError too; a request too large to allocate
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        # subcommands touch the file system only to write --output, --dump
        # and --output-dir, so the failing path is an output path
        print(f"usage error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
