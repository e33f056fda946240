"""Command-line front end.

Subcommands: simulate (the synthetic grid), emse (real-data empirical MSE),
toy (the one-predictor study), diagnose (theory checkers on one seeded draw
of a simulate config), and olhd (print a low-correlation design).

Exit codes, each failure reported as one line on stderr:

* 0 success, also when the reader of stdout closes it early (``| head``):
  the rest of the output is discarded and nothing goes to stderr
* 2 configuration error: ``ConfigError``, including a config file that
  cannot be read as UTF-8, or ``InfeasibleDesign`` when the requested r and
  p cannot give a nonsingular design or the OLHD descent would need more
  than 2 GiB (8 r^2 bytes, so r > 16384), or a ``MemoryError`` when a size
  such as n or r asks for more memory than numpy can allocate (the line
  names the subcommand)
* 3 data error: ``DataError``, an input or output file that cannot be
  opened (the output path is checked before the run starts), or, in
  diagnose, ``DegenerateBox`` when a predictor column leaves a zero-width
  theta box
* 4 numerical failure: failed cells, listed by error class with the last
  error's message after the CSV is written, or any other ``LowconError``

The environment variable LOWCON_OUTPUT_DIR, when set, redirects every output
file into that directory (basenames preserved); everything else comes from
the config file or flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .designs import generate_olhd
from .exceptions import (
    ConfigError,
    DataError,
    DegenerateBox,
    InfeasibleDesign,
    LowconError,
)
from .harness import (
    diagnose,
    ingest_csv,
    load_config,
    run_emse,
    run_simulation,
    toy_config,
    write_result_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _resolve_out(path: str | None) -> Path | None:
    """The output path after LOWCON_OUTPUT_DIR, opened for appending so that
    an unwritable path raises its ``OSError`` before the run starts. An
    existing file keeps its bytes; a file this check creates is removed."""
    if path is None:
        return None
    out = Path(path)
    out_dir = os.environ.get("LOWCON_OUTPUT_DIR")
    if out_dir:
        out = Path(out_dir) / out.name
    existed = out.exists()
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a"):
        pass
    if not existed:
        out.unlink()
    return out


def _emit(result, out: Path | None) -> int:
    for row in result.rows:
        print(
            f"{row.method:7s} dist={row.dist} misspec={row.misspec} r={row.r:5d} "
            f"mse={row.mse:.6g} log_mse={row.log_mse:.4f} "
            f"median_kappa={row.median_kappa:.4g} reps={row.replicate_count}"
        )
    if out is not None:
        write_result_csv(result.rows, out)
        print(f"wrote {out}")
    if result.failed_cells:
        print(f"failed cells: {result.failed_cells} (last error: {result._last_error})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args.out or config.output_path or "lowcon_results.csv")
    return _emit(run_simulation(config), out)


def _cmd_emse(args) -> int:
    config = load_config(args.config)
    predictors = [c.strip() for c in args.predictors.split(",") if c.strip()]
    if not predictors:
        raise ConfigError("--predictors must name at least one column")
    out = _resolve_out(args.out or config.output_path)
    dataset = ingest_csv(args.data, args.response, predictors)
    if dataset.dropped_rows:
        print(f"dropped {dataset.dropped_rows} incomplete rows")
    return _emit(run_emse(dataset, config), out)


def _cmd_toy(args) -> int:
    config = toy_config(
        r_list=(args.r,), replicates=args.replicates, seed=args.seed
    )
    out = _resolve_out(args.out)
    return _emit(run_simulation(config), out)


def _cmd_diagnose(args) -> int:
    config = load_config(args.config)
    for e in diagnose(config, alpha=args.alpha):
        line = (
            f"{e.method:7s} r={e.r} kappa={e.kappa_sub:.4g} "
            f"worst_case={e.worst_case_bound:.6g}"
        )
        if e.sp_design is not None:
            line += (
                f" s1(D)={e.s1_perturbation:.4g} sp(L)={e.sp_design:.4g} "
                f"assumption={'ok' if e.assumption_holds else 'violated'}"
            )
            if e.assumption_holds:
                line += (
                    f" kappa_slack={e.kappa_bound_slack:.4g} "
                    f"trace_slack={e.trace_bound_slack:.4g}"
                )
        print(line)
    return EXIT_OK


def _cmd_olhd(args) -> int:
    if args.p < 1:
        raise ConfigError(f"olhd needs --p >= 1, got {args.p}")
    if args.r < 2:
        raise ConfigError(f"olhd needs --r >= 2, got {args.r}")
    if args.seed < 0:
        raise ConfigError(f"olhd needs --seed >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    design = generate_olhd(args.r, args.p, rng)
    print(f"kappa={design.kappa!r} max_abs_corr={design.max_abs_corr!r}")
    for point in design.points:
        print(",".join(repr(float(v)) for v in point))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowcon",
        description="Subsampling experiments for measurement-constrained regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the synthetic simulation grid")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    emse = sub.add_parser("emse", help="empirical MSE against full-sample surrogates")
    emse.add_argument("--config", required=True)
    emse.add_argument("--data", required=True, help="CSV dataset path")
    emse.add_argument("--response", required=True, help="response column name")
    emse.add_argument("--predictors", required=True,
                      help="comma-separated predictor column names")
    emse.add_argument("--out", default=None)
    emse.set_defaults(func=_cmd_emse)

    toy = sub.add_parser("toy", help="one-predictor toy comparison")
    toy.add_argument("--r", type=int, required=True)
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--replicates", type=int, default=100)
    toy.add_argument("--out", default=None)
    toy.set_defaults(func=_cmd_toy)

    diag = sub.add_parser("diagnose", help="theory diagnostics for one seeded draw")
    diag.add_argument("--config", required=True)
    diag.add_argument("--alpha", type=float, required=True)
    diag.set_defaults(func=_cmd_diagnose)

    olhd = sub.add_parser("olhd", help="print a low-correlation Latin hypercube design")
    olhd.add_argument("--r", type=int, required=True)
    olhd.add_argument("--p", type=int, required=True)
    olhd.add_argument("--seed", type=int, default=0)
    olhd.set_defaults(func=_cmd_olhd)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``); the interpreter's last
        # flush then writes to devnull and stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ConfigError, InfeasibleDesign) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a size that no check bounds, such as n or --r in the trillions
        print(f"config error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DegenerateBox, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except LowconError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
