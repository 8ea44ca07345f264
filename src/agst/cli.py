"""Command-line interface: run, sweep, convert, gradcheck."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .data import DatasetFormatError, convert_content_release
from .experiments import (
    METHODS,
    PROTOCOLS,
    SWEEP_AXES,
    ExperimentSpec,
    run_experiment,
    run_sweep,
    single_blas_thread,
    with_parameters,
    write_sweep_csv,
)
from .gradcheck import PASS_BAR, run_gradcheck_suite

log = logging.getLogger(__name__)


def _checked(convert, accept, expected: str):
    """An argparse type refusing text that ``convert`` cannot read or whose value
    ``accept`` rejects; argparse prints an ArgumentTypeError's message as is."""
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_unit_open_float = _checked(float, lambda v: 0.0 < v < 1.0, "a value in (0, 1)")
_float_list = _checked(lambda raw: [float(v) for v in raw.split(",") if v.strip()],
                       lambda values: len(values) > 0, "comma-separated numbers")


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", required=True, help="dataset directory")
    sub.add_argument("--protocol", choices=PROTOCOLS)
    sub.add_argument("--k", type=_positive_int, help="labeled nodes per class")
    sub.add_argument("--rate", type=_unit_open_float,
                     help="label rate for the imbalanced protocol")
    sub.add_argument("--method", choices=METHODS)
    sub.add_argument("--runs", type=_positive_int)
    sub.add_argument("--seed", type=_non_negative_int)
    sub.add_argument("--workers", type=_positive_int)
    sub.add_argument("--val-per-class", type=_non_negative_int)
    # hyperparameters; experiments.PARAMETERS says where each one lives
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--steps", type=_positive_int)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--momentum", type=float)
    sub.add_argument("--lambda1", type=float)
    sub.add_argument("--lambda2", type=float)
    sub.add_argument("--beta-add", type=float)
    sub.add_argument("--beta-remove", type=float)
    sub.add_argument("--iterations", type=_positive_int)
    sub.add_argument("--lr", type=float)
    sub.add_argument("--weight-decay", type=float)
    sub.add_argument("--dropout", type=float)
    sub.add_argument("--patience", type=_non_negative_int)
    sub.add_argument("--max-epochs", type=_positive_int)
    sub.add_argument("--no-val-epochs", type=_positive_int)
    sub.add_argument("--hidden", type=_positive_int)
    sub.add_argument("--best-iteration", action="store_true",
                     help="report the best-validation iteration instead of the last")


# flags a command reads itself rather than passing on
_COMMAND_FLAGS = ("command", "func", "output", "axis", "values")


def _given(args: argparse.Namespace) -> dict:
    """The parameters set on the command line.  The parsers suppress absent
    flags, so every other parameter keeps the default its dataclass or
    function declares."""
    return {name: value for name, value in vars(args).items() if name not in _COMMAND_FLAGS}


def _cmd_run(args: argparse.Namespace) -> int:
    spec = with_parameters(ExperimentSpec(), _given(args))
    report = run_experiment(spec)
    out = Path(args.output)
    out.write_text(json.dumps(report.to_dict(), indent=2))
    print(f"method={report.method} protocol={report.protocol} runs={len(report.records)}")
    print(f"accuracy: {report.mean:.4f} +/- {report.ci95:.4f} (95% CI)")
    print(f"wall: {report.wall_ms:.0f} ms, report written to {out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = with_parameters(ExperimentSpec(), _given(args))
    rows = run_sweep(spec, args.axis, args.values)
    write_sweep_csv(rows, args.output)
    for row in rows:
        print(f"{row.axis}={row.value:g}: {row.mean:.4f} +/- {row.ci95:.4f}")
    print(f"sweep written to {args.output}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    summary = convert_content_release(args.input, args.output)
    print(f"converted: n={summary['n']} m={summary['m']} f={summary['f']} "
          f"c={summary['c']} (skipped {summary['skipped_citations']} citation rows)")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    report = run_gradcheck_suite(**_given(args))
    print(f"max relative error over {report.instances} instances: {report.max_rel_error:.3e}")
    if report.max_rel_error < PASS_BAR:
        print("gradcheck: PASS")
        return 0
    print("gradcheck: FAIL")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agst",
                                     description="graph self-training toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate a method over repeated splits",
                              argument_default=argparse.SUPPRESS)
    _add_experiment_flags(run)
    run.add_argument("--output", default="report.json", help="JSON report path")
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser("sweep", help="sweep one hyperparameter axis",
                                argument_default=argparse.SUPPRESS)
    _add_experiment_flags(sweep)
    sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    sweep.add_argument("--values", type=_float_list, required=True,
                       help="comma-separated axis values")
    sweep.add_argument("--output", default="sweep.csv", help="CSV output path")
    sweep.set_defaults(func=_cmd_sweep)

    convert = commands.add_parser("convert",
                                  help="convert a .content/.cites release to the dataset format")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.set_defaults(func=_cmd_convert)

    gradcheck = commands.add_parser("gradcheck", help="finite-difference gradient check",
                                    argument_default=argparse.SUPPRESS)
    gradcheck.add_argument("--instances", type=_positive_int)
    gradcheck.add_argument("--seed", type=_non_negative_int)
    gradcheck.set_defaults(func=_cmd_gradcheck)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DatasetFormatError, ValueError, OSError, RuntimeError) as exc:
        # RuntimeError: a broken worker pool, or an error annotate could not rebuild
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    # in-process runs (--workers 1) would otherwise keep one BLAS thread per core
    single_blas_thread()
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
