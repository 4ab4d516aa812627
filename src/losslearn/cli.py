"""Command line front end.

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
config files, unresolvable selectors), 3 for failures at run time.
Diagnostics go to stderr; data goes to the requested output files. The
single scalar a command produces (final accuracy for `train`) is printed
to stdout so it can be captured in scripts.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .bench import (
    BenchmarkGrid,
    curve_to_csv,
    inspect_loss_csv,
    loss_from_selector,
    noise_matrix_csv,
    run_benchmark,
    run_single_training,
)
from .config import ConfigError
from .search import MetaConfig, meta_train
from .taylor import LossFormatError


def _load_json(path, what):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{what} file {path} not found or unreadable ({exc.strerror})") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None


def _output(path):
    """ConfigError unless path's directory exists and path is no directory; None passes."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ConfigError(f"cannot write {path}: it is a directory or its directory is missing")


def _run_dir(path):
    """ConfigError if path exists and is no directory; a missing one is made by the run."""
    if Path(path).exists() and not Path(path).is_dir():
        raise ConfigError(f"cannot use {path} as the output directory: it is not a directory")


def cmd_meta_train(args):
    _run_dir(args.out)
    cfg = MetaConfig.from_dict(_load_json(args.config, "config"))
    meta_train(cfg, args.out, stop_after=args.stop_after)
    print(f"run complete; artifacts in {args.out}", file=sys.stderr)
    return 0


def cmd_train(args):
    _output(args.curve_out)
    loss = loss_from_selector(args.loss)
    acc, diverged, curve = run_single_training(
        loss,
        args.dataset,
        args.arch,
        args.noise,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        val_fraction=args.val_fraction,
        seed=args.seed,
        curves=bool(args.curve_out),
    )
    if args.curve_out:
        Path(args.curve_out).write_text(curve_to_csv(curve))
    if diverged:
        print("training diverged; reporting accuracy 0", file=sys.stderr)
    print(f"{acc:.6f}")
    return 0


def cmd_benchmark(args):
    _run_dir(args.out)
    grid = BenchmarkGrid.from_dict(_load_json(args.config, "grid"))
    table = run_benchmark(grid, args.out)
    for loss in table.losses:
        print(f"{loss}: average rank {table.averages[loss]:.3f}", file=sys.stderr)
    return 0


def cmd_inspect_loss(args):
    _output(args.out)
    loss = loss_from_selector(args.loss)
    Path(args.out).write_text(inspect_loss_csv(loss, resolution=args.resolution))
    return 0


def cmd_make_noise_matrix(args):
    _output(args.out)
    try:
        text = noise_matrix_csv(args.noise, args.classes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    Path(args.out).write_text(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="losslearn",
        description="Search for and benchmark polynomial classification losses.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meta-train", help="run the loss search loop")
    p.add_argument("--config", required=True, help="search config JSON")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help="pause after this many new generations (resume by rerunning)",
    )
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("train", help="train one network with one loss")
    p.add_argument("--loss", required=True, help="loss selector or loss file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--arch", required=True)
    p.add_argument("--noise", default="none")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--curve-out", default=None, help="write the training curve CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="run a benchmark grid")
    p.add_argument("--config", required=True, help="grid config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("inspect-loss", help="dump a loss surface as CSV")
    p.add_argument("--loss", required=True, help="loss selector or loss file")
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect_loss)

    p = sub.add_parser("make-noise-matrix", help="dump a label transition matrix")
    p.add_argument("--noise", required=True, help='e.g. "sym:0.4", "matrix:t.csv" or "none"')
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_noise_matrix)

    return parser


def main_entry(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 for usage errors and 0 for --help; keep both
        return exc.code if isinstance(exc.code, int) else 2
    if args.verbose:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(message)s"
        )
    try:
        return args.func(args)
    except (ConfigError, LossFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main_entry())
