"""Acceptance criteria 5-7 over a range of master seeds.

The acceptance gate (tests/test_acceptance.py) runs its frozen search config
at one master seed. This diagnostic runs that config at each of the given
master seeds, deploys each champion with the test's own ``deploy`` and
``mean_curve``, and prints criteria 5, 6 and 7 per seed with their pass
counts. Beside criterion 7's drop (the curve's best minus its last epoch) it
prints the drop against the mean of the last 10 epochs and the curve's mean
absolute epoch-to-epoch change over the last 20 epochs, which tell a late
dip from a late oscillation. It is not part of the test suite.

    python scripts/acceptance_sweep.py [--seeds 0-9] [--coretypes Haswell,Sandybridge]

With --coretypes the sweep runs once per listed OpenBLAS core, each in a child
process with OPENBLAS_CORETYPE set (the variable acts only before numpy
loads), one after another, and each printed line starts with its core.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import test_acceptance as acc  # noqa: E402
from losslearn.reference import CrossEntropy  # noqa: E402
from losslearn.search import MetaConfig, meta_train  # noqa: E402
from losslearn.taylor import load_loss  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def seed_parser(default, doc=__doc__):
    """A parser with the --seeds option of a diagnostic script whose docstring is doc."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range(default),
                        help=f"master seeds, as N or FIRST-LAST (default {default})")
    return parser


def parse_seeds(argv, default, doc=__doc__):
    """The --seeds option of a diagnostic script whose docstring is doc."""
    return seed_parser(default, doc).parse_args(argv).seeds


def parse_args(argv):
    parser = seed_parser("0-9")
    parser.add_argument("--coretypes", type=lambda text: text.split(","), default=None,
                        help="OpenBLAS cores to run the sweep under, comma-separated")
    return parser.parse_args(argv)


def child(core, seeds):
    """The command and environment that run the sweep over seeds under one OpenBLAS core."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--seeds", f"{seeds.start}-{seeds.stop - 1}"]
    return argv, {**os.environ, "OPENBLAS_CORETYPE": core}


def late_curve(curve):
    """Criterion 7's drop, the drop against the mean of the last 10 epochs,
    and the mean absolute epoch-to-epoch change over the last 20 epochs."""
    best = curve.max()
    return best - curve[-1], best - curve[-10:].mean(), np.abs(np.diff(curve[-21:])).mean()


def main(argv=None):
    args = parse_args(argv)
    if args.coretypes:
        for core in args.coretypes:
            command, env = child(core, args.seeds)
            with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True) as run:
                for line in run.stdout:
                    print(f"{core}: {line}", end="", flush=True)
            if run.returncode:
                raise SystemExit(f"{core}: the sweep exited {run.returncode}")
        return
    seeds = args.seeds

    ce = CrossEntropy()  # the baselines do not depend on the master seed
    ce_blobs, ce_rings = acc.deploy(ce, acc.BLOBS), acc.deploy(ce, acc.RINGS)
    ce_drop, ce_late, ce_jitter = late_curve(acc.mean_curve(ce, acc.SMALL_BLOBS))
    print(f"CE: blobs {ce_blobs:.4f}, rings {ce_rings:.4f}, drop {ce_drop:.4f}, "
          f"last-10 drop {ce_late:.4f}, jitter {ce_jitter:.4f}", flush=True)

    passes = [0, 0, 0]
    for seed in seeds:
        with tempfile.TemporaryDirectory() as run_dir:
            meta_train(MetaConfig.from_dict({**acc.SEARCH_CONFIG, "master_seed": seed}), run_dir)
            champion = load_loss(Path(run_dir) / "best_loss.json")
        margin5 = acc.deploy(champion, acc.BLOBS) - ce_blobs
        margin6 = acc.deploy(champion, acc.RINGS) - ce_rings
        curve = acc.mean_curve(champion, acc.SMALL_BLOBS)
        drop, late, jitter = (None,) * 3 if curve is None else late_curve(curve)
        ok = (margin5 >= 0.03, margin6 >= 0.0,
              drop is not None and ce_drop >= 0.02 and drop <= 0.02)
        passes = [p + o for p, o in zip(passes, ok)]
        shown = ("diverged" if drop is None else
                 f"{drop:.4f} (last-10 drop {late:.4f}, jitter {jitter:.4f})")
        print(
            f"seed {seed}: c5 margin {margin5:+.4f} {'PASS' if ok[0] else 'FAIL'}, "
            f"c6 margin {margin6:+.4f} {'PASS' if ok[1] else 'FAIL'}, "
            f"c7 drop {shown} {'PASS' if ok[2] else 'FAIL'}",
            flush=True,
        )
    print(f"passes over {len(seeds)} seeds: c5 {passes[0]}, c6 {passes[1]}, c7 {passes[2]}")


if __name__ == "__main__":
    main()
