"""Digests of every artifact a fixed command set writes, to compare checkouts.

Runs a fixed set of commands in-process through the command line's
``main_entry``, inside OUT, then prints ``sha256  path`` for every file under
OUT (paths relative to OUT, sorted), the stdout of each ``train``, the
stderr of ``benchmark`` (its average-rank lines) and the sha256 of the
trained parameters and momentum of two networks trained through library
calls, which no artifact holds. A change meant to leave every output
byte-identical prints the same lines as its parent checkout on the same
machine and BLAS build, at OPENBLAS_NUM_THREADS=1 and with it unset, on all
CPUs and under taskset -c 0:

    OPENBLAS_NUM_THREADS=1 python scripts/artifact_digests.py OUT1
    python scripts/artifact_digests.py OUT
    OPENBLAS_NUM_THREADS=1 taskset -c 0 python scripts/artifact_digests.py OUT1C1
    taskset -c 0 python scripts/artifact_digests.py OUTC1

Compare at both thread settings: on two or more CPUs only the pinned run sends
the cnn28 weight gradients to the backward pass's worker thread
(network._spare_cpu), so an unpinned comparison cannot see a change on the
worker path. Compare on one CPU too: pinned on two or more CPUs the searches
and the grid are split across processes (network.Processes), while on one
CPU, and unpinned, they run in one process.

The commands:
- meta-train: the acceptance test's frozen search config, capped at 4
  generations, a Full-mode search over {mlp:8, linear} x {blobs:3,
  blobs:10}, and a 2-generation AR search of {mlp:8, linear} on the IDX pair
  below (dense networks on image rows); checkpoints included;
- benchmark: every reference kind (ce, mae, gce:q=0.5, sce, ls, bootstrap
  hard and soft) and the first search's best_loss.json on a C = 3 and a
  C = 10 cell, 2 seeds;
- train with that best_loss.json: --arch mlp:16 and --arch cnn, each with
  --curve-out, and --arch mlp:16 without it, on a tiny IDX pair this script
  writes; train --arch cnn with --curve-out for 1 epoch on a 28 x 28 IDX
  pair of 64 images, so the convolutions run at the CNN's real shapes
  (24 x 24 x 32 and 8 x 8 x 64); train --arch mlp:16 --loss sce with
  --curve-out, whose steps ask a reference loss for its values; and train
  --loss ce with --noise matrix:inputs/pairing.csv, asym:0.3 with the
  partners [2, 0, 1], on a C = 3 blobs set;
- inspect-loss on a raw and on a normalized polynomial loss;
- make-noise-matrix asym:0.3 over 4 classes and sym:0.4 over 7.

The trained parameters: network.train from network.init of the CNN on the
28 x 28 IDX pair (1 epoch, one member) and of a stack of three mlp:16
members on the 16 x 16 IDX pair under ce, mae and ar/best_loss.json.

OUT must not exist yet or be empty. Every path handed to a command is
relative to OUT, so no artifact records where OUT is.
"""

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acc  # noqa: E402
from losslearn.bench import loss_from_selector  # noqa: E402
from losslearn.cli import main_entry  # noqa: E402
from losslearn.datasets import noisy_split  # noqa: E402
from losslearn.network import TrainConfig, arch_from_selector, init, train  # noqa: E402
from losslearn.taylor import mse_embedding, save_loss  # noqa: E402

FULL_CONFIG = {
    "mode": "Full",
    "architectures": ["mlp:8", "linear"],
    "datasets": ["blobs:3:40:0.5", "blobs:10:20:0.5:dim=4"],
    "noise": "sym:0.3",
    "max_generations": 2,
    "master_seed": 7,
    "epochs": 2,
    "batch_size": 16,
    "eta": 8.0,
}
IDX = "idx:inputs/images.idx:inputs/labels.idx"
CNN_IDX = "idx:inputs/cnn_images.idx:inputs/cnn_labels.idx"
IDX_CONFIG = {
    "mode": "AR",
    "architectures": ["mlp:8", "linear"],
    "datasets": [IDX],
    "noise": "sym:0.2",
    "max_generations": 2,
    "master_seed": 11,
    "epochs": 2,
    "batch_size": 16,
    "eta": 8.0,
}
GRID = {
    "cells": [
        ["mlp:8", "blobs:3:40:0.5", "sym:0.3"],
        ["linear", "blobs:10:20:0.5:dim=4", "asym:0.2"],
    ],
    "losses": ["ce", "mae", "gce:q=0.5", "sce", "ls:epsilon=0.1",
               "bootstrap:weight=0.8:mode=hard", "bootstrap:mode=soft", "ar/best_loss.json"],
    "seeds": 2,
    "epochs": 3,
    "master_seed": 5,
}

# asym:0.3 at C = 3 with the partners [2, 0, 1] in place of the cyclic ones
PAIRING = "0.7,0.0,0.3\n0.3,0.7,0.0\n0.0,0.3,0.7\n"
# (name, dataset, arch, loss selectors, epochs) of each network whose trained
# parameters are digested
THETA_RUNS = [
    ("cnn28", CNN_IDX, "cnn", ["ar/best_loss.json"], 1),
    ("mixed", IDX, "mlp:16", ["ce", "mae", "ar/best_loss.json"], 2),
]


def write_idx(prefix, side, classes, per_class, rng):
    """inputs/<prefix>images.idx and <prefix>labels.idx: side x side images of
    classes x per_class examples, a bright band per class."""
    labels = np.repeat(np.arange(classes, dtype=np.uint8), per_class)
    images = rng.integers(0, 128, (len(labels), side, side))
    band = side // classes
    for k in range(classes):
        images[labels == k, band * k : band * (k + 1), :] += 120
    with open(f"inputs/{prefix}images.idx", "wb") as out:
        out.write(struct.pack(">IIII", 2051, *images.shape) + images.astype(np.uint8).tobytes())
    with open(f"inputs/{prefix}labels.idx", "wb") as out:
        out.write(struct.pack(">II", 2049, len(labels)) + labels.tobytes())


def write_inputs():
    """The configs, a pairing's noise matrix, a raw loss file, a 16 x 16 IDX pair of 3 classes
    and a 28 x 28 one of 4 classes, in inputs/."""
    Path("inputs").mkdir()
    Path("inputs/ar.json").write_text(json.dumps({**acc.SEARCH_CONFIG, "max_generations": 4}))
    Path("inputs/full.json").write_text(json.dumps(FULL_CONFIG))
    Path("inputs/idx.json").write_text(json.dumps(IDX_CONFIG))
    Path("inputs/grid.json").write_text(json.dumps(GRID))
    Path("inputs/pairing.csv").write_text(PAIRING)
    save_loss(mse_embedding(), "inputs/raw_loss.json")
    rng = np.random.default_rng(0)
    write_idx("", 16, 3, 20, rng)
    write_idx("cnn_", 28, 4, 16, rng)


def commands():
    job = ["--dataset", IDX, "--noise", "sym:0.2", "--epochs", "2", "--seed", "3"]
    train = ["train", "--loss", "ar/best_loss.json", *job]
    return [
        ["meta-train", "--config", "inputs/ar.json", "--out", "ar"],
        ["meta-train", "--config", "inputs/full.json", "--out", "full"],
        ["meta-train", "--config", "inputs/idx.json", "--out", "idx"],
        ["benchmark", "--config", "inputs/grid.json", "--out", "grid"],
        [*train, "--arch", "mlp:16", "--curve-out", "train_mlp.csv"],
        [*train, "--arch", "cnn", "--curve-out", "train_cnn.csv"],
        [*train, "--arch", "mlp:16"],
        ["train", "--loss", "ar/best_loss.json", "--dataset", CNN_IDX, "--noise", "sym:0.2",
         "--seed", "3", "--arch", "cnn", "--epochs", "1", "--curve-out", "train_cnn28.csv"],
        ["train", "--arch", "mlp:16", "--loss", "sce", *job, "--curve-out", "train_sce.csv"],
        ["train", "--arch", "mlp:16", "--loss", "ce", "--dataset", "blobs:3:40:0.5",
         "--noise", "matrix:inputs/pairing.csv", "--epochs", "3",
         "--seed", "3", "--curve-out", "train_pairing.csv"],
        ["inspect-loss", "--loss", "inputs/raw_loss.json", "--resolution", "20",
         "--out", "inspect_raw.csv"],
        ["inspect-loss", "--loss", "ar/best_loss.json", "--resolution", "20",
         "--out", "inspect_normalized.csv"],
        ["make-noise-matrix", "--noise", "asym:0.3", "--classes", "4", "--out", "noise.csv"],
        ["make-noise-matrix", "--noise", "sym:0.4", "--classes", "7", "--out", "noise_sym.csv"],
    ]


def theta_digests():
    """sha256 of theta and of momentum after training each THETA_RUNS network."""
    lines = []
    for name, dataset, arch, selectors, epochs in THETA_RUNS:
        sp = noisy_split(dataset, "sym:0.2", data_seed=1, split_seed=2, val_fraction=0.2)
        spec = arch_from_selector(arch, sp.train_features.shape[1:], sp.num_classes)
        net = init(spec, 3, members=len(selectors))
        cfg = TrainConfig(batch_size=16, epochs=epochs, seed=4)
        train(net, [loss_from_selector(sel) for sel in selectors], sp, cfg)
        lines += [f"sha256 of {part} after train {name}: "
                  + hashlib.sha256(getattr(net, part).tobytes()).hexdigest()
                  for part in ("theta", "momentum")]
    return lines


def run(out):
    """Run the command set in out; returns the lines to print."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    here = os.getcwd()
    os.chdir(out)
    try:
        write_inputs()
        printed = []
        for argv in commands():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main_entry(argv)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}: {stderr.getvalue().strip()}")
            if argv[0] == "train":
                printed.append(f"stdout of train {' '.join(argv[argv.index('--arch'):])}: "
                               + stdout.getvalue().strip())
            if argv[0] == "benchmark":
                printed += [f"stderr of benchmark: {line}"
                            for line in stderr.getvalue().splitlines()]
        paths = sorted(p for p in Path().rglob("*") if p.is_file())
        digests = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.as_posix()}" for p in paths]
        printed += theta_digests()
    finally:
        os.chdir(here)
    return digests + printed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    print("\n".join(run(argv[0])))


if __name__ == "__main__":
    main()
