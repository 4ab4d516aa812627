"""The benchmark's workloads: inputs made from the seed, one pass, the checks.

A workload owns ``inputs`` input sets, all derived from the benchmark seed.
A pass runs one ``losslearn`` command on one input set; passes cycle over the
sets. Every command runs in-process through ``losslearn.cli.main_entry``.
More than one set per run averages out how much the work, and the accuracy,
vary from one seed to the next.

Each workload reads its pass's artifacts back and returns a ``PassResult``
with the digests of the deterministic files, the accuracy the pass produced,
its diverged job count, and the problems its output checks found.
"""

import csv
import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from losslearn.taylor import TaylorLossParams, mse_embedding, normalize, save_loss

# The frozen acceptance search config; only the master seed and the
# generation cap differ. "workers" is left out: serial is the default.
SEARCH_CONFIG = {
    "mode": "AR",
    "architectures": ["mlp:32"],
    "datasets": ["blobs:3:500:0.5"],
    "noise": "sym:0.4",
    "epochs": 5,
    "batch_size": 128,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "eta": 8.0,
}
# The stagnation stop needs 11 generations of history, so a cap of 10 makes
# every pass evaluate exactly 10 x 11 candidates, whatever the trajectory.
SEARCH_GENERATIONS = 10
SEARCH_POPULATION = 11
# Offsets a workload's input sets apart; input set 0 uses the seed itself.
SEED_STRIDE = 1000

GRID_LOSSES = ["ce", "mae", "gce:q=0.7", "sce", "ls:epsilon=0.1",
               "bootstrap:weight=0.8:mode=hard"]
GRID_CELLS = [
    ["mlp:32", "blobs:3:500:0.5", "sym:0.4"],
    ["mlp:32", "rings:3:500", "asym:0.3"],
    ["mlp:64,64", "blobs:10:100:0.5:dim=8", "sym:0.4"],
]
GRID_SEEDS = 3

CNN_IMAGES = 1200
CNN_SIDE = 28
CNN_CLASSES = 10
CNN_EPOCHS = 2


@dataclass
class PassResult:
    digests: dict
    val_acc: float
    diverged: int
    problems: list = field(default_factory=list)


def digest_files(out_dir, patterns):
    digests = {}
    for pattern in patterns:
        for path in sorted(Path(out_dir).glob(pattern)):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def polynomial_loss_file(path, rng, num_classes):
    """Write a normalized polynomial loss near the MSE member of the family.

    The coefficients get a small seeded perturbation; the expansion point stays
    at the origin, so the loss is a well-scaled, non-degenerate training loss.
    """
    flat = mse_embedding().to_flat()
    flat[2:] += rng.normal(0.0, 0.05, flat.size - 2)
    loss = normalize(
        TaylorLossParams.from_flat(flat), num_classes=num_classes, eta=8.0,
        seed=int(rng.integers(2**31)),
    )
    if loss is None:
        raise RuntimeError("generated polynomial loss is degenerate")
    save_loss(loss, path)


def write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class SearchMlp:
    """meta-train on the frozen acceptance config, capped at 10 generations.

    Five input sets (five master seeds) per run: the cost of a candidate
    depends on the sign of its expansion point, because numpy's power falls
    back to a slow scalar path for negative bases, so one trajectory alone
    makes pass time swing with the seed.
    """

    name = "search-mlp"
    inputs = 5
    trainings = SEARCH_GENERATIONS * SEARCH_POPULATION
    deterministic = ["best_loss.json", "cma_log.csv", "config.json", "fitness_gen_*.csv"]
    diverged_metric = "search.jobs_diverged"
    stop_after = 5

    def make_inputs(self, work, seed):
        sets = []
        for k in range(self.inputs):
            master = seed + SEED_STRIDE * k
            config = work / f"search_{k}.json"
            write_json(config, dict(SEARCH_CONFIG, master_seed=master,
                                    max_generations=SEARCH_GENERATIONS))
            warm = work / f"search_{k}_warm.json"
            write_json(warm, dict(SEARCH_CONFIG, master_seed=master, max_generations=1))
            sets.append({"config": config, "warm": warm})
        return sets

    def argv(self, inp, out):
        return ["meta-train", "--config", str(inp["config"]), "--out", str(out)]

    def warm_argv(self, inp, out):
        return ["meta-train", "--config", str(inp["warm"]), "--out", str(out)]

    def read(self, out, stdout):
        problems = []
        log = read_csv(out / "cma_log.csv")
        jobs = []
        running_best = 0.0
        for gen in range(1, SEARCH_GENERATIONS + 1):
            rows = read_csv(out / f"fitness_gen_{gen}.csv")
            jobs += rows
            scores = {}
            for row in rows:
                scores.setdefault(row["candidate"], []).append(float(row["accuracy"]))
            running_best = max([running_best] + [float(np.mean(v)) for v in scores.values()])
            if gen <= len(log):
                logged = log[gen - 1]
                if abs(float(logged["best_fitness"]) - running_best) > 2e-6:
                    problems.append(f"cma_log generation {gen}: best_fitness "
                                    f"{logged['best_fitness']} != best score {running_best:.6f}")
                if int(logged["evals"]) != gen * SEARCH_POPULATION:
                    problems.append(f"cma_log generation {gen}: evals {logged['evals']}")
        if len(log) != SEARCH_GENERATIONS:
            problems.append(f"cma_log has {len(log)} generations")
        if len(jobs) != self.trainings:
            problems.append(f"{len(jobs)} fitness rows, expected {self.trainings}")
        json.loads((out / "best_loss.json").read_text())  # raises if malformed
        return PassResult(
            digests=digest_files(out, self.deterministic),
            val_acc=float(log[-1]["best_fitness"]) if log else 0.0,
            diverged=sum(int(row["diverged"]) for row in jobs),
            problems=problems,
        )


class GridReference:
    """benchmark: six reference losses and one polynomial loss file, 63 trainings."""

    name = "grid-reference"
    inputs = 2
    trainings = len(GRID_CELLS) * (len(GRID_LOSSES) + 1) * GRID_SEEDS
    deterministic = ["results.csv", "rank_table.csv", "avg_ranks.csv"]
    diverged_metric = "bench.jobs_diverged"
    stop_after = None

    def make_inputs(self, work, seed):
        sets = []
        for k in range(self.inputs):
            rng = np.random.default_rng([seed, k])
            loss_file = work / f"grid_{k}_loss.json"
            # two of the three cells have 3 classes
            polynomial_loss_file(loss_file, rng, num_classes=3)
            grid = {
                "cells": GRID_CELLS,
                "losses": GRID_LOSSES + [str(loss_file)],
                "seeds": GRID_SEEDS,
                "epochs": 5,
                "batch_size": 128,
                "learning_rate": 0.1,
                "master_seed": seed + SEED_STRIDE * k,
            }
            config = work / f"grid_{k}.json"
            write_json(config, grid)
            warm = work / f"grid_{k}_warm.json"
            write_json(warm, dict(grid, seeds=1, epochs=1))
            sets.append({"config": config, "warm": warm})
        return sets

    def argv(self, inp, out):
        return ["benchmark", "--config", str(inp["config"]), "--out", str(out)]

    def warm_argv(self, inp, out):
        return ["benchmark", "--config", str(inp["warm"]), "--out", str(out)]

    def read(self, out, stdout):
        problems = []
        results = read_csv(out / "results.csv")
        table = read_csv(out / "rank_table.csv")
        averages = read_csv(out / "avg_ranks.csv")
        if len(results) != self.trainings:
            problems.append(f"{len(results)} result rows, expected {self.trainings}")
        rank_sums = {}
        cell_ranks = {}
        for row in table:
            key = (row["arch"], row["dataset"], row["noise"])
            accs = [float(r["accuracy"]) for r in results
                    if (r["arch"], r["dataset"], r["noise"], r["loss"]) == key + (row["loss"],)]
            if len(accs) != GRID_SEEDS or abs(np.mean(accs) - float(row["mean_accuracy"])) > 2e-6:
                problems.append(f"rank_table {key} {row['loss']} disagrees with results.csv")
            cell_ranks.setdefault(key, []).append(float(row["rank"]))
            rank_sums[row["loss"]] = rank_sums.get(row["loss"], 0.0) + float(row["rank"])
        k = len(GRID_LOSSES) + 1
        for key, ranks in cell_ranks.items():
            if len(ranks) != k or abs(sum(ranks) - k * (k + 1) / 2) > 1e-9:
                problems.append(f"rank_table ranks of cell {key} are not a ranking")
        if len(cell_ranks) != len(GRID_CELLS) or len(averages) != k:
            problems.append("rank_table or avg_ranks has the wrong shape")
        for row in averages:
            expected = rank_sums.get(row["loss"], float("nan")) / len(GRID_CELLS)
            if not abs(float(row["average_rank"]) - expected) <= 2e-6:
                problems.append(f"avg_ranks {row['loss']} disagrees with rank_table")
        return PassResult(
            digests=digest_files(out, self.deterministic),
            val_acc=float(np.mean([float(r["accuracy"]) for r in results])) if results else 0.0,
            diverged=sum(int(r["diverged"]) for r in results),
            problems=problems,
        )


def write_idx(images_path, labels_path, rng):
    """Synthetic IDX pair: 10 classes of block patterns with shifts and noise.

    Each class lights four of the 7 x 7 blocks of a 28 x 28 image; no two
    classes share a block, so a CNN separates them within two epochs despite
    40% label noise.
    """
    blocks = np.zeros((CNN_CLASSES, 49))
    lit = rng.permutation(49)[: 4 * CNN_CLASSES]
    blocks[np.repeat(np.arange(CNN_CLASSES), 4), lit] = 0.5
    templates = np.kron(blocks.reshape(CNN_CLASSES, 7, 7), np.ones((4, 4)))
    labels = np.arange(CNN_IMAGES) % CNN_CLASSES
    rng.shuffle(labels)
    shifts = rng.integers(-1, 2, (CNN_IMAGES, 2))
    images = np.stack([
        np.roll(templates[c], tuple(s), axis=(0, 1)) for c, s in zip(labels, shifts)
    ])
    images = images * 255 + rng.normal(0.0, 25.0, images.shape)
    pixels = np.clip(images, 0, 255).astype(np.uint8)
    with open(images_path, "wb") as handle:
        handle.write(struct.pack(">IIII", 2051, CNN_IMAGES, CNN_SIDE, CNN_SIDE))
        handle.write(pixels.tobytes())
    with open(labels_path, "wb") as handle:
        handle.write(struct.pack(">II", 2049, CNN_IMAGES))
        handle.write(labels.astype(np.uint8).tobytes())


class TrainCnn:
    """train --arch cnn on synthetic 28 x 28 IDX images with a polynomial loss."""

    name = "train-cnn"
    inputs = 2
    trainings = 1
    deterministic = ["curve.csv", "accuracy.txt"]
    diverged_metric = "bench.jobs_diverged"
    stop_after = None

    def make_inputs(self, work, seed):
        sets = []
        for k in range(self.inputs):
            rng = np.random.default_rng([seed, k])
            images, labels = work / f"cnn_{k}_images.idx", work / f"cnn_{k}_labels.idx"
            write_idx(images, labels, rng)
            loss_file = work / f"cnn_{k}_loss.json"
            polynomial_loss_file(loss_file, rng, num_classes=CNN_CLASSES)
            sets.append({
                "dataset": f"idx:{images}:{labels}",
                "loss": str(loss_file),
                "seed": str(seed + SEED_STRIDE * k),
            })
        return sets

    def _argv(self, inp, out, dataset, epochs):
        return ["train", "--loss", inp["loss"], "--dataset", dataset, "--arch", "cnn",
                "--noise", "sym:0.4", "--epochs", str(epochs), "--batch-size", "32",
                "--seed", inp["seed"], "--curve-out", str(out / "curve.csv")]

    def argv(self, inp, out):
        return self._argv(inp, out, inp["dataset"], CNN_EPOCHS)

    def warm_argv(self, inp, out):
        return self._argv(inp, out, inp["dataset"] + ":limit=320", 1)

    def read(self, out, stdout):
        problems = []
        printed = stdout.strip()
        (out / "accuracy.txt").write_text(printed + "\n")
        curve = read_csv(out / "curve.csv")
        if len(curve) != CNN_EPOCHS:
            problems.append(f"curve has {len(curve)} epochs (diverged?)")
        elif curve[-1]["val_accuracy"] != printed:
            problems.append(f"printed accuracy {printed} != final curve "
                            f"accuracy {curve[-1]['val_accuracy']}")
        try:
            acc = float(printed)
        except ValueError:
            problems.append(f"train printed {printed!r}, not an accuracy")
            acc = 0.0
        return PassResult(
            digests=digest_files(out, self.deterministic),
            val_acc=acc,
            diverged=int(len(curve) != CNN_EPOCHS),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (SearchMlp(), GridReference(), TrainCnn())}
