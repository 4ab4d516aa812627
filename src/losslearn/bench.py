"""Benchmark grids, rank tables, loss-surface dumps.

Runs every (cell x loss x seed) training of a benchmark grid, writes raw
results plus mean/std and average-rank tables, and provides the loss and
noise-matrix inspection dumps. Within a cell, the dataset draw, the split,
the network initialization, and the batch order are shared across losses for
a given seed index, so losses are compared on identical footing.
"""

import csv
import io
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, config_from_dict
from .datasets import ValFractionError, noisy_split
from .network import TrainConfig, arch_from_selector, fit_many
from .noise import noise_from_selector
from .reference import REFERENCE_KINDS, make_reference_loss
from .seeding import derive_seed
from .taylor import load_loss

log = logging.getLogger("losslearn")


# ---------------------------------------------------------------------------
# Loss selectors
# ---------------------------------------------------------------------------

_PARAM_ALIASES = {
    "sce": {"A": "log_zero"},
    "bootstrap": {"mode": "hard"},  # mode=soft|hard, handled specially below
}


def loss_from_selector(text):
    """Resolve a loss selector.

    A known short name (optionally with :key=value parameters, e.g.
    "gce:q=0.5" or "bootstrap:weight=0.8:mode=hard") builds a reference loss;
    anything else is treated as a path to a saved polynomial loss file.
    """
    parts = text.split(":")
    kind = parts[0]
    if kind not in REFERENCE_KINDS:
        try:
            return load_loss(text)
        except OSError:  # missing, a directory, unreadable
            known = ", ".join(sorted(REFERENCE_KINDS))
            raise ConfigError(
                f"loss selector {text!r} is neither a known name ({known}) "
                "nor a readable loss file"
            ) from None
    params = {}
    for part in parts[1:]:
        name, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"bad loss option {part!r} in {text!r}")
        key = _PARAM_ALIASES.get(kind, {}).get(name, name)
        if key in params:
            raise ConfigError(f"repeated loss option {part!r} in {text!r}")
        if kind == "bootstrap" and name == "mode":
            if value not in ("soft", "hard"):
                raise ConfigError(f"bootstrap mode must be soft or hard, not {value!r}")
            params[key] = value == "hard"
        elif value in ("true", "false"):
            params[key] = value == "true"
        else:
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(f"bad value {value!r} for {key!r} in {text!r}") from None
    try:
        return make_reference_loss(kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build loss {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# One job: search, benchmark and the train command resolve each the same way
# ---------------------------------------------------------------------------


@contextmanager
def _cell_errors():
    """Report a cell selector that fails to build in the block as a ConfigError."""
    try:
        yield
    except ValFractionError as exc:  # a value, not a selector, is wrong
        raise ConfigError(str(exc)) from None
    except (ValueError, OSError) as exc:
        raise ConfigError(f"unresolvable cell selector: {exc}") from None


def resolve_split(dataset_sel, noise_sel, data_seed, split_seed, val_fraction):
    """A cell's (dataset, noise) pair split at its data and split seeds; its jobs share it."""
    with _cell_errors():
        return noisy_split(dataset_sel, noise_sel, data_seed=data_seed, split_seed=split_seed,
                           val_fraction=val_fraction)


def resolve_job(arch_sel, sp, init_seed, train_seed, cfg):
    """fit_many's (spec, split, init seed, TrainConfig) for an architecture on a split,
    and the job's task key: what the selectors build (spec, dataset name, noise
    transition), equal for one task however spelled. The seeds exclude the loss, so
    losses fitted on one job are compared on equal footing."""
    with _cell_errors():
        spec = arch_from_selector(arch_sel, sp.train_features.shape[1:], sp.num_classes)
    key = (spec, sp.provenance["dataset"], tuple(map(tuple, sp.provenance["transition"])))
    return (spec, sp, init_seed, replace(cfg, seed=train_seed)), key


def _seed_parts(seed):
    """The (data, split, init, train) seeds of a benchmark or train command seed."""
    return tuple(derive_seed(seed, part) for part in ("data", "split", "init", "train"))


def run_single_training(
    loss,
    dataset_sel,
    arch_sel,
    noise_sel,
    *,
    epochs=5,
    batch_size=32,
    learning_rate=0.01,
    momentum=0.9,
    val_fraction=0.2,
    seed=0,
    curves=True,
):
    """Train once from scratch; returns (clean val accuracy, diverged, curve). Without
    curves the network is validated only after its last epoch, and the curve is []."""
    try:
        cfg = TrainConfig(learning_rate, momentum, batch_size, epochs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    data, split, init, train = _seed_parts(seed)
    sp = resolve_split(dataset_sel, noise_sel, data, split, val_fraction)
    (spec, sp, init_seed, cfg), _ = resolve_job(arch_sel, sp, init, train, cfg)
    (acc,), (fail_epoch,), (curve,) = fit_many(spec, [loss], sp, init_seed, cfg, curves=curves)
    return float(acc), bool(fail_epoch > 0), curve


# ---------------------------------------------------------------------------
# Benchmark grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkGrid:
    cells: tuple  # of (arch, dataset, noise) triples
    losses: tuple[str, ...]  # loss selectors
    seeds: int = 3
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    val_fraction: float = 0.2
    master_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "cells", tuple(_cell_triple(c) for c in self.cells))
        if not self.cells:
            raise ConfigError("benchmark needs at least one cell")
        if not self.losses:
            raise ConfigError("benchmark needs at least one loss")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        TrainConfig.of(self)  # rejects bad training hyperparameters

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "grid config")


def _cell_triple(cell):
    """An [arch, dataset, noise] list or {"arch", "dataset", "noise"} object as a triple."""
    if isinstance(cell, dict):
        for key in cell:
            if key not in ("arch", "dataset", "noise"):
                raise ConfigError(f"cell {cell!r} has unknown key {key!r}")
        try:
            cell = (cell["arch"], cell["dataset"], cell["noise"])
        except KeyError as exc:
            raise ConfigError(f"cell {cell!r} has no key {exc}") from None
    if not (isinstance(cell, (list, tuple)) and len(cell) == 3
            and all(isinstance(sel, str) for sel in cell)):
        raise ConfigError(f"cell {cell!r} must be [arch, dataset, noise] selector strings")
    return tuple(cell)


@dataclass
class RankTable:
    losses: tuple
    rows: list  # (arch, ds, noise, loss, mean, std, rank), cells outer
    averages: dict  # loss -> average rank


def mid_ranks(values):
    """Ranks 1..k by descending value; tied values share the mean rank."""
    negated = -np.asarray(values, dtype=float)
    order = np.argsort(negated, kind="stable")
    _, first, counts = np.unique(negated[order], return_index=True, return_counts=True)
    ranks = np.empty(len(order))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)  # mean of first+1 .. first+count
    return ranks


def compute_ranks(grid, accuracy):
    """Build the RankTable from the (cell, loss, seed) accuracy table."""
    shape = (len(grid.cells), len(grid.losses), grid.seeds)
    if np.shape(accuracy) != shape:
        raise ValueError(f"accuracy table of shape {np.shape(accuracy)}, grid needs {shape}")
    means, stds = np.mean(accuracy, axis=2), np.std(accuracy, axis=2)  # ddof=0
    ranks = np.array([mid_ranks(row) for row in means])
    rows = [
        (*cell, loss, float(means[k, i]), float(stds[k, i]), float(ranks[k, i]))
        for k, cell in enumerate(grid.cells)
        for i, loss in enumerate(grid.losses)
    ]
    averages = dict(zip(grid.losses, map(float, ranks.mean(axis=0))))
    return RankTable(grid.losses, rows, averages)


def run_benchmark(grid, out_dir):
    """Run the whole grid; writes results.csv, rank_table.csv, avg_ranks.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    losses = [loss_from_selector(sel) for sel in grid.losses]
    _reject_repeats("grid lists loss", grid.losses, losses)
    cfg = TrainConfig.of(grid)

    def job(cell, s):
        data, split, init, train = _seed_parts(derive_seed(grid.master_seed, "cell", *cell, s))
        sp = resolve_split(*cell[1:], data, split, grid.val_fraction)
        return resolve_job(cell[0], sp, init, train, cfg)

    # every cell's first seed resolves before any training, so a selector typo fails
    # before anything runs, as do a repeated cell and a polynomial loss without a
    # range at some cell's class count; each job is held until its cell trains
    first, keys = map(list, zip(*(job(cell, 0) for cell in grid.cells)))
    _reject_repeats("grid lists cell", grid.cells, keys)
    for _, sp, _, _ in first:
        for loss in losses:
            if hasattr(loss, "affine"):  # a polynomial loss; it keeps each C's range
                loss.affine(sp.num_classes)
    accuracy = np.zeros((len(grid.cells), len(losses), grid.seeds))
    diverged = np.zeros(accuracy.shape, dtype=bool)
    for k, cell in enumerate(grid.cells):
        for s in range(grid.seeds):
            started = time.perf_counter()
            spec, sp, init_seed, seed_cfg = first.pop(0) if s == 0 else job(cell, s)[0]
            accuracy[k, :, s], fail_epoch, _ = fit_many(spec, losses, sp, init_seed, seed_cfg)
            diverged[k, :, s] = fail_epoch > 0
            log.info(
                "cell %s seed %d: %d losses, %d diverged, best accuracy %.6f, %.2f s",
                " ".join(cell), s, len(losses), diverged[k, :, s].sum(),
                accuracy[k, :, s].max(), time.perf_counter() - started,
            )

    (out_dir / "results.csv").write_text(results_csv(grid, accuracy, diverged))
    table = compute_ranks(grid, accuracy)
    (out_dir / "rank_table.csv").write_text(rank_table_csv(table))
    (out_dir / "avg_ranks.csv").write_text(avg_ranks_csv(table))
    return table


def _reject_repeats(what, names, values):
    """ConfigError at the first value equal to an earlier one, named as the config spells it."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what} {names[i]!r} twice")


def csv_text(rows):
    """Every CSV artifact: one line per row, ended by a bare newline; a header is row 0."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def results_csv(grid, accuracy, diverged):
    """One row per (cell, loss, seed) entry: cells in grid order, then losses, then seeds."""
    return csv_text(
        [["arch", "dataset", "noise", "loss", "seed", "accuracy", "diverged"]]
        + [(*grid.cells[k], grid.losses[i], s, f"{accuracy[k, i, s]:.6f}", int(diverged[k, i, s]))
           for k, i, s in np.ndindex(accuracy.shape)]
    )


def rank_table_csv(table):
    return csv_text(
        [["arch", "dataset", "noise", "loss", "mean_accuracy", "std_accuracy", "rank"]]
        + [(*cell, f"{mean:.6f}", f"{std:.6f}", f"{rank:.1f}")
           for *cell, mean, std, rank in table.rows]
    )


def avg_ranks_csv(table):
    averages = [(loss, f"{table.averages[loss]:.6f}") for loss in table.losses]
    return csv_text([["loss", "average_rank"]] + averages)


def curve_to_csv(curve):
    return csv_text(
        [["epoch", "train_loss", "val_accuracy"]]
        + [(epoch, f"{loss:.6f}", f"{acc:.6f}") for epoch, loss, acc in curve]
    )


# ---------------------------------------------------------------------------
# Inspection dumps
# ---------------------------------------------------------------------------


def inspect_loss_csv(loss, resolution=100):
    """Binary per-example loss surface: yhat is P(class 0), y marks class 0.

    Emits resolution+1 evenly spaced yhat values over [0, 1], each against
    both labels.
    """
    if resolution < 1:
        raise ConfigError("resolution must be at least 1")
    p = np.repeat(np.arange(resolution + 1) / resolution, 2)  # each yhat against y = 0, 1
    y = np.tile([0, 1], resolution + 1)
    values = loss.indexed(np.column_stack([p, 1.0 - p]), 1 - y)[0]  # y = 1 is class 0
    rows = zip(p, y.tolist(), values + 0.0)  # +0.0 drops the sign of -0.0
    return csv_text([["yhat", "y", "loss"]] + [(f"{a:.6f}", b, f"{v:.6f}") for a, b, v in rows])


def noise_matrix_csv(noise_sel, num_classes):
    """The selector's matrix as CSV, each entry as repr writes it: matrix:<path> reads it back."""
    return csv_text(noise_from_selector(noise_sel, num_classes).tolist())
