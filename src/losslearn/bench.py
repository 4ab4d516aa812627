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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .datasets import ValFractionError, noisy_split
from .network import TrainConfig, arch_from_selector, check_fields, fit_many, input_shape_of
from .noise import NoiseSpec, build_transition, noise_from_selector
from .reference import REFERENCE_KINDS, make_reference_loss
from .seeding import derive_seed
from .taylor import load_loss

log = logging.getLogger("losslearn")


class ConfigError(ValueError):
    """Bad configuration or unresolvable selector; maps to exit code 2."""


def config_from_dict(cls, doc, what):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    The dataclass is the schema: a field without a default is required, an
    absent optional field takes its default, and any other name is rejected.
    The class itself checks each value against its field's annotation
    (``network.check_fields``), however it is built.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for f in fields(cls):
        if f.name not in doc and f.default is MISSING:
            raise ConfigError(f"missing field '{f.name}'")
    names = {f.name for f in fields(cls)}
    for name in doc:
        if name not in names:
            raise ConfigError(f"unknown field '{name}'")
    try:
        return cls(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


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
# Training at one seed (the train command and each benchmark seed)
# ---------------------------------------------------------------------------


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
    pairing=None,
):
    """Train once from scratch; returns (clean val accuracy, diverged, curve)."""
    try:
        cfg = TrainConfig(learning_rate, momentum, batch_size, epochs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    job = _resolve(arch_sel, dataset_sel, noise_sel, seed, val_fraction, pairing)
    return _fit_at_seed([loss], job, seed, cfg)[0]


@contextmanager
def selector_errors(what):
    """Report a selector that fails to build in the block as a ConfigError."""
    try:
        yield
    except ValFractionError as exc:  # a value, not a selector, is wrong
        raise ConfigError(str(exc)) from None
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _resolve(arch_sel, dataset_sel, noise_sel, seed, val_fraction, pairing):
    """The (split, network spec) of one seed; a selector that fails is a ConfigError."""
    with selector_errors("unresolvable cell selector"):
        sp = noisy_split(
            dataset_sel,
            noise_sel,
            data_seed=derive_seed(seed, "data"),
            split_seed=derive_seed(seed, "split"),
            val_fraction=val_fraction,
            pairing=pairing,
        )
        spec = arch_from_selector(arch_sel, input_shape_of(sp.train_features), sp.num_classes)
    return sp, spec


def _fit_at_seed(losses, job, seed, cfg):
    """Fit every loss on the split and spec, init and batch order of one seed.

    The seed path excludes the loss, so losses are compared on equal footing.
    """
    sp, spec = job
    cfg = replace(cfg, seed=derive_seed(seed, "train"))
    return fit_many(spec, losses, sp, derive_seed(seed, "init"), cfg)


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
    pairing: tuple[int, ...] = None

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "cells", tuple(_cell_triple(c) for c in self.cells))
        if not self.cells:
            raise ConfigError("benchmark needs at least one cell")
        if not self.losses:
            raise ConfigError("benchmark needs at least one loss")
        for what, items in (("cell", self.cells), ("loss", self.losses)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"grid lists {what} {item!r} twice")
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
    rows: list = field(default_factory=list)  # (arch, ds, noise, loss, mean, std, rank)
    averages: dict = field(default_factory=dict)  # loss -> average rank


def mid_ranks(values):
    """Ranks 1..k by descending value; tied values share the mean rank."""
    negated = -np.asarray(values, dtype=float)
    order = np.argsort(negated, kind="stable")
    _, first, counts = np.unique(negated[order], return_index=True, return_counts=True)
    ranks = np.empty(len(order))
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)  # mean of first+1 .. first+count
    return ranks


def compute_ranks(grid, results):
    """Build the RankTable from raw result rows.

    results rows are (arch, dataset, noise, loss, seed, accuracy, diverged),
    exactly as written to results.csv.
    """
    table = RankTable(losses=grid.losses)
    for cell in grid.cells:
        arch, dsel, nsel = cell
        means, stds = [], []
        for loss in grid.losses:
            accs = [row[5] for row in results if row[:4] == (*cell, loss)]
            if len(accs) != grid.seeds:
                raise RuntimeError(f"cell {cell} x {loss}: {len(accs)} rows")
            means.append(float(np.mean(accs)))
            stds.append(float(np.std(accs)))
        ranks = mid_ranks(means)
        for loss, mean, std, rank in zip(grid.losses, means, stds, ranks):
            table.rows.append((arch, dsel, nsel, loss, mean, std, float(rank)))
    table.averages = {
        loss: sum(row[6] for row in table.rows if row[3] == loss) / len(grid.cells)
        for loss in grid.losses
    }
    return table


def run_benchmark(grid, out_dir):
    """Run the whole grid; writes results.csv, rank_table.csv, avg_ranks.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    losses = [loss_from_selector(sel) for sel in grid.losses]
    cfg = TrainConfig.of(grid)

    def resolve(cell, s):
        seed = derive_seed(grid.master_seed, "cell", *cell, s)
        return seed, _resolve(*cell, seed, grid.val_fraction, grid.pairing)

    # every cell's first seed resolves before any training, so a selector
    # typo fails before anything runs; each is held until its cell trains
    first = [resolve(cell, 0) for cell in grid.cells]
    results = []
    for cell in grid.cells:
        rows = [[] for _ in grid.losses]
        for s in range(grid.seeds):
            started = time.perf_counter()
            seed, job = first.pop(0) if s == 0 else resolve(cell, s)
            fits = _fit_at_seed(losses, job, seed, cfg)
            log.info(
                "cell %s seed %d: %d losses, %d diverged, best accuracy %.6f, %.2f s",
                " ".join(cell), s, len(fits), sum(diverged for _, diverged, _ in fits),
                max(acc for acc, _, _ in fits), time.perf_counter() - started,
            )
            for loss_rows, loss_sel, (acc, diverged, _) in zip(rows, grid.losses, fits):
                loss_rows.append((*cell, loss_sel, s, acc, diverged))
        for loss_rows in rows:  # a cell's rows are listed loss by loss
            results += loss_rows

    (out_dir / "results.csv").write_text(results_csv(results))
    table = compute_ranks(grid, results)
    (out_dir / "rank_table.csv").write_text(rank_table_csv(table))
    (out_dir / "avg_ranks.csv").write_text(avg_ranks_csv(table))
    return table


def csv_text(rows):
    """Every CSV artifact: one line per row, ended by a bare newline; a header is row 0."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def results_csv(results):
    return csv_text(
        [["arch", "dataset", "noise", "loss", "seed", "accuracy", "diverged"]]
        + [(*job, s, f"{acc:.6f}", int(diverged)) for *job, s, acc, diverged in results]
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
    rows = [["yhat", "y", "loss"]]
    for step in range(resolution + 1):
        p = step / resolution
        pred = np.array([[p, 1.0 - p]])
        for y in (0, 1):
            value = float(loss.indexed(pred, [1 - y])[0][0])  # y = 1 is class 0
            rows.append((f"{p:.6f}", y, f"{value + 0.0:.6f}"))  # +0.0 drops the sign of -0.0
    return csv_text(rows)


def noise_matrix_csv(noise_sel, num_classes, pairing=None):
    spec = noise_from_selector(noise_sel, num_classes)
    if spec is None:  # ratio 0 gives the identity and still checks the class count
        spec = NoiseSpec("symmetric", 0.0, num_classes)
    t = build_transition(spec, pairing=pairing)
    return csv_text([f"{v:.6f}" for v in row] for row in t)
