"""Benchmark grids, rank tables, loss-surface dumps.

Runs every (cell x loss x seed) training of a benchmark grid, writes raw
results plus mean/std and average-rank tables, and provides the loss and
noise-matrix inspection dumps. Within a cell, the dataset draw, the split,
the network initialization, and the batch order are shared across losses for
a given seed index, so losses are compared on identical footing.
"""

import csv
import io
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .datasets import dataset_from_selector, noisy_split
from .network import TrainConfig, arch_from_selector, fit, input_shape_of
from .noise import NoiseSpec, build_transition, noise_from_selector
from .reference import REFERENCE_KINDS, make_reference_loss
from .seeding import derive_seed
from .taylor import load_loss


class ConfigError(ValueError):
    """Bad configuration or unresolvable selector; maps to exit code 2."""


# annotation -> (what the message asks for, test of a parsed JSON value); a JSON
# bool is no integer, and NaN, Infinity or a 400-digit integer fits no float
_FIELD_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: (
        "a finite number",
        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    ),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("an array", lambda v: isinstance(v, (list, tuple))),
}


def config_from_dict(cls, doc, what):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    The dataclass is the schema: a field without a default is required, an
    absent optional field takes its default, any other name is rejected, and
    each value must fit its field's annotation (``null`` too where the
    default is None).
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for f in fields(cls):
        if f.name not in doc:
            if f.default is MISSING:
                raise ConfigError(f"missing field '{f.name}'")
        elif f.type in _FIELD_TYPES and not (f.default is None and doc[f.name] is None):
            kind, fits = _FIELD_TYPES[f.type]
            if not fits(doc[f.name]):
                null = " or null" if f.default is None else ""
                raise ConfigError(f"{f.name} must be {kind}{null}, got {doc[f.name]!r}")
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
    "bootstrap": {"mode": None},  # handled specially below
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
        except FileNotFoundError:
            known = ", ".join(sorted(REFERENCE_KINDS))
            raise ConfigError(
                f"loss selector {text!r} is neither a known name ({known}) "
                "nor a readable loss file"
            ) from None
    params = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"bad loss option {part!r} in {text!r}")
        key = _PARAM_ALIASES.get(kind, {}).get(key, key)
        if kind == "bootstrap" and key is None:  # mode=soft|hard
            if value not in ("soft", "hard"):
                raise ConfigError(f"bootstrap mode must be soft or hard, not {value!r}")
            params["hard"] = value == "hard"
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
    cfg = TrainConfig(
        learning_rate=learning_rate,
        momentum=momentum,
        batch_size=batch_size,
        epochs=epochs,
    )
    return _fit_at_seed(
        [loss], arch_sel, dataset_sel, noise_sel, seed, cfg, val_fraction, pairing
    )[0]


def _fit_at_seed(losses, arch_sel, dataset_sel, noise_sel, seed, cfg, val_fraction, pairing):
    """Fit each loss on the data, split, init and batch order of one seed.

    The seed path excludes the loss, so losses are compared on equal footing.
    """
    sp = noisy_split(
        dataset_sel,
        noise_sel,
        data_seed=derive_seed(seed, "data"),
        split_seed=derive_seed(seed, "split"),
        val_fraction=val_fraction,
        pairing=pairing,
    )
    spec = arch_from_selector(arch_sel, input_shape_of(sp.train_features), sp.num_classes)
    cfg = replace(cfg, seed=derive_seed(seed, "train"))
    return [fit(spec, loss, sp, derive_seed(seed, "init"), cfg) for loss in losses]


# ---------------------------------------------------------------------------
# Benchmark grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkGrid:
    cells: tuple  # of (arch, dataset, noise) triples
    losses: tuple  # of loss selectors
    seeds: int = 3
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    val_fraction: float = 0.2
    master_seed: int = 0
    pairing: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(_cell_triple(c) for c in self.cells))
        object.__setattr__(self, "losses", tuple(self.losses))
        if self.pairing is not None:
            object.__setattr__(self, "pairing", tuple(self.pairing))
        if not self.cells:
            raise ConfigError("benchmark needs at least one cell")
        if not self.losses:
            raise ConfigError("benchmark needs at least one loss")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        self.train_config()  # rejects bad training hyperparameters

    def train_config(self):
        return TrainConfig(
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            batch_size=self.batch_size,
            epochs=self.epochs,
        )

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "grid config")


def _cell_triple(cell):
    """An [arch, dataset, noise] list or {"arch", "dataset", "noise"} object as a triple."""
    if isinstance(cell, dict):
        try:
            return (cell["arch"], cell["dataset"], cell["noise"])
        except KeyError as exc:
            raise ConfigError(f"cell {cell!r} has no key {exc}") from None
    cell = tuple(cell)
    if len(cell) != 3:
        raise ConfigError(f"cell {cell!r} must be [arch, dataset, noise]")
    return cell


@dataclass
class RankTable:
    losses: tuple
    rows: list = field(default_factory=list)  # (arch, ds, noise, loss, mean, std, rank)
    averages: dict = field(default_factory=dict)  # loss -> average rank


def mid_ranks(values):
    """Ranks 1..k by descending value; tied values share the mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j < len(sorted_vals) and sorted_vals[j] == sorted_vals[i]:
            j += 1
        shared = (i + 1 + j) / 2.0  # mean of integer ranks i+1 .. j
        ranks[order[i:j]] = shared
        i = j
    return ranks


def compute_ranks(grid, results):
    """Build the RankTable from raw result rows.

    results rows are (arch, dataset, noise, loss, seed, accuracy, diverged),
    exactly as written to results.csv.
    """
    table = RankTable(losses=grid.losses)
    rank_sums = {loss: 0.0 for loss in grid.losses}
    for cell in grid.cells:
        arch, dsel, nsel = cell
        means = []
        stds = []
        for loss in grid.losses:
            accs = [
                row[5]
                for row in results
                if row[:4] == (arch, dsel, nsel, loss)
            ]
            if len(accs) != grid.seeds:
                raise RuntimeError(f"cell {cell} x {loss}: {len(accs)} rows")
            means.append(float(np.mean(accs)))
            stds.append(float(np.std(accs)))
        ranks = mid_ranks(means)
        for loss, mean, std, rank in zip(grid.losses, means, stds, ranks):
            table.rows.append((arch, dsel, nsel, loss, mean, std, float(rank)))
            rank_sums[loss] += float(rank)
    table.averages = {
        loss: rank_sums[loss] / len(grid.cells) for loss in grid.losses
    }
    return table


def run_benchmark(grid, out_dir):
    """Run the whole grid; writes results.csv, rank_table.csv, avg_ranks.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # resolve everything up front so selector typos fail before any training
    losses = {}
    for sel in grid.losses:
        losses[sel] = loss_from_selector(sel)
    try:
        for arch, dsel, nsel in grid.cells:
            ds = dataset_from_selector(dsel, seed=0)
            noise = noise_from_selector(nsel, ds.num_classes)
            if noise is not None:
                build_transition(noise, pairing=grid.pairing)
            arch_from_selector(arch, input_shape_of(ds.features), ds.num_classes)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"unresolvable cell selector: {exc}") from None

    cfg = grid.train_config()
    results = []
    for arch, dsel, nsel in grid.cells:
        rows = [[] for _ in grid.losses]
        for s in range(grid.seeds):
            seed = derive_seed(grid.master_seed, "cell", arch, dsel, nsel, s)
            fits = _fit_at_seed(
                [losses[sel] for sel in grid.losses],
                arch, dsel, nsel, seed, cfg, grid.val_fraction, grid.pairing,
            )
            for loss_rows, loss_sel, (acc, diverged, _) in zip(rows, grid.losses, fits):
                loss_rows.append((arch, dsel, nsel, loss_sel, s, acc, diverged))
        for loss_rows in rows:  # a cell's rows are listed loss by loss
            results += loss_rows

    (out_dir / "results.csv").write_text(results_csv(results))
    table = compute_ranks(grid, results)
    (out_dir / "rank_table.csv").write_text(rank_table_csv(table))
    (out_dir / "avg_ranks.csv").write_text(avg_ranks_csv(table))
    return table


def results_csv(results):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["arch", "dataset", "noise", "loss", "seed", "accuracy", "diverged"])
    for arch, dsel, nsel, loss_sel, s, acc, diverged in results:
        writer.writerow([arch, dsel, nsel, loss_sel, s, f"{acc:.6f}", int(diverged)])
    return buf.getvalue()


def rank_table_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["arch", "dataset", "noise", "loss", "mean_accuracy", "std_accuracy", "rank"]
    )
    for arch, dsel, nsel, loss, mean, std, rank in table.rows:
        writer.writerow(
            [arch, dsel, nsel, loss, f"{mean:.6f}", f"{std:.6f}", f"{rank:.1f}"]
        )
    return buf.getvalue()


def avg_ranks_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["loss", "average_rank"])
    for loss in table.losses:
        writer.writerow([loss, f"{table.averages[loss]:.6f}"])
    return buf.getvalue()


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
    lines = ["yhat,y,loss"]
    labels = {0: np.array([0.0, 1.0]), 1: np.array([1.0, 0.0])}
    for step in range(resolution + 1):
        p = step / resolution
        pred = np.array([p, 1.0 - p])
        for y in (0, 1):
            value = float(loss.batch_value(pred[None, :], labels[y][None, :])[0])
            lines.append(f"{p:.6f},{y},{value + 0.0:.6f}")  # +0.0 drops the sign of -0.0
    return "\n".join(lines) + "\n"


def noise_matrix_csv(noise_sel, num_classes, pairing=None):
    spec = noise_from_selector(noise_sel, num_classes)
    if spec is None:  # ratio 0 gives the identity and still checks the class count
        spec = NoiseSpec("symmetric", 0.0, num_classes)
    t = build_transition(spec, pairing=pairing)
    lines = []
    for row in t:
        lines.append(",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
