"""Bilevel search for noise-robust losses.

The outer loop is CMA-ES over flat polynomial-loss parameter vectors; each
candidate is decoded, range-normalized, and scored by the mean clean
validation accuracy of small networks trained on noise-corrupted data across
the architecture x dataset job grid. Everything is derived from the master
seed, and job results are reduced in job-index order, so the run is a pure
function of its config.
"""

import json
import logging
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .bench import ConfigError, config_from_dict, csv_text, selector_errors
from .cma import CmaState, stop_reason
from .datasets import noisy_split
from .network import TrainConfig, arch_from_selector, check_fields, fit_many, input_shape_of
from .seeding import derive_seed
from .taylor import (
    TaylorLossParams,
    loss_from_json,
    loss_to_json,
    normalize,
    num_parameters,
)

log = logging.getLogger("losslearn")

CHECKPOINT_VERSION = 3

MODES = ("AR", "DR", "Full")
REMOVED_FIELDS = ("workers", "range_samples")  # config fields of earlier releases

@dataclass(frozen=True)
class MetaConfig:
    mode: str
    architectures: tuple[str, ...]
    datasets: tuple[str, ...]
    noise: str
    max_generations: int
    master_seed: int
    eta: float = 1.0
    order: int = 4
    val_fraction: float = 0.2
    sigma0: float = 0.5
    mean0: tuple[float, ...] = None
    population: int = None
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    epochs: int = 5
    pairing: tuple[int, ...] = None

    def __post_init__(self):
        check_fields(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.architectures:
            raise ValueError("architecture pool is empty")
        if not self.datasets:
            raise ValueError("dataset pool is empty")
        if self.mode == "AR" and len(self.datasets) != 1:
            raise ValueError("AR mode requires exactly one dataset")
        if self.mode == "DR" and len(self.architectures) != 1:
            raise ValueError("DR mode requires exactly one architecture")
        if self.mode == "Full":
            log.warning(
                "Full mode trains |F| x |D| x lambda networks per generation; "
                "expect it to be slow"
            )
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_generations < 0:
            raise ValueError("max_generations must be nonnegative")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        TrainConfig.of(self)  # rejects bad training hyperparameters
        self.initial_state()  # rejects bad search settings

    @classmethod
    def from_dict(cls, doc):
        return config_from_dict(cls, doc, "config")

    def to_dict(self):
        return asdict(self)

    def initial_state(self):
        n = num_parameters(self.order)
        return CmaState(n, mean0=self.mean0, sigma0=self.sigma0, lam=self.population)


@dataclass
class JobResult:
    arch: str
    dataset: str
    accuracy: float
    diverged: bool


@dataclass
class FitnessRecord:
    candidate: int
    jobs: list
    score: float
    degenerate: bool = False  # its range was too narrow to normalize; nothing trained


def aggregate_score(accuracies):
    """Eq.-style mean over the job grid; diverged jobs enter as 0."""
    return float(np.mean(accuracies))


def run_generation(state, cfg, gen_seed):
    """One ask -> train-grid -> tell cycle.

    Returns (records, champion) where champion is (index, score, loss, params)
    and loss is the candidate's NormalizedLoss (None when degenerate).
    """
    ask_rng = np.random.default_rng(derive_seed(gen_seed, "ask"))
    candidates = state.ask(ask_rng)

    with selector_errors("unresolvable selector"):
        splits = {
            sel: noisy_split(
                sel,
                cfg.noise,
                data_seed=derive_seed(gen_seed, "data", sel),
                split_seed=derive_seed(gen_seed, "split", sel),
                val_fraction=cfg.val_fraction,
                pairing=cfg.pairing,
            )
            for sel in cfg.datasets
        }
        arch_specs = {
            (a, sel): arch_from_selector(
                a, input_shape_of(splits[sel].train_features), splits[sel].num_classes
            )
            for a in cfg.architectures
            for sel in cfg.datasets
        }

    # degenerate at any class count in the pool makes a candidate degenerate
    classes = sorted({split.num_classes for split in splits.values()})
    decoded = [TaylorLossParams.from_flat(vec, order=cfg.order) for vec in candidates]
    losses = [normalize(params, num_classes=classes, eta=cfg.eta) for params in decoded]

    # one stacked training per job over the candidates; a degenerate one scores
    # 0 as diverged without training
    live = [i for i, loss in enumerate(losses) if loss is not None]
    fitted = {}  # (candidate, arch, dataset) -> (accuracy, diverged)
    for a in cfg.architectures:
        for sel in cfg.datasets:
            fits = fit_many(
                arch_specs[(a, sel)],
                [losses[i] for i in live],
                splits[sel],
                derive_seed(gen_seed, "init", a),
                TrainConfig.of(cfg, derive_seed(gen_seed, "train", a, sel)),
            )
            for i, (acc, diverged, _) in zip(live, fits):
                fitted[(i, a, sel)] = (acc, diverged)

    records = []
    for i in range(len(candidates)):
        jobs = [
            JobResult(a, sel, *fitted.get((i, a, sel), (0.0, True)))
            for a in cfg.architectures
            for sel in cfg.datasets
        ]
        score = aggregate_score([job.accuracy for job in jobs])
        records.append(FitnessRecord(i, jobs, score, degenerate=losses[i] is None))
    scores = np.array([rec.score for rec in records])

    state.tell(candidates, scores, maximize=True)

    top = int(np.argmax(scores))  # the first of equal scores
    return records, (top, float(scores[top]), losses[top], decoded[top])


# ---------------------------------------------------------------------------
# The full meta-training loop with checkpoint/resume
# ---------------------------------------------------------------------------


def _latest_checkpoint(run_dir):
    best = None
    for path in run_dir.glob("checkpoint_gen_*.json"):
        try:
            gen = int(path.stem.rsplit("_", 1)[1])
        except ValueError:
            continue
        if best is None or gen > best[0]:
            best = (gen, path)
    return best


def _config_change(path, config_text):
    """The first field in which the run directory's config.json differs, in words."""
    try:
        old, new, absent = json.loads(path.read_text()), json.loads(config_text), object()
        name = min(n for n in {*old, *new} if old.get(n, absent) != new.get(n, absent))
    except (OSError, ValueError, TypeError, AttributeError):  # none, no object, no difference
        return "its config.json is missing, holds no config or differs in form only"
    removed = ", a field that was removed" if name in REMOVED_FIELDS else ""
    return f"the first field that differs is {name!r}{removed}"


def _fitness_csv(records):
    return csv_text(
        [["candidate", "arch", "dataset", "accuracy", "diverged"]]
        + [(rec.candidate, job.arch, job.dataset, f"{job.accuracy:.6f}", int(job.diverged))
           for rec in records for job in rec.jobs]
    )


def _cma_log_csv(history):
    return csv_text(
        [["generation", "evals", "best_fitness", "mean_fitness", "sigma", "min_eig", "max_eig"]]
        + [(row["generation"], row["evals"], f"{row['best_fitness']:.6f}",
            f"{row['mean_fitness']:.6f}", f"{row['sigma']:.6e}", f"{row['min_eig']:.6e}",
            f"{row['max_eig']:.6e}") for row in history]
    )


def _write(path, text):
    """Replace ``path`` whole: an interrupted write leaves only a temp file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _log_generation(row, records, seconds):
    trained = [job for rec in records if not rec.degenerate for job in rec.jobs]
    log.info(
        "generation %d: best %.6f, mean %.6f, sigma %.4g, %d of %d trainings diverged, "
        "%d candidates degenerate, %.2f s, %.1f trainings/s",
        row["generation"], row["best_fitness"], row["mean_fitness"], row["sigma"],
        sum(job.diverged for job in trained), len(trained),
        sum(rec.degenerate for rec in records), seconds, len(trained) / seconds,
    )


def meta_train(cfg, run_dir, stop_after=None):
    """Run (or resume) the full search; returns (best loss, history).

    ``history`` holds one dict per generation, keyed by the columns of
    cma_log.csv.

    ``stop_after`` caps how many generations this call executes, simulating an
    interruption; calling again with the same run_dir resumes exactly where
    the previous call left off, byte-identical to an uninterrupted run.
    """
    if stop_after is not None and stop_after < 0:
        raise ConfigError(f"stop_after must be >= 0, got {stop_after}")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    config_path = run_dir / "config.json"
    latest = _latest_checkpoint(run_dir)
    # a checkpoint makes the directory a run, resumed only under its own config.json;
    # the config of a run that failed before its first generation is replaced
    if latest is not None and not (
        config_path.exists() and config_path.read_text() == config_text
    ):
        raise ConfigError(
            f"run directory {run_dir} holds a different config or none: "
            + _config_change(config_path, config_text)
        )
    _write(config_path, config_text)

    state = cfg.initial_state()
    best = None  # {"score", "generation", "loss_json"}
    history = []  # one row of numbers per generation, as cma_log.csv lists them

    if latest is not None:
        doc = json.loads(latest[1].read_text())
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"checkpoint version {doc.get('version')} is not resumable "
                f"(expected {CHECKPOINT_VERSION})"
            )
        state = CmaState.from_dict(doc["cma"])
        best = doc["best"]
        history = doc["history"]

    ran = 0
    while stop_reason(state, [h["best_fitness"] for h in history], cfg.max_generations) is None:
        if stop_after is not None and ran >= stop_after:
            break
        started = time.perf_counter()
        gen_seed = derive_seed(cfg.master_seed, "gen", state.generation)
        records, champion = run_generation(state, cfg, gen_seed)
        ran += 1
        generation = state.generation  # post-tell, 1-based

        _, score, norm_loss, raw_params = champion
        if best is None or score > best["score"]:
            loss_obj = norm_loss if norm_loss is not None else raw_params
            best = {
                "score": score,
                "generation": generation,
                "loss_json": loss_to_json(loss_obj),
            }

        lo, hi = state.eigenvalues()
        history.append(
            {
                "generation": generation,
                "evals": state.evals,
                "best_fitness": best["score"],
                "mean_fitness": float(np.mean([rec.score for rec in records])),
                "sigma": state.sigma,
                "min_eig": lo,
                "max_eig": hi,
            }
        )

        _write(run_dir / f"fitness_gen_{generation}.csv", _fitness_csv(records))
        _write(run_dir / "cma_log.csv", _cma_log_csv(history))
        checkpoint = {
            "version": CHECKPOINT_VERSION,
            "cma": state.to_dict(),
            "best": best,
            "history": history,
        }
        _write(
            run_dir / f"checkpoint_gen_{generation}.json",
            json.dumps(checkpoint, sort_keys=True) + "\n",
        )
        _log_generation(history[-1], records, time.perf_counter() - started)

    if best is None:  # nothing ran: the loss encoded by the current mean, unnormalized
        best = {"loss_json": loss_to_json(TaylorLossParams.from_flat(state.mean, order=cfg.order))}
    _write(run_dir / "best_loss.json", best["loss_json"])
    return loss_from_json(best["loss_json"]), history
