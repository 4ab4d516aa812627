"""Bilevel search for noise-robust losses.

The outer loop is CMA-ES over flat polynomial-loss parameter vectors; each
candidate is decoded, range-normalized, and used to train small networks on
noise-corrupted data, one per job, a job being an (architecture, dataset)
pair. A generation is one (candidate x job) table of clean validation
accuracies and divergence flags, and a candidate's fitness is its row mean.
Everything is derived from the master seed, so the run is a pure function of
its config.
"""

import json
import logging
import os
import time
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .bench import _reject_repeats, csv_text, resolve_job, resolve_split
from .cma import CmaState, stop_reason
from .config import ConfigError, check_fields, config_from_dict
from .network import TrainConfig, fit_many
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
REMOVED_FIELDS = ("workers", "range_samples", "pairing")  # config fields of earlier releases

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


def run_generation(state, cfg, gen_seed):
    """One ask -> train-grid -> tell cycle over the (candidate x job) table.

    The jobs are the (arch, dataset) pairs, architectures outer. Returns
    (scores, accuracy, diverged, degenerate, champion): the (lambda, J) clean
    validation accuracies and divergence flags, their row means as the
    (lambda,) scores told to CMA-ES, and the (lambda,) flags of candidates
    whose range was too narrow to normalize; such a row trains nothing and
    reads 0 and diverged. champion is (score, loss) for the first best
    score, loss being the normalized candidate, or its raw params when it
    is degenerate. A pool that lists one architecture or dataset twice,
    however spelled, is a ConfigError before anything trains.
    """
    ask_rng = np.random.default_rng(derive_seed(gen_seed, "ask"))
    candidates = state.ask(ask_rng)

    splits = [resolve_split(sel, cfg.noise, derive_seed(gen_seed, "data", sel),
                            derive_seed(gen_seed, "split", sel), cfg.val_fraction)
              for sel in cfg.datasets]
    jobs, keys = zip(*(  # each dataset's one split serves every architecture
        resolve_job(a, sp, derive_seed(gen_seed, "init", a),
                    derive_seed(gen_seed, "train", a, sel), TrainConfig.of(cfg))
        for a in cfg.architectures for sel, sp in zip(cfg.datasets, splits)
    ))
    # one task under two spellings would count twice in every score
    width = len(cfg.datasets)  # jobs are architectures outer
    _reject_repeats("dataset pool lists", cfg.datasets, keys[:width])
    _reject_repeats("architecture pool lists", cfg.architectures,
                    [keys[i : i + width] for i in range(0, len(keys), width)])

    # degenerate at any class count in the pool makes a candidate degenerate
    classes = sorted({sp.num_classes for sp in splits})
    decoded = [TaylorLossParams.from_flat(vec, order=cfg.order) for vec in candidates]
    losses = [normalize(params, num_classes=classes, eta=cfg.eta) for params in decoded]
    degenerate = np.array([loss is None for loss in losses])

    # one stacked training per job over the live candidates
    accuracy = np.zeros((len(candidates), len(jobs)))
    diverged = np.ones((len(candidates), len(jobs)), dtype=bool)
    live = np.flatnonzero(~degenerate)
    for j, (spec, sp, init_seed, train_cfg) in enumerate(jobs):
        accuracy[live, j], fail_epoch, _ = fit_many(
            spec, [losses[i] for i in live], sp, init_seed, train_cfg)
        diverged[live, j] = fail_epoch > 0

    scores = accuracy.mean(axis=1)  # diverged and degenerate jobs enter as 0
    state.tell(candidates, scores, maximize=True)

    top = int(np.argmax(scores))  # the first of equal scores
    champion = losses[top] if losses[top] is not None else decoded[top]
    return scores, accuracy, diverged, degenerate, (float(scores[top]), champion)


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


def _fitness_csv(cfg, accuracy, diverged):
    jobs = list(product(cfg.architectures, cfg.datasets))
    return csv_text(
        [["candidate", "arch", "dataset", "accuracy", "diverged"]]
        + [(i, *job, f"{accuracy[i, j]:.6f}", int(diverged[i, j]))
           for i in range(len(accuracy)) for j, job in enumerate(jobs)]
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


def _log_generation(row, scores, diverged, degenerate, seconds):
    """One line on stderr: the cumulative best beside this generation's own best."""
    trained = diverged[~degenerate]
    log.info(
        "generation %d: best %.6f, generation best %.6f, mean %.6f, sigma %.4g, "
        "%d of %d trainings diverged, %d candidates degenerate, %.2f s, %.1f trainings/s",
        row["generation"], row["best_fitness"], scores.max(), row["mean_fitness"], row["sigma"],
        trained.sum(), trained.size, degenerate.sum(), seconds, trained.size / seconds,
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
    while (reason := stop_reason(state, [h["best_fitness"] for h in history],
                                 cfg.max_generations)) is None:
        if stop_after is not None and ran >= stop_after:
            reason = "paused by --stop-after"
            break
        started = time.perf_counter()
        gen_seed = derive_seed(cfg.master_seed, "gen", state.generation)
        scores, accuracy, diverged, degenerate, (score, loss) = run_generation(
            state, cfg, gen_seed
        )
        ran += 1
        generation = state.generation  # post-tell, 1-based

        if best is None or score > best["score"]:
            best = {"score": score, "generation": generation, "loss_json": loss_to_json(loss)}

        lo, hi = state.eigenvalues()
        history.append(
            {
                "generation": generation,
                "evals": state.evals,
                "best_fitness": best["score"],
                "mean_fitness": float(np.mean(scores)),
                "sigma": state.sigma,
                "min_eig": lo,
                "max_eig": hi,
            }
        )

        _write(run_dir / f"fitness_gen_{generation}.csv", _fitness_csv(cfg, accuracy, diverged))
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
        _log_generation(history[-1], scores, diverged, degenerate, time.perf_counter() - started)

    log.info("search stopped: %s, after %d generations", reason, state.generation)
    if best is None:  # nothing ran: the loss encoded by the current mean, unnormalized
        best = {"loss_json": loss_to_json(TaylorLossParams.from_flat(state.mean, order=cfg.order))}
    _write(run_dir / "best_loss.json", best["loss_json"])
    return loss_from_json(best["loss_json"]), history
