"""Bilevel search for noise-robust losses.

The outer loop is CMA-ES over flat polynomial-loss parameter vectors; each
candidate is decoded, range-normalized, and scored by the mean clean
validation accuracy of small networks trained on noise-corrupted data across
the architecture x dataset job grid. Everything is derived from the master
seed, and job results are reduced in job-index order, so the run is a pure
function of its config no matter how many workers execute it.
"""

import csv
import io
import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cma import CmaState, stop_reason
from .datasets import dataset_from_selector
from .datasets import split as split_dataset
from .network import TrainConfig, accuracy, arch_from_selector, init, train
from .noise import noise_from_selector
from .seeding import derive_seed, label_checksum
from .taylor import (
    TaylorLossParams,
    loss_from_json,
    loss_to_json,
    normalize,
    num_parameters,
)

log = logging.getLogger("losslearn")

CHECKPOINT_VERSION = 1

MODES = ("AR", "DR", "Full")

_REQUIRED_FIELDS = (
    "mode",
    "architectures",
    "datasets",
    "noise",
    "max_generations",
    "master_seed",
)

_OPTIONAL_DEFAULTS = {
    "eta": 1.0,
    "order": 4,
    "val_fraction": 0.2,
    "range_samples": 10_000,
    "sigma0": 0.5,
    "mean0": None,
    "population": None,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "batch_size": 128,
    "epochs": 5,
    "workers": 1,
    "pairing": None,
}


@dataclass(frozen=True)
class MetaConfig:
    mode: str
    architectures: tuple
    datasets: tuple
    noise: str
    max_generations: int
    master_seed: int
    eta: float = 1.0
    order: int = 4
    val_fraction: float = 0.2
    range_samples: int = 10_000
    sigma0: float = 0.5
    mean0: tuple = None
    population: int = None
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 128
    epochs: int = 5
    workers: int = 1
    pairing: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "architectures", tuple(self.architectures))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if self.mean0 is not None:
            object.__setattr__(self, "mean0", tuple(self.mean0))
        if self.pairing is not None:
            object.__setattr__(self, "pairing", tuple(self.pairing))
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
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        for name in _REQUIRED_FIELDS:
            if name not in doc:
                raise ValueError(f"missing field '{name}'")
        known = set(_REQUIRED_FIELDS) | set(_OPTIONAL_DEFAULTS)
        for name in doc:
            if name not in known:
                raise ValueError(f"unknown field '{name}'")
        kwargs = {name: doc[name] for name in _REQUIRED_FIELDS}
        for name, default in _OPTIONAL_DEFAULTS.items():
            kwargs[name] = doc.get(name, default)
        return cls(**kwargs)

    def to_dict(self):
        doc = {name: getattr(self, name) for name in _REQUIRED_FIELDS}
        for name in _OPTIONAL_DEFAULTS:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            doc[name] = value
        doc["architectures"] = list(self.architectures)
        doc["datasets"] = list(self.datasets)
        return doc

    def inner_config(self, seed):
        return TrainConfig(
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=seed,
        )


@dataclass
class JobResult:
    arch: str
    dataset: str
    accuracy: float
    diverged: bool
    wall_time: float = 0.0


@dataclass
class FitnessRecord:
    candidate: int
    jobs: list
    score: float


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

    splits = {}
    class_counts = {}
    for sel in cfg.datasets:
        ds = dataset_from_selector(sel, seed=derive_seed(gen_seed, "data", sel))
        noise_spec = noise_from_selector(cfg.noise, ds.num_classes)
        sp = split_dataset(
            ds,
            val_fraction=cfg.val_fraction,
            noise=noise_spec,
            seed=derive_seed(gen_seed, "split", sel),
            pairing=cfg.pairing,
        )
        # fitness must only ever see clean validation labels
        if label_checksum(sp.val_labels) != sp.provenance["val_label_checksum"]:
            raise RuntimeError(f"validation labels for {sel} were modified")
        if not np.array_equal(sp.val_labels, ds.labels[sp.val_indices]):
            raise RuntimeError(f"validation labels for {sel} differ from source")
        splits[sel] = sp
        class_counts[sel] = ds.num_classes

    arch_specs = {
        (a, sel): arch_from_selector(
            a,
            _input_shape_from_split(splits[sel]),
            class_counts[sel],
        )
        for a in cfg.architectures
        for sel in cfg.datasets
    }
    init_seeds = {a: derive_seed(gen_seed, "init", a) for a in cfg.architectures}
    train_seeds = {
        (a, sel): derive_seed(gen_seed, "train", a, sel)
        for a in cfg.architectures
        for sel in cfg.datasets
    }

    # normalization range is estimated against the first dataset's class count
    ref_classes = class_counts[cfg.datasets[0]]
    decoded = []
    losses = []
    for i, vec in enumerate(candidates):
        try:
            params = TaylorLossParams.from_flat(vec, order=cfg.order)
        except ValueError:
            decoded.append(None)
            losses.append(None)
            continue
        decoded.append(params)
        losses.append(
            normalize(
                params,
                num_classes=ref_classes,
                eta=cfg.eta,
                num_samples=cfg.range_samples,
                seed=derive_seed(gen_seed, "range", i),
            )
        )

    jobs = [
        (i, a, sel)
        for i in range(len(candidates))
        for a in cfg.architectures
        for sel in cfg.datasets
    ]

    def execute(job):
        i, a, sel = job
        loss = losses[i]
        if loss is None:
            return JobResult(a, sel, 0.0, True, 0.0)
        start = time.perf_counter()
        try:
            net = init(arch_specs[(a, sel)], init_seeds[a])
            result = train(
                net, loss, splits[sel], cfg.inner_config(train_seeds[(a, sel)])
            )
            if result.diverged:
                return JobResult(a, sel, 0.0, True, time.perf_counter() - start)
            acc = accuracy(net, splits[sel].val_features, splits[sel].val_labels)
            return JobResult(a, sel, acc, False, time.perf_counter() - start)
        except Exception:
            log.exception("job (%d, %s, %s) failed; scoring 0", i, a, sel)
            return JobResult(a, sel, 0.0, True, time.perf_counter() - start)

    if cfg.workers == 1:
        results = [execute(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(execute, jobs))  # preserves job order

    per_candidate = len(cfg.architectures) * len(cfg.datasets)
    records = []
    scores = np.zeros(len(candidates))
    for i in range(len(candidates)):
        chunk = results[i * per_candidate : (i + 1) * per_candidate]
        score = aggregate_score([job.accuracy for job in chunk])
        records.append(FitnessRecord(candidate=i, jobs=chunk, score=score))
        scores[i] = score

    state.tell(candidates, scores, maximize=True)

    champion = None
    for i in np.argsort(-scores, kind="stable"):
        if decoded[i] is not None:
            champion = (int(i), float(scores[i]), losses[i], decoded[i])
            break
    return records, champion


def _input_shape_from_split(sp):
    shape = sp.train_features.shape[1:]
    if len(shape) == 1:
        return int(shape[0])
    if len(shape) == 2:
        return (shape[0], shape[1], 1)
    return tuple(shape)


# ---------------------------------------------------------------------------
# The full meta-training loop with checkpoint/resume
# ---------------------------------------------------------------------------


def _checkpoint_path(run_dir, generation):
    return run_dir / f"checkpoint_gen_{generation}.json"


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


def _fitness_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["candidate", "arch", "dataset", "accuracy", "diverged"])
    for rec in records:
        for job in rec.jobs:
            writer.writerow(
                [rec.candidate, job.arch, job.dataset, f"{job.accuracy:.6f}",
                 int(job.diverged)]
            )
    return buf.getvalue()


CMA_LOG_HEADER = "generation,evals,best_fitness,mean_fitness,sigma,min_eig,max_eig"


def _write_cma_log(run_dir, rows):
    text = CMA_LOG_HEADER + "\n" + "".join(row + "\n" for row in rows)
    (run_dir / "cma_log.csv").write_text(text)


def meta_train(cfg, run_dir, stop_after=None):
    """Run (or resume) the full search; returns (best loss, history).

    ``stop_after`` caps how many generations this call executes, simulating an
    interruption; calling again with the same run_dir resumes exactly where
    the previous call left off, byte-identical to an uninterrupted run.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"
    config_path = run_dir / "config.json"
    if config_path.exists() and config_path.read_text() != config_text:
        raise ValueError(f"run directory {run_dir} holds a different config")
    config_path.write_text(config_text)

    n = num_parameters(cfg.order)
    state = CmaState(n, mean0=cfg.mean0, sigma0=cfg.sigma0, lam=cfg.population)
    best = None  # {"score", "generation", "loss_json"}
    best_history = []
    log_rows = []

    latest = _latest_checkpoint(run_dir)
    if latest is not None:
        doc = json.loads(latest[1].read_text())
        if doc.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {doc.get('version')} is not resumable "
                f"(expected {CHECKPOINT_VERSION})"
            )
        state = CmaState.from_dict(doc["cma"])
        best = doc["best"]
        best_history = list(doc["best_history"])
        log_rows = list(doc["log_rows"])

    ran = 0
    while True:
        reason = stop_reason(state, best_history, cfg.max_generations)
        if reason is not None:
            break
        if stop_after is not None and ran >= stop_after:
            reason = "interrupted"
            break
        gen_seed = derive_seed(cfg.master_seed, "gen", state.generation)
        records, champion = run_generation(state, cfg, gen_seed)
        ran += 1
        generation = state.generation  # post-tell, 1-based

        if champion is not None:
            idx, score, norm_loss, raw_params = champion
            if best is None or score > best["score"]:
                loss_obj = norm_loss if norm_loss is not None else raw_params
                best = {
                    "score": score,
                    "generation": generation,
                    "loss_json": loss_to_json(loss_obj),
                }

        scores = [rec.score for rec in records]
        best_fit = best["score"] if best is not None else 0.0
        best_history.append(best_fit)
        lo, hi = state.eigenvalues()
        log_rows.append(
            f"{generation},{state.evals},{best_fit:.6f},"
            f"{float(np.mean(scores)):.6f},{state.sigma:.6e},{lo:.6e},{hi:.6e}"
        )

        (run_dir / f"fitness_gen_{generation}.csv").write_text(
            _fitness_csv(records)
        )
        _write_cma_log(run_dir, log_rows)
        checkpoint = {
            "version": CHECKPOINT_VERSION,
            "cma": state.to_dict(),
            "best": best,
            "best_history": best_history,
            "log_rows": log_rows,
        }
        _checkpoint_path(run_dir, generation).write_text(
            json.dumps(checkpoint, sort_keys=True) + "\n"
        )

    if best is not None:
        loss_json = best["loss_json"]
    else:
        # nothing ran (max_generations 0) or nothing was decodable: fall back
        # to the loss encoded by the current mean, unnormalized
        params = TaylorLossParams.from_flat(state.mean, order=cfg.order)
        loss_json = loss_to_json(params)
    (run_dir / "best_loss.json").write_text(loss_json)

    history = []
    for row in log_rows:
        gen_s, evals_s, best_s, mean_s, sigma_s, lo_s, hi_s = row.split(",")
        history.append(
            {
                "generation": int(gen_s),
                "evals": int(evals_s),
                "best_fitness": float(best_s),
                "mean_fitness": float(mean_s),
                "sigma": float(sigma_s),
                "min_eig": float(lo_s),
                "max_eig": float(hi_s),
            }
        )
    return loss_from_json(loss_json), history
