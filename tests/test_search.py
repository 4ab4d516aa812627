"""Meta-search loop: config validation, aggregation, determinism, resume."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from losslearn import search
from losslearn.cli import main_entry
from losslearn.cma import cma_init
from losslearn.search import (
    FitnessRecord,
    MetaConfig,
    aggregate_score,
    meta_train,
    run_generation,
)
from losslearn.seeding import derive_seed
from losslearn.taylor import (
    NormalizedLoss,
    TaylorLossParams,
    load_loss,
    loss_from_json,
    loss_to_json,
    num_parameters,
)


def tiny_config(**overrides):
    base = {
        "mode": "AR",
        "architectures": ["mlp:8"],
        "datasets": ["blobs:3:30:0.3"],
        "noise": "sym:0.2",
        "max_generations": 2,
        "master_seed": 11,
        "population": 6,
        "epochs": 2,
        "batch_size": 16,
    }
    base.update(overrides)
    return MetaConfig.from_dict(base)


def read_artifacts(run_dir):
    out = {}
    for path in sorted(run_dir.iterdir()):
        out[path.name] = path.read_bytes()
    return out


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_missing_field_named():
    doc = tiny_config().to_dict()
    del doc["noise"]
    with pytest.raises(ValueError, match="noise"):
        MetaConfig.from_dict(doc)


def test_config_unknown_field_rejected():
    doc = tiny_config().to_dict()
    doc["learnig_rate"] = 0.1
    with pytest.raises(ValueError, match="learnig_rate"):
        MetaConfig.from_dict(doc)


@pytest.mark.parametrize("field, value", [
    ("population", 4.5), ("max_generations", 1.5), ("master_seed", "x"),
    ("architectures", "mlp:8"), ("mean0", [0.1, "0"]),
])
def test_config_built_directly_checks_field_types(field, value):
    # the class checks its own fields, so a config built without a file is
    # held to the same types as one read from a file
    doc = dict(tiny_config().to_dict(), **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        MetaConfig(**doc)


def test_config_mode_pool_invariants():
    with pytest.raises(ValueError, match="AR mode"):
        tiny_config(datasets=["blobs:3:30:0.3", "rings:3:30"])
    with pytest.raises(ValueError, match="DR mode"):
        tiny_config(mode="DR", architectures=["mlp:8", "linear"])
    with pytest.raises(ValueError, match="pool is empty"):
        tiny_config(architectures=[])
    with pytest.raises(ValueError, match="mode"):
        tiny_config(mode="XR")


def test_full_mode_logs_cost_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="losslearn"):
        tiny_config(
            mode="Full",
            architectures=["mlp:8", "linear"],
            datasets=["blobs:3:30:0.3", "rings:3:30"],
        )
    assert any("slow" in rec.message for rec in caplog.records)


def test_config_round_trip():
    cfg = tiny_config()
    assert MetaConfig.from_dict(cfg.to_dict()) == cfg


def test_config_round_trip_sets_every_field(tmp_path):
    cfg = tiny_config(
        max_generations=0,
        eta=0.5,
        order=2,
        val_fraction=0.25,
        sigma0=0.3,
        mean0=[0.1, 0.2, 0.0, 0.0, 0.0],
        learning_rate=0.05,
        momentum=0.5,
        pairing=[1, 2, 0],
    )
    assert MetaConfig.from_dict(cfg.to_dict()) == cfg
    meta_train(cfg, tmp_path)
    assert (tmp_path / "config.json").read_text() == CONFIG_JSON


CONFIG_JSON = """{
  "architectures": [
    "mlp:8"
  ],
  "batch_size": 16,
  "datasets": [
    "blobs:3:30:0.3"
  ],
  "epochs": 2,
  "eta": 0.5,
  "learning_rate": 0.05,
  "master_seed": 11,
  "max_generations": 0,
  "mean0": [
    0.1,
    0.2,
    0.0,
    0.0,
    0.0
  ],
  "mode": "AR",
  "momentum": 0.5,
  "noise": "sym:0.2",
  "order": 2,
  "pairing": [
    1,
    2,
    0
  ],
  "population": 6,
  "sigma0": 0.3,
  "val_fraction": 0.25
}
"""


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_single_job_score_passthrough():
    assert aggregate_score([0.7]) == pytest.approx(0.7)


def test_two_job_mean():
    assert aggregate_score([0.8, 0.6]) == pytest.approx(0.7)


def test_candidate_decode_round_trip():
    rng = np.random.default_rng(5)
    vec = rng.normal(0, 0.5, num_parameters(4))
    params = TaylorLossParams.from_flat(vec, order=4)
    np.testing.assert_array_equal(params.to_flat(), vec)


# ---------------------------------------------------------------------------
# run_generation
# ---------------------------------------------------------------------------


def test_run_generation_shapes_and_bounds():
    cfg = tiny_config()
    state = cma_init(num_parameters(cfg.order), sigma0=cfg.sigma0, lam=cfg.population)
    records, champion = run_generation(state, cfg, derive_seed(11, "gen", 0))
    assert len(records) == 6
    for rec in records:
        assert len(rec.jobs) == 1
        assert 0.0 <= rec.score <= 1.0
        assert rec.score == aggregate_score([j.accuracy for j in rec.jobs])
        for job in rec.jobs:
            assert 0.0 <= job.accuracy <= 1.0
            if job.diverged:
                assert job.accuracy == 0.0
    assert state.generation == 1
    assert champion is not None
    idx, score, loss, params = champion
    assert score == max(rec.score for rec in records)
    assert isinstance(params, TaylorLossParams)
    if loss is not None:
        assert isinstance(loss, NormalizedLoss)


def test_degenerate_candidates_score_zero(tmp_path):
    # a near-vanishing step size around the zero vector keeps every candidate
    # inside the degenerate-range threshold, so none can be normalized
    cfg = tiny_config(sigma0=1e-11, max_generations=1)
    run_dir = tmp_path / "degen"
    best, history = meta_train(cfg, run_dir)
    assert len(history) == 1
    assert history[0]["best_fitness"] == 0.0
    fitness = (run_dir / "fitness_gen_1.csv").read_text().splitlines()
    assert fitness[0] == "candidate,arch,dataset,accuracy,diverged"
    for line in fitness[1:]:
        assert line.endswith(",0.000000,1")
    # champion falls back to the raw (unnormalized) polynomial
    assert isinstance(best, TaylorLossParams)


# ---------------------------------------------------------------------------
# meta_train artifacts and determinism
# ---------------------------------------------------------------------------


def test_zero_generations_returns_mean_decode(tmp_path):
    cfg = tiny_config(max_generations=0)
    best, history = meta_train(cfg, tmp_path / "zero")
    assert history == []
    assert isinstance(best, TaylorLossParams)
    np.testing.assert_array_equal(best.to_flat(), np.zeros(12))
    text = (tmp_path / "zero" / "best_loss.json").read_text()
    assert json.loads(text)["normalization"] is None


def test_run_directory_layout(tmp_path):
    cfg = tiny_config()
    meta_train(cfg, tmp_path / "run")
    names = {p.name for p in (tmp_path / "run").iterdir()}
    assert names == {
        "config.json",
        "cma_log.csv",
        "best_loss.json",
        "fitness_gen_1.csv",
        "fitness_gen_2.csv",
        "checkpoint_gen_1.json",
        "checkpoint_gen_2.json",
    }
    log_lines = (tmp_path / "run" / "cma_log.csv").read_text().splitlines()
    assert log_lines[0] == "generation,evals,best_fitness,mean_fitness,sigma,min_eig,max_eig"
    assert len(log_lines) == 3
    assert log_lines[1].startswith("1,6,")
    assert log_lines[2].startswith("2,12,")


def test_meta_train_deterministic(tmp_path):
    cfg = tiny_config()
    meta_train(cfg, tmp_path / "a")
    meta_train(cfg, tmp_path / "b")
    a = read_artifacts(tmp_path / "a")
    b = read_artifacts(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_best_fitness_curve_non_decreasing(tmp_path):
    cfg = tiny_config(max_generations=4)
    _, history = meta_train(cfg, tmp_path / "mono")
    bests = [row["best_fitness"] for row in history]
    assert bests == sorted(bests)
    # and the reported best dominates every generation mean seen so far
    assert all(row["best_fitness"] >= 0.0 for row in history)


def test_resume_is_byte_identical(tmp_path):
    cfg = tiny_config(max_generations=3)
    meta_train(cfg, tmp_path / "full")
    best_a, hist_a = meta_train(cfg, tmp_path / "full")  # no-op second call
    assert len(hist_a) == 3

    interrupted = meta_train(cfg, tmp_path / "resumed", stop_after=1)
    partial = {p.name for p in (tmp_path / "resumed").iterdir()}
    assert "checkpoint_gen_1.json" in partial
    assert "checkpoint_gen_2.json" not in partial
    best_b, hist_b = meta_train(cfg, tmp_path / "resumed")  # picks up at gen 2

    a = read_artifacts(tmp_path / "full")
    b = read_artifacts(tmp_path / "resumed")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs after resume"
    assert hist_a == hist_b


def test_job_exception_exits_three_and_the_run_resumes(tmp_path, monkeypatch, capsys):
    # a job that raises fails the run; it is never scored as a diverged candidate
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(tiny_config(max_generations=3).to_dict()))
    run_dir = tmp_path / "run"
    real_fit = search.fit_many

    def fails_in_generation_two(*args, **kwargs):
        if (run_dir / "checkpoint_gen_1.json").exists():
            raise ValueError("planted failure inside a job")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(search, "fit_many", fails_in_generation_two)
    argv = ["meta-train", "--config", str(config), "--out", str(run_dir)]
    assert main_entry(argv) == 3
    assert "planted failure" in capsys.readouterr().err
    assert (run_dir / "checkpoint_gen_1.json").exists()
    assert not (run_dir / "fitness_gen_2.csv").exists()

    monkeypatch.setattr(search, "fit_many", real_fit)
    assert main_entry(argv) == 0
    fresh = tmp_path / "fresh"
    assert main_entry(["meta-train", "--config", str(config), "--out", str(fresh)]) == 0
    assert read_artifacts(run_dir) == read_artifacts(fresh)


class Killed(Exception):
    pass


def test_interrupted_checkpoint_write_resumes(tmp_path, monkeypatch):
    cfg = tiny_config(max_generations=3)
    meta_train(cfg, tmp_path / "full")

    write_text = Path.write_text

    def killed_half_way(path, text, *args, **kwargs):
        if path.name.startswith("checkpoint_gen_2.json"):
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise Killed
        return write_text(path, text, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", killed_half_way)
        with pytest.raises(Killed):
            meta_train(cfg, tmp_path / "resumed")

    ran = []
    run_generation = search.run_generation

    def counted(state, *args):
        ran.append(state.generation + 1)
        return run_generation(state, *args)

    monkeypatch.setattr(search, "run_generation", counted)
    meta_train(cfg, tmp_path / "resumed")
    assert ran == [2, 3]  # resumed from the last complete checkpoint
    assert read_artifacts(tmp_path / "resumed") == read_artifacts(tmp_path / "full")


def test_conflicting_run_dir_rejected(tmp_path):
    meta_train(tiny_config(max_generations=1), tmp_path / "r")
    with pytest.raises(ValueError, match="different config"):
        meta_train(tiny_config(max_generations=1, master_seed=99), tmp_path / "r")


def test_bad_checkpoint_version_rejected(tmp_path):
    cfg = tiny_config(max_generations=1)
    run_dir = tmp_path / "v"
    meta_train(cfg, run_dir)
    path = run_dir / "checkpoint_gen_1.json"
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version 999"):
        meta_train(cfg, run_dir)


def test_best_loss_file_loads(tmp_path):
    cfg = tiny_config()
    best, _ = meta_train(cfg, tmp_path / "load")
    reloaded = loss_from_json((tmp_path / "load" / "best_loss.json").read_text())
    assert type(reloaded) is type(best)
    if isinstance(best, NormalizedLoss):
        assert reloaded.inner == best.inner
        assert (reloaded.f_min, reloaded.f_max) == (best.f_min, best.f_max)
    else:
        assert reloaded == best


@pytest.mark.parametrize("generations", [0, 1])
def test_best_loss_file_is_canonical_json(tmp_path, generations):
    meta_train(tiny_config(max_generations=generations), tmp_path / "run")
    path = tmp_path / "run" / "best_loss.json"
    assert path.read_text() == loss_to_json(load_loss(path))
