"""Meta-search loop: config validation, the generation table, determinism, resume."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from losslearn import network, search
from losslearn.cli import main_entry
from losslearn.search import MetaConfig, meta_train, run_generation
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


def test_generation_log_reads_the_generation_best_beside_the_cumulative_best(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="losslearn"):
        _, history = meta_train(tiny_config(max_generations=3), tmp_path)
    lines = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("generation")]
    assert len(lines) == len(history) == 3
    for row, line in zip(history, lines):
        fitness = (tmp_path / f"fitness_gen_{row['generation']}.csv").read_text().splitlines()
        own = max(float(r.split(",")[3]) for r in fitness[1:])  # one job: a row is a score
        assert f"best {row['best_fitness']:.6f}, generation best {own:.6f}, " in line


def test_search_logs_why_it_stopped(tmp_path, caplog):
    # one line when the loop ends: the stop reason, or the pause, and the
    # generation count; nothing of it reaches an artifact
    def stops():
        return [rec.getMessage() for rec in caplog.records
                if rec.getMessage().startswith("search stopped")]

    cfg = tiny_config(max_generations=3)
    with caplog.at_level(logging.INFO, logger="losslearn"):
        meta_train(cfg, tmp_path / "paused", stop_after=2)
    assert stops() == ["search stopped: paused by --stop-after, after 2 generations"]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="losslearn"):
        meta_train(cfg, tmp_path / "paused")
        meta_train(cfg, tmp_path / "whole")
    assert stops() == ["search stopped: max-generations, after 3 generations"] * 2
    assert read_artifacts(tmp_path / "paused") == read_artifacts(tmp_path / "whole")


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
  "population": 6,
  "sigma0": 0.3,
  "val_fraction": 0.25
}
"""


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def test_candidate_decode_round_trip():
    rng = np.random.default_rng(5)
    vec = rng.normal(0, 0.5, num_parameters(4))
    params = TaylorLossParams.from_flat(vec, order=4)
    np.testing.assert_array_equal(params.to_flat(), vec)


# ---------------------------------------------------------------------------
# run_generation
# ---------------------------------------------------------------------------


def test_single_job_score_passthrough():
    # one job: a candidate's score is that job's accuracy
    cfg = tiny_config()
    scores, accuracy, _, _, _ = run_generation(
        cfg.initial_state(), cfg, derive_seed(11, "gen", 0)
    )
    assert accuracy.shape == (6, 1)
    np.testing.assert_array_equal(scores, accuracy[:, 0])


def test_two_job_mean():
    # two jobs: a candidate's score is the mean of its row
    cfg = tiny_config(architectures=["mlp:8", "linear"])
    scores, accuracy, _, _, _ = run_generation(
        cfg.initial_state(), cfg, derive_seed(11, "gen", 0)
    )
    assert accuracy.shape == (6, 2)
    for (a, b), score in zip(accuracy, scores):
        assert score == pytest.approx((a + b) / 2)
        assert score == np.mean([a, b])


def test_run_generation_shapes_and_bounds():
    # one job, and four jobs with architectures outer
    for cfg, jobs in [
        (tiny_config(), 1),
        (tiny_config(mode="Full", architectures=["mlp:8", "linear"],
                     datasets=["blobs:3:30:0.3", "rings:3:30"]), 4),
    ]:
        state = cfg.initial_state()
        scores, accuracy, diverged, degenerate, champion = run_generation(
            state, cfg, derive_seed(11, "gen", 0)
        )
        assert accuracy.shape == diverged.shape == (6, jobs)
        assert scores.shape == degenerate.shape == (6,)
        assert ((0.0 <= accuracy) & (accuracy <= 1.0)).all()
        assert (accuracy[diverged] == 0.0).all()
        for row, score in zip(accuracy, scores):
            assert score == np.mean(list(row))
        assert state.generation == 1
        score, loss = champion
        assert score == scores.max()
        top = scores.argmax()
        assert isinstance(loss, TaylorLossParams if degenerate[top] else NormalizedLoss)


def test_dr_jobs_normalize_at_their_own_class_count(monkeypatch):
    # each job's losses map the scan's extremes at that job's C to 0 and eta,
    # so random simplex points of its C land in [0, eta] within the scan's
    # tolerance; a range taken at the first dataset's C gives blobs:10 jobs a
    # fraction of the scale
    jobs, fit_many = [], search.fit_many

    def recorded(spec, losses, data, *args):
        jobs.append((data.num_classes, losses))
        return fit_many(spec, losses, data, *args)

    monkeypatch.setattr(search, "fit_many", recorded)
    cfg = tiny_config(
        mode="DR", datasets=["blobs:3:30:0.3", "blobs:10:20:0.3:dim=4"], eta=8.0, population=8
    )
    run_generation(cfg.initial_state(), cfg, derive_seed(11, "gen", 0))
    assert [c for c, _ in jobs] == [3, 10] and len(jobs[1][1]) > 4
    rng = np.random.default_rng(7)
    for c, losses in jobs:
        yhat = np.vstack([rng.dirichlet(np.ones(c), 400), np.eye(c)])
        labels = rng.integers(0, c, len(yhat))
        for loss in losses:
            lo, hi = loss.inner.estimate_range(c)
            raw = loss.inner.indexed(yhat, labels)[0]
            values = loss.indexed(yhat, labels)[0]
            np.testing.assert_allclose(values, 8.0 * (raw - lo) / (hi - lo), atol=1e-9)
            tol = 1e-4 * 8.0
            assert -tol <= values.min() and values.max() <= 8.0 + tol


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


def test_mixed_generation_writes_each_row_to_its_candidate(tmp_path, monkeypatch):
    # a stacked training is member-independent, so taking candidates 1 and 3
    # out of it leaves every other candidate's rows as they were
    cfg = tiny_config(mode="DR", datasets=["blobs:3:30:0.3", "rings:3:30"], max_generations=1)
    meta_train(cfg, tmp_path / "whole")
    calls, normalize = [], search.normalize

    def degenerate_1_and_3(params, **kwargs):
        calls.append(params)
        return None if len(calls) in (2, 4) else normalize(params, **kwargs)

    monkeypatch.setattr(search, "normalize", degenerate_1_and_3)
    meta_train(cfg, tmp_path / "mixed")
    whole, mixed = (
        (tmp_path / run / "fitness_gen_1.csv").read_text().splitlines()
        for run in ("whole", "mixed")
    )
    assert len(calls) == 6 and len(mixed) == 1 + 6 * 2
    for line, unpatched in zip(mixed[1:], whole[1:]):
        if line.split(",")[0] in ("1", "3"):
            assert line.endswith(",0.000000,1")
        else:
            assert line == unpatched
    assert not all(line.endswith(",0.000000,1") for line in whole[1:])


def test_search_validates_each_job_once_after_its_last_epoch(tmp_path, monkeypatch):
    # a candidate is scored by its accuracy at the end of training alone, so
    # each (generation, job) stack is validated once, not after every epoch
    stacks, accuracy = [], network.accuracy

    def counted(net, features, labels):
        stacks.append(len(net.theta))
        return accuracy(net, features, labels)

    monkeypatch.setattr(network, "accuracy", counted)
    cfg = tiny_config(mode="Full", architectures=["mlp:8", "linear"],
                      datasets=["blobs:3:30:0.3", "rings:3:30"], epochs=3)
    _, history = meta_train(cfg, tmp_path)
    assert len(history) == 2 and len(stacks) == 2 * 4
    # every network that did not diverge is in exactly one validated stack
    rows = [line for g in (1, 2)
            for line in (tmp_path / f"fitness_gen_{g}.csv").read_text().splitlines()[1:]]
    assert sum(stacks) == sum(line.endswith(",0") for line in rows) > 0


@pytest.mark.parametrize(
    "pools, message",
    [
        ({"architectures": ["mlp:8", "mlp:8,"]}, "architecture pool lists 'mlp:8,' twice"),
        ({"mode": "DR", "datasets": ["blobs:3:100:0.5", "blobs:3:100:0.50"]},
         "dataset pool lists 'blobs:3:100:0.50' twice"),
        ({"mode": "Full", "architectures": ["mlp:8", "mlp:8,"],
          "datasets": ["blobs:3:30:0.3", "rings:3:30"]},
         "architecture pool lists 'mlp:8,' twice"),
        # an IDX file is named by its resolved path
        ({"mode": "DR", "architectures": ["linear"],
          "datasets": ["idx:i.idx:l.idx", "idx:./i.idx:l.idx"]},
         "dataset pool lists 'idx:./i.idx:l.idx' twice"),
        ({"mode": "DR", "architectures": ["linear"],
          "datasets": ["idx:i.idx:l.idx", "idx:i.idx:l.idx:downsample=4"]},
         "dataset pool lists 'idx:i.idx:l.idx:downsample=4' twice"),
    ],
)
def test_pool_listing_one_task_twice_exits_two(tmp_path, monkeypatch, capsys, pools, message):
    # one task under two spellings would count twice in every score
    monkeypatch.chdir(tmp_path)
    images = np.random.default_rng(30).integers(0, 256, (30, 4, 4), dtype=np.uint8)
    labels = (np.arange(30) % 3).astype(np.uint8)
    (tmp_path / "i.idx").write_bytes(np.array([2051, 30, 4, 4], ">u4").tobytes() + images.tobytes())
    (tmp_path / "l.idx").write_bytes(np.array([2049, 30], ">u4").tobytes() + labels.tobytes())
    config = tmp_path / "meta.json"
    config.write_text(json.dumps({**tiny_config().to_dict(), **pools}))
    fits = []
    monkeypatch.setattr(search, "fit_many", lambda *args: fits.append(args))
    run_dir = tmp_path / "run"
    assert main_entry(["meta-train", "--config", str(config), "--out", str(run_dir)]) == 2
    assert message in capsys.readouterr().err
    assert fits == []
    assert not list(run_dir.glob("fitness_gen_*.csv"))
    assert not list(run_dir.glob("checkpoint_gen_*.json"))


def test_cli_meta_train_out_naming_a_file_exits_two_before_any_work(tmp_path, monkeypatch,
                                                                    capsys):
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(tiny_config().to_dict()))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    monkeypatch.setattr(search, "fit_many", lambda *args: pytest.fail("a training ran"))
    assert main_entry(["meta-train", "--config", str(config), "--out", str(taken)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot use {taken} as the output directory: it is not a directory\n"
    )
    assert taken.read_text() == "kept"


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


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.update(master_seed=12), "the first field that differs is 'master_seed'"),
    (lambda doc: doc.update(range_samples=1000),
     "the first field that differs is 'range_samples', a field that was removed"),
    (lambda doc: doc.pop("eta"), "the first field that differs is 'eta'"),
    # a run directory of a release that had the pairing option
    (lambda doc: doc.update(pairing=None),
     "the first field that differs is 'pairing', a field that was removed"),
])
def test_resume_names_the_first_differing_field(tmp_path, edit, named):
    cfg = tiny_config(max_generations=1)
    meta_train(cfg, tmp_path / "r")
    path = tmp_path / "r" / "config.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="holds a different config or none: " + named):
        meta_train(cfg, tmp_path / "r")
    path.write_text("[]")
    with pytest.raises(ValueError, match="its config.json is missing, holds no config"):
        meta_train(cfg, tmp_path / "r")


def test_version_2_checkpoints_exit_two_before_any_generation(tmp_path, monkeypatch, capsys):
    # a v2 checkpoint embeds a v2-era loss file that would not load at the end
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(tiny_config(max_generations=3).to_dict()))
    run_dir = tmp_path / "run"
    argv = ["meta-train", "--config", str(config), "--out", str(run_dir)]
    assert main_entry(argv + ["--stop-after", "1"]) == 0
    path = run_dir / "checkpoint_gen_1.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": 2}))
    left = read_artifacts(run_dir)
    ran = []
    monkeypatch.setattr(search, "run_generation", lambda *args: ran.append(args))
    capsys.readouterr()
    assert main_entry(argv) == 2
    assert "checkpoint version 2 is not resumable (expected 3)" in capsys.readouterr().err
    assert ran == [] and read_artifacts(run_dir) == left


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
    assert reloaded == best  # a normalized loss is its inner loss and eta


@pytest.mark.parametrize("generations", [0, 1])
def test_best_loss_file_is_canonical_json(tmp_path, generations):
    meta_train(tiny_config(max_generations=generations), tmp_path / "run")
    path = tmp_path / "run" / "best_loss.json"
    assert path.read_text() == loss_to_json(load_loss(path))
