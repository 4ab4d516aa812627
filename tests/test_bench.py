import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from losslearn import bench, datasets
from losslearn.bench import (
    BenchmarkGrid,
    ConfigError,
    compute_ranks,
    inspect_loss_csv,
    loss_from_selector,
    mid_ranks,
    noise_matrix_csv,
    run_benchmark,
    run_single_training,
)
from losslearn.cli import main_entry
from losslearn.reference import (
    Bootstrap,
    CrossEntropy,
    GeneralizedCrossEntropy,
    MeanAbsoluteError,
    SymmetricCrossEntropy,
)
from losslearn.seeding import derive_seed
from losslearn.taylor import (
    NormalizedLoss,
    TaylorLossParams,
    coefficient_keys,
    loss_to_json,
    mse_embedding,
    normalize,
    save_loss,
)


# ---------------------------------------------------------------------------
# mid-rank computation against an independent oracle
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.integers(min_value=0, max_value=5).map(lambda k: k / 4.0),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=200, deadline=None)
def test_mid_ranks_match_scipy(values):
    # small value pool forces frequent ties
    ours = mid_ranks(values)
    theirs = rankdata([-v for v in values], method="average")
    np.testing.assert_allclose(ours, theirs)


def test_mid_rank_two_way_tie():
    ranks = mid_ranks([0.8, 0.8, 0.6])
    np.testing.assert_allclose(ranks, [1.5, 1.5, 3.0])


def test_mid_ranks_descending_means_best_is_one():
    np.testing.assert_allclose(mid_ranks([0.1, 0.9, 0.5]), [3.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# rank table assembly
# ---------------------------------------------------------------------------


def toy_grid(**overrides):
    base = dict(
        cells=[("a1", "d1", "none"), ("a1", "d2", "none")],
        losses=("lossA", "lossB"),
        seeds=1,
    )
    base.update(overrides)
    return BenchmarkGrid(**base)


def rows_from(grid, accs):
    # accs[cell_index][loss_index][seed_index]
    rows = []
    for ci, cell in enumerate(grid.cells):
        for li, loss in enumerate(grid.losses):
            for s in range(grid.seeds):
                rows.append((*cell, loss, s, accs[ci][li][s], False))
    return rows


def test_consistent_winner_gets_average_rank_one():
    grid = toy_grid()
    table = compute_ranks(grid, rows_from(grid, [[[0.9], [0.5]], [[0.8], [0.6]]]))
    assert table.averages == {"lossA": 1.0, "lossB": 2.0}


def test_split_wins_average_to_one_point_five():
    grid = toy_grid()
    table = compute_ranks(grid, rows_from(grid, [[[0.9], [0.5]], [[0.6], [0.8]]]))
    assert table.averages == {"lossA": 1.5, "lossB": 1.5}


def test_rank_rows_carry_mean_and_population_std():
    grid = toy_grid(cells=[("a1", "d1", "none")], seeds=2)
    table = compute_ranks(
        grid, rows_from(grid, [[[0.6, 0.8], [0.5, 0.5]]])
    )
    arch, dsel, nsel, loss, mean, std, rank = table.rows[0]
    assert (loss, mean, rank) == ("lossA", 0.7, 1.0)
    assert std == pytest.approx(0.1)  # ddof=0
    assert table.rows[1][4:] == (0.5, 0.0, 2.0)


def test_ranks_invariant_under_monotone_rescaling():
    grid = toy_grid(seeds=2)
    accs = [[[0.62, 0.58], [0.41, 0.45]], [[0.33, 0.35], [0.52, 0.50]]]
    plain = compute_ranks(grid, rows_from(grid, accs))
    squashed = [
        [[math.tanh(3 * a) for a in per_loss] for per_loss in per_cell]
        for per_cell in accs
    ]
    bent = compute_ranks(grid, rows_from(grid, squashed))
    assert [r[6] for r in plain.rows] == [r[6] for r in bent.rows]
    assert plain.averages == bent.averages


def test_missing_rows_detected():
    grid = toy_grid(seeds=2)
    rows = rows_from(grid, [[[0.9, 0.8], [0.5, 0.4]], [[0.8, 0.7], [0.6, 0.5]]])
    with pytest.raises(RuntimeError, match="rows"):
        compute_ranks(grid, rows[:-1])


# ---------------------------------------------------------------------------
# loss selectors
# ---------------------------------------------------------------------------


def test_selector_builds_each_reference_kind():
    assert isinstance(loss_from_selector("ce"), CrossEntropy)
    assert isinstance(loss_from_selector("mae"), MeanAbsoluteError)
    gce = loss_from_selector("gce:q=0.5")
    assert isinstance(gce, GeneralizedCrossEntropy) and gce.q == 0.5
    sce = loss_from_selector("sce:alpha=0.2:A=-6")
    assert isinstance(sce, SymmetricCrossEntropy)
    assert sce.alpha == 0.2 and sce.log_zero == -6
    boot = loss_from_selector("bootstrap:weight=0.8:mode=hard")
    assert isinstance(boot, Bootstrap) and boot.hard and boot.weight == 0.8


def test_selector_loads_loss_file(tmp_path):
    path = tmp_path / "poly.json"
    save_loss(mse_embedding(), path)
    loaded = loss_from_selector(str(path))
    assert loaded.coefficients[(2, 0)] == 2.0


def test_selector_rejects_unknown_name(tmp_path):
    with pytest.raises(ConfigError, match="neither a known name"):
        loss_from_selector("nosuch")
    with pytest.raises(ConfigError, match="neither a known name"):
        loss_from_selector(str(tmp_path))  # a directory


def test_selector_rejects_malformed_option():
    with pytest.raises(ConfigError, match="bad loss option"):
        loss_from_selector("gce:q")
    with pytest.raises(ConfigError, match="bad value"):
        loss_from_selector("gce:q=fast")
    with pytest.raises(ConfigError, match="mode must be soft or hard"):
        loss_from_selector("bootstrap:mode=sideways")
    with pytest.raises(ConfigError, match="cannot build loss"):
        loss_from_selector("gce:quux=0.5")
    for text in (
        "gce:q=0.5:q=0.9",
        "ls:epsilon=0.1:epsilon=0.2",
        "bootstrap:mode=hard:hard=false",
        "sce:A=-4:log_zero=-6",
    ):
        with pytest.raises(ConfigError, match="repeated loss option"):
            loss_from_selector(text)


# ---------------------------------------------------------------------------
# inspection dumps
# ---------------------------------------------------------------------------


def surface_value(text, yhat, y):
    for row in csv.DictReader(io.StringIO(text)):
        if float(row["yhat"]) == yhat and int(row["y"]) == y:
            return float(row["loss"])
    raise AssertionError(f"no row for yhat={yhat} y={y}")


def test_inspect_cross_entropy_midpoint_is_log_two():
    text = inspect_loss_csv(CrossEntropy(), resolution=4)
    assert surface_value(text, 0.5, 1) == pytest.approx(math.log(2.0), abs=1e-6)


def test_inspect_mae_vanishes_at_the_label():
    text = inspect_loss_csv(MeanAbsoluteError(), resolution=4)
    assert surface_value(text, 1.0, 1) == 0.0
    assert surface_value(text, 0.0, 0) == 0.0


def test_inspect_polynomial_matches_closed_form():
    text = inspect_loss_csv(mse_embedding(), resolution=10)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 22  # 11 grid points x 2 labels
    for row in rows:
        p, y = float(row["yhat"]), int(row["y"])
        pred = np.array([p, 1.0 - p])
        label = np.array([1.0, 0.0]) if y == 1 else np.array([0.0, 1.0])
        expected = np.mean((pred - label) ** 2 - label**2)
        assert float(row["loss"]) == pytest.approx(expected, abs=1e-6)


def test_inspect_rejects_zero_resolution():
    with pytest.raises(ConfigError, match="resolution"):
        inspect_loss_csv(CrossEntropy(), resolution=0)


def test_noise_matrix_dump():
    text = noise_matrix_csv("sym:0.4", 3)
    rows = [[float(v) for v in line.split(",")] for line in text.strip().split("\n")]
    np.testing.assert_allclose(
        rows, [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
    )


def test_noise_matrix_none_is_identity():
    text = noise_matrix_csv("none", 4)
    rows = [[float(v) for v in line.split(",")] for line in text.strip().split("\n")]
    np.testing.assert_allclose(rows, np.eye(4))


def test_noise_matrix_with_custom_pairing():
    text = noise_matrix_csv("asym:0.3", 3, pairing=[2, 0, 1])
    rows = [[float(v) for v in line.split(",")] for line in text.strip().split("\n")]
    np.testing.assert_allclose(
        rows, [[0.7, 0.0, 0.3], [0.3, 0.7, 0.0], [0.0, 0.3, 0.7]]
    )


# ---------------------------------------------------------------------------
# grid configs
# ---------------------------------------------------------------------------


def test_grid_from_dict_accepts_cell_objects():
    grid = BenchmarkGrid.from_dict(
        {
            "cells": [{"arch": "mlp:8", "dataset": "blobs:3:20:0.3", "noise": "none"}],
            "losses": ["ce"],
        }
    )
    assert grid.cells == (("mlp:8", "blobs:3:20:0.3", "none"),)


def test_grid_from_dict_sets_every_field():
    doc = {
        "cells": [["mlp:8", "blobs:3:20:0.3", "asym:0.2"]],
        "losses": ["ce", "mae"],
        "seeds": 2,
        "epochs": 3,
        "batch_size": 8,
        "learning_rate": 0.05,
        "momentum": 0.5,
        "val_fraction": 0.25,
        "master_seed": 9,
        "pairing": [2, 0, 1],
    }
    assert BenchmarkGrid.from_dict(doc) == BenchmarkGrid(
        cells=(("mlp:8", "blobs:3:20:0.3", "asym:0.2"),),
        losses=("ce", "mae"),
        seeds=2,
        epochs=3,
        batch_size=8,
        learning_rate=0.05,
        momentum=0.5,
        val_fraction=0.25,
        master_seed=9,
        pairing=(2, 0, 1),
    )


@pytest.mark.parametrize("missing", ["cells", "losses"])
def test_grid_missing_field_is_named(missing):
    doc = {"cells": [["a", "d", "none"]], "losses": ["ce"]}
    del doc[missing]
    with pytest.raises(ConfigError, match=missing):
        BenchmarkGrid.from_dict(doc)


def test_grid_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown field 'epcohs'"):
        BenchmarkGrid.from_dict(
            {"cells": [["a", "d", "none"]], "losses": ["ce"], "epcohs": 3}
        )


@pytest.mark.parametrize("field, value", [
    ("seeds", 2.5), ("master_seed", True), ("losses", "ce"), ("cells", "mlp:8"),
])
def test_grid_built_directly_checks_field_types(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        toy_grid(**{field: value})


def test_grid_rejects_short_cell():
    with pytest.raises(ConfigError, match="arch, dataset, noise"):
        BenchmarkGrid(cells=[("a", "d")], losses=("ce",))


# ---------------------------------------------------------------------------
# full benchmark runs
# ---------------------------------------------------------------------------


def small_grid(**overrides):
    base = dict(
        cells=[
            ("mlp:8", "blobs:3:30:0.3", "none"),
            ("mlp:8", "blobs:3:30:0.3", "sym:0.3"),
        ],
        losses=("ce", "mae"),
        seeds=2,
        epochs=2,
        batch_size=16,
        master_seed=5,
    )
    base.update(overrides)
    return BenchmarkGrid(**base)


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_benchmark_writes_exactly_one_row_per_job(tmp_path):
    grid = small_grid()
    run_benchmark(grid, tmp_path)
    rows = read_csv(tmp_path / "results.csv")
    assert len(rows) == len(grid.cells) * len(grid.losses) * grid.seeds
    for row in rows:
        assert 0.0 <= float(row["accuracy"]) <= 1.0
        assert row["diverged"] in ("0", "1")


def test_benchmark_reruns_are_byte_identical(tmp_path):
    grid = small_grid()
    run_benchmark(grid, tmp_path / "one")
    run_benchmark(grid, tmp_path / "two")
    for name in ("results.csv", "rank_table.csv", "avg_ranks.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


def test_benchmark_rows_equal_single_trainings(tmp_path):
    # the benchmark builds each (cell, seed) split once for all losses; every
    # row must still equal a standalone training on that cell seed
    grid = small_grid()
    run_benchmark(grid, tmp_path)
    expected = []
    for arch, dsel, nsel in grid.cells:
        for loss in grid.losses:
            for s in range(grid.seeds):
                acc, diverged, _ = run_single_training(
                    loss_from_selector(loss),
                    dsel,
                    arch,
                    nsel,
                    epochs=grid.epochs,
                    batch_size=grid.batch_size,
                    learning_rate=grid.learning_rate,
                    momentum=grid.momentum,
                    val_fraction=grid.val_fraction,
                    seed=derive_seed(grid.master_seed, "cell", arch, dsel, nsel, s),
                    pairing=grid.pairing,
                )
                expected.append(
                    [arch, dsel, nsel, loss, str(s), f"{acc:.6f}", str(int(diverged))]
                )
    rows = read_csv(tmp_path / "results.csv")
    assert [list(row.values()) for row in rows] == expected


def test_losses_share_data_and_init_within_a_seed(tmp_path):
    # with learning disabled every loss must report the identical accuracy
    # for a given seed index, proving the data/split/init seeds exclude the loss
    grid = small_grid(learning_rate=0.0, epochs=1)
    run_benchmark(grid, tmp_path)
    rows = read_csv(tmp_path / "results.csv")
    by_job = {
        (r["arch"], r["dataset"], r["noise"], r["loss"], r["seed"]): r["accuracy"]
        for r in rows
    }
    for arch, dsel, nsel in grid.cells:
        for s in ("0", "1"):
            cell_accs = {by_job[(arch, dsel, nsel, loss, s)] for loss in grid.losses}
            assert len(cell_accs) == 1


def test_rank_table_recomputable_from_results_csv(tmp_path):
    grid = small_grid(seeds=3)
    run_benchmark(grid, tmp_path)
    results = read_csv(tmp_path / "results.csv")
    reported = read_csv(tmp_path / "rank_table.csv")
    idx = 0
    for arch, dsel, nsel in grid.cells:
        means = []
        for loss in grid.losses:
            accs = [
                float(r["accuracy"])
                for r in results
                if (r["arch"], r["dataset"], r["noise"], r["loss"])
                == (arch, dsel, nsel, loss)
            ]
            assert len(accs) == grid.seeds
            means.append(np.mean(accs))
            row = reported[idx]
            assert float(row["mean_accuracy"]) == pytest.approx(
                np.mean(accs), abs=1e-6
            )
            assert float(row["std_accuracy"]) == pytest.approx(
                np.std(accs), abs=1e-6
            )
            idx += 1
        expected_ranks = rankdata([-m for m in means], method="average")
        got = [
            float(r["rank"])
            for r in reported[idx - len(grid.losses) : idx]
        ]
        np.testing.assert_allclose(got, expected_ranks)


def test_diverged_jobs_keep_their_rows(tmp_path):
    grid = small_grid(learning_rate=1e160, seeds=1, losses=("ce",))
    run_benchmark(grid, tmp_path)
    rows = read_csv(tmp_path / "results.csv")
    assert len(rows) == len(grid.cells)
    for row in rows:
        assert row["accuracy"] == "0.000000"
        assert row["diverged"] == "1"


def test_benchmark_accepts_polynomial_loss_file(tmp_path):
    path = tmp_path / "poly.json"
    save_loss(mse_embedding(), path)
    grid = small_grid(
        cells=[("mlp:8", "blobs:4:20:0.3", "none")],
        losses=(str(path), "ce"),
        seeds=1,
    )
    run_benchmark(grid, tmp_path / "out")
    rows = read_csv(tmp_path / "out" / "results.csv")
    assert [r["loss"] for r in rows] == [str(path), "ce"]
    assert all(r["diverged"] == "0" for r in rows)


def test_benchmark_builds_each_dataset_once_per_seed(tmp_path, monkeypatch):
    calls = []
    real = datasets.dataset_from_selector

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # count every lookup site, including a module that imported the name
    monkeypatch.setattr(datasets, "dataset_from_selector", counted)
    monkeypatch.setattr(bench, "dataset_from_selector", counted, raising=False)
    grid = small_grid()
    run_benchmark(grid, tmp_path)
    assert len(calls) == len(grid.cells) * grid.seeds


def test_unresolvable_selector_fails_before_training(tmp_path):
    grid = small_grid(cells=[("mlp:8", "blobs:3:30:0.3", "sym:2.0")])
    with pytest.raises(ConfigError, match="unresolvable cell selector"):
        run_benchmark(grid, tmp_path)
    assert not (tmp_path / "results.csv").exists()


# ---------------------------------------------------------------------------
# command line behaviour
# ---------------------------------------------------------------------------


def test_cli_help_exits_zero(capsys):
    assert main_entry(["--help"]) == 0
    capsys.readouterr()


def test_cli_unknown_subcommand_is_config_error(capsys):
    assert main_entry(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_train_prints_accuracy_and_writes_curve(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code = main_entry(
        [
            "train",
            "--loss", "ce",
            "--dataset", "blobs:2:250:0.15",
            "--arch", "mlp:32",
            "--noise", "none",
            "--epochs", "20",
            "--seed", "7",
            "--curve-out", str(curve),
        ]
    )
    out = capsys.readouterr()
    assert code == 0
    acc = float(out.out.strip())
    assert acc > 0.95
    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_accuracy"
    assert len(lines) == 21


def test_cli_train_bad_loss_selector_exits_two(capsys):
    code = main_entry(
        ["train", "--loss", "nosuch", "--dataset", "blobs:2:10:0.3", "--arch", "linear"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "nosuch" in err


def test_cli_train_bad_dataset_selector_exits_two(capsys):
    code = main_entry(
        ["train", "--loss", "ce", "--dataset", "cubes:2:10", "--arch", "linear"]
    )
    assert code == 2
    assert "cubes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--val-fraction", "1.5"], "val_fraction must lie in (0, 1), got 1.5"),
        (
            ["--dataset", "blobs:3:2:0.5"],
            "val_fraction 0.2 leaves no validation examples in blobs:3:2:0.5",
        ),
    ],
)
def test_cli_train_val_fraction_problem_is_no_selector_problem(capsys, argv, message):
    base = ["train", "--loss", "ce", "--dataset", "blobs:2:10:0.3", "--arch", "linear"]
    assert main_entry(base + argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("option", ["--learning-rate", "--momentum"])
def test_cli_train_non_finite_rate_is_a_config_error(tmp_path, capsys, option, value):
    # not a diverged training that scores 0
    name = option[2:].replace("-", "_")
    curve = tmp_path / "curve.csv"
    base = ["train", "--loss", "ce", "--dataset", "blobs:2:10:0.3", "--arch", "linear"]
    assert main_entry(base + ["--curve-out", str(curve), f"{option}={value}"]) == 2
    assert capsys.readouterr().err == f"error: {name} must be a finite number, got {value}\n"
    assert not curve.exists()


@pytest.mark.parametrize(
    "loss, message",
    [
        ("sce:alpha=inf", "alpha must be a finite number, got inf"),
        ("sce:beta=nan", "beta must be a finite number, got nan"),
        ("sce:A=nan", "log_zero must be a finite number, got nan"),
        ("gce:q=true", "q must be a finite number, got True"),
        ("bootstrap:weight=true", "weight must be a finite number, got True"),
        ("bootstrap:hard=0.5", "hard must be true or false, got 0.5"),
    ],
)
def test_cli_train_loss_option_of_the_wrong_type_exits_two(tmp_path, capsys, loss, message):
    # neither a diverged training that scores 0 nor a training under a coerced option
    curve = tmp_path / "curve.csv"
    argv = ["train", "--loss", loss, "--dataset", "blobs:2:10:0.3", "--arch", "linear"]
    assert main_entry(argv + ["--curve-out", str(curve)]) == 2
    assert message in capsys.readouterr().err
    assert not curve.exists()


def test_cli_train_missing_idx_files_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    curve = tmp_path / "curve.csv"
    code = main_entry(
        [
            "train", "--loss", "ce", "--dataset", f"idx:{missing}:{missing}",
            "--arch", "linear", "--curve-out", str(curve),
        ]
    )
    assert code == 2
    assert "missing" in capsys.readouterr().err
    assert not curve.exists()


def test_cli_train_job_exception_exits_three(monkeypatch, capsys):
    # an exception inside a job is a run-time failure, even a ValueError
    def broken(*args, **kwargs):
        raise ValueError("planted failure inside training")

    monkeypatch.setattr(bench, "fit_many", broken)
    code = main_entry(["train", "--loss", "ce", "--dataset", "blobs:2:10:0.3", "--arch", "linear"])
    assert code == 3
    assert "failed: planted failure" in capsys.readouterr().err


GRID_CONFIG = {
    "cells": [["mlp:8", "blobs:3:20:0.3", "none"]],
    "losses": ["ce", "mae"],
    "seeds": 1,
    "epochs": 1,
    "master_seed": 3,
}


def test_cli_benchmark_roundtrip(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(GRID_CONFIG))
    out_dir = tmp_path / "out"
    assert main_entry(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 0
    err = capsys.readouterr().err
    assert "average rank" in err
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "rank_table.csv").exists()
    assert (out_dir / "avg_ranks.csv").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"workers": 1}, "unknown field 'workers'"),
        ({"val_fraction": 1.5}, "val_fraction"),
        ({"learning_rate": -1}, "learning_rate"),
        ({"cells": [{"arch": "mlp:8", "noise": "none"}]}, "has no key 'dataset'"),
        ({"seeds": 1.5}, "seeds"),
        (
            {"cells": [["mlp:8", "blobs:3:20:0.3", "asym:0.2"]], "pairing": [0, 1, 2]},
            "pairing may not map a class to itself",
        ),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ({"epochs": 4.5}, "epochs must be an integer, got 4.5"),
        ({"learning_rate": math.nan}, "learning_rate must be a finite number, got nan"),
        ({"momentum": math.inf}, "momentum must be a finite number, got inf"),
        ({"losses": "ce"}, "losses must be an array, got 'ce'"),
        ({"pairing": "120"}, "pairing must be an array or null, got '120'"),
        ({"pairing": [1.5, 2, 0]}, "pairing must be integers, got [1.5, 2, 0]"),
        ({"losses": [5]}, "losses must be strings, got [5]"),
        ({"cells": [[1, 2, 3]]}, "cell [1, 2, 3] must be [arch, dataset, noise] selector"),
        ({"cells": [["mlp:8", "blobs:3:2:0.5", "none"]]}, "leaves no validation examples"),
        # a repeated loss or cell would give compute_ranks two rows per seed
        ({"losses": ["ce", "mae", "ce"]}, "grid lists loss 'ce' twice"),
        (
            {"cells": GRID_CONFIG["cells"]
             + [{"arch": "mlp:8", "dataset": "blobs:3:20:0.3", "noise": "none"}]},
            "grid lists cell ('mlp:8', 'blobs:3:20:0.3', 'none') twice",
        ),
    ],
)
def test_cli_benchmark_bad_config_exits_two(tmp_path, capsys, override, message):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({**GRID_CONFIG, **override}))
    out_dir = tmp_path / "out"
    assert main_entry(["benchmark", "--config", str(config), "--out", str(out_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not (out_dir / "results.csv").exists()


def test_cli_benchmark_missing_field_names_it(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"losses": ["ce"]}))
    assert main_entry(["benchmark", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "cells" in capsys.readouterr().err


def test_cli_benchmark_malformed_json_exits_two(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text("{not json")
    assert main_entry(["benchmark", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_benchmark_missing_config_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main_entry(["benchmark", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_runtime_failure_exits_three(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "cells": [["mlp:8", "blobs:3:20:0.3", "none"]],
                "losses": ["ce"],
                "seeds": 1,
                "epochs": 1,
            }
        )
    )
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the output directory should go")
    code = main_entry(
        ["benchmark", "--config", str(config), "--out", str(blocker / "sub")]
    )
    assert code == 3
    assert "failed:" in capsys.readouterr().err


def test_cli_inspect_loss_writes_surface(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    code = main_entry(
        ["inspect-loss", "--loss", "ce", "--resolution", "4", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    assert surface_value(text, 0.5, 1) == pytest.approx(math.log(2.0), abs=1e-6)


def test_cli_inspect_malformed_loss_file_exits_two(tmp_path, capsys):
    path = tmp_path / "loss.json"
    doc = json.loads(loss_to_json(mse_embedding()))
    doc["coefficients"] = 5
    path.write_text(json.dumps(doc))
    code = main_entry(
        ["inspect-loss", "--loss", str(path), "--out", str(tmp_path / "s.csv")]
    )
    assert code == 2
    assert "coefficients" in capsys.readouterr().err


def test_cli_version_1_loss_file_exits_two(tmp_path, capsys):
    path = tmp_path / "v1.json"
    doc = json.loads(loss_to_json(NormalizedLoss(mse_embedding(), eta=8.0)))
    path.write_text(json.dumps({**doc, "version": 1, "normalization": {
        "f_min": -0.5, "f_max": 0.5, "eta": 8.0}}))
    for argv in (
        ["inspect-loss", "--out", str(tmp_path / "s.csv")],
        ["train", "--dataset", "blobs:3:20:0.3", "--arch", "mlp:4", "--epochs", "1"],
    ):
        assert main_entry(argv + ["--loss", str(path)]) == 2
        err = capsys.readouterr().err
        assert "version 1 stores a fixed range, which is no longer used" in err
        assert 'set "version" to 2 and keep only "eta"' in err


def test_cli_inspect_loss_normalizes_at_two_classes(tmp_path, capsys):
    # a loss normalized during a 10-class search spans [0, eta] on the binary surface
    path, out = tmp_path / "loss.json", tmp_path / "s.csv"
    save_loss(normalize(mse_embedding(), num_classes=10, eta=8.0), path)
    assert main_entry(["inspect-loss", "--loss", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    values = [float(row["loss"]) for row in csv.DictReader(io.StringIO(out.read_text()))]
    assert (min(values), max(values)) == (0.0, 8.0)


def test_cli_loss_without_range_at_the_class_count_exits_two(tmp_path, capsys):
    # this loss is constant on the two-class simplex, but not on three classes
    coeffs = dict.fromkeys(coefficient_keys(4), 0.0)
    coeffs.update({(2, 0): 2.0, (1, 1): 2.0, (2, 1): -4.0})
    path = tmp_path / "loss.json"
    save_loss(NormalizedLoss(TaylorLossParams(coefficients=coeffs), eta=8.0), path)
    for argv, code in (
        (["inspect-loss", "--out", str(tmp_path / "s.csv")], 2),
        (["train", "--dataset", "blobs:2:20:0.3", "--arch", "mlp:4", "--epochs", "1"], 2),
        (["train", "--dataset", "blobs:3:20:0.3", "--arch", "mlp:4", "--epochs", "1"], 0),
    ):
        assert main_entry(argv + ["--loss", str(path)]) == code
        err = capsys.readouterr().err
        assert ("at 2 classes" in err) == (code == 2)


def test_cli_make_noise_matrix(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main_entry(
        ["make-noise-matrix", "--noise", "asym:0.2", "--classes", "3", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    rows = [
        [float(v) for v in line.split(",")]
        for line in out.read_text().strip().split("\n")
    ]
    np.testing.assert_allclose(
        rows, [[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]]
    )


def test_cli_make_noise_matrix_bad_ratio_exits_two(tmp_path, capsys):
    code = main_entry(
        [
            "make-noise-matrix",
            "--noise", "sym:1.5",
            "--classes", "3",
            "--out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("classes", ["0", "1"])
def test_cli_make_noise_matrix_too_few_classes_exits_two(tmp_path, capsys, classes):
    out = tmp_path / "t.csv"
    code = main_entry(
        ["make-noise-matrix", "--noise", "none", "--classes", classes, "--out", str(out)]
    )
    assert code == 2
    assert "at least 2 classes" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unreadable_json_file_exits_two(tmp_path, capsys):
    directory = str(tmp_path)
    for argv in (
        ["benchmark", "--config", directory, "--out", str(tmp_path / "o")],
        ["meta-train", "--config", directory, "--out", str(tmp_path / "r")],
        ["train", "--loss", "ce", "--dataset", "blobs:3:10:0.3", "--arch", "linear",
         "--noise", "asym:0.2", "--pairing", directory],
    ):
        assert main_entry(argv) == 2, argv[0]
        assert "unreadable" in capsys.readouterr().err


META_CONFIG = {
    "mode": "AR",
    "architectures": ["mlp:8"],
    "datasets": ["blobs:3:30:0.3"],
    "noise": "sym:0.2",
    "max_generations": 1,
    "master_seed": 11,
    "population": 5,
    "epochs": 1,
    "batch_size": 16,
}


def test_cli_meta_train_smoke(tmp_path, capsys):
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(META_CONFIG))
    run_dir = tmp_path / "run"
    assert main_entry(["meta-train", "--config", str(config), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert (run_dir / "best_loss.json").exists()
    assert (run_dir / "cma_log.csv").exists()


def test_cli_meta_train_missing_field_exits_two(tmp_path, capsys):
    config = tmp_path / "meta.json"
    config.write_text(json.dumps({"mode": "AR"}))
    code = main_entry(
        ["meta-train", "--config", str(config), "--out", str(tmp_path / "run")]
    )
    assert code == 2
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"workers": 1}, "unknown field 'workers'"),
        ({"val_fraction": 1.5}, "val_fraction"),
        ({"learning_rate": -1}, "learning_rate"),
        ({"datasets": ["blobz:3:10:0.5"]}, "unknown dataset kind"),
        ({"architectures": ["mlpp:8"]}, "unknown architecture"),
        ({"noise": "sim:0.2"}, "bad noise selector"),
        ({"population": 1}, "population size must be at least 2"),
        ({"sigma0": 0}, "sigma0 must be positive"),
        ({"mean0": [0.0, 0.0]}, "mean0 must have length 12"),
        ({"range_samples": 0}, "unknown field 'range_samples'"),
        ({"order": 0}, "order"),
        ({"epochs": 1.5}, "epochs must be an integer"),
        ({"batch_size": 8.5}, "batch_size must be an integer"),
        ({"population": 4.5}, "population must be an integer or null, got 4.5"),
        ({"max_generations": 1.5}, "max_generations must be an integer, got 1.5"),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
        ({"eta": math.inf}, "eta must be a finite number, got inf"),
        ({"eta": math.nan}, "eta must be a finite number, got nan"),
        ({"eta": 10**400}, "eta must be a finite number"),
        ({"learning_rate": math.nan}, "learning_rate must be a finite number, got nan"),
        ({"sigma0": math.nan}, "sigma0 must be a finite number, got nan"),
        ({"mean0": [0.0] * 11 + [math.nan]}, "mean0 must be finite"),
        ({"noise": 5}, "noise must be a string, got 5"),
        ({"architectures": "mlp:8"}, "architectures must be an array, got 'mlp:8'"),
        ({"datasets": [5]}, "datasets must be strings, got [5]"),
        ({"architectures": [None]}, "architectures must be strings, got [None]"),
        ({"noise": "asym:0.2", "pairing": [1.5, 2, 0]}, "pairing must be integers"),
        # 2 examples per class leave no validation part at 0.2 and no training part at 0.9
        ({"datasets": ["blobs:3:2:0.5"]}, "val_fraction 0.2 leaves no validation examples"),
        (
            {"datasets": ["blobs:3:2:0.5"], "val_fraction": 0.9},
            "val_fraction 0.9 leaves no training examples",
        ),
    ],
)
def test_cli_meta_train_bad_config_exits_two(tmp_path, capsys, override, message):
    # a bad hyperparameter, search setting or selector must not reach the
    # jobs, where it would be scored as a diverged candidate
    config = tmp_path / "meta.json"
    config.write_text(json.dumps({**META_CONFIG, **override}))
    run_dir = tmp_path / "run"
    assert main_entry(["meta-train", "--config", str(config), "--out", str(run_dir)]) == 2
    assert message in capsys.readouterr().err
    assert not list(run_dir.glob("fitness_gen_*.csv"))


def test_cli_meta_train_empty_split_is_no_selector_problem(tmp_path, capsys):
    config = tmp_path / "meta.json"
    config.write_text(json.dumps({**META_CONFIG, "datasets": ["blobs:3:2:0.5"]}))
    assert main_entry(["meta-train", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err == "error: val_fraction 0.2 leaves no validation examples in blobs:3:2:0.5\n"


def test_cli_meta_train_run_dir_conflicts_exit_two(tmp_path, capsys):
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(META_CONFIG))
    run_dir = tmp_path / "run"
    argv = ["meta-train", "--config", str(config), "--out", str(run_dir)]
    assert main_entry(argv) == 0
    capsys.readouterr()

    # a run directory written with a field this config does not have
    config_path = run_dir / "config.json"
    written = config_path.read_text()
    config_path.write_text(json.dumps({**json.loads(written), "workers": 1}))
    assert main_entry(argv) == 2
    assert "holds a different config" in capsys.readouterr().err

    config_path.write_text(written)
    checkpoint = run_dir / "checkpoint_gen_1.json"
    checkpoint.write_text(json.dumps({**json.loads(checkpoint.read_text()), "version": 999}))
    assert main_entry(argv) == 2
    assert "version 999 is not resumable" in capsys.readouterr().err


def test_cli_meta_train_reruns_corrected_config_into_same_dir(tmp_path, capsys):
    # a config that exits 2 before its first generation leaves no run to resume
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({**META_CONFIG, "datasets": ["blobz:3:30:0.3"]}))
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(META_CONFIG))
    run_dir = tmp_path / "run"
    assert main_entry(["meta-train", "--config", str(typo), "--out", str(run_dir)]) == 2
    assert main_entry(["meta-train", "--config", str(config), "--out", str(run_dir)]) == 0
    fresh = tmp_path / "fresh"
    assert main_entry(["meta-train", "--config", str(config), "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == {
        p.name: p.read_bytes() for p in fresh.iterdir()
    }


def test_cli_meta_train_negative_stop_after_exits_two(tmp_path, capsys):
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(META_CONFIG))
    run_dir = tmp_path / "run"
    argv = ["meta-train", "--config", str(config), "--out", str(run_dir), "--stop-after"]
    assert main_entry(argv + ["-1"]) == 2
    assert capsys.readouterr().err == "error: stop_after must be >= 0, got -1\n"
    assert not run_dir.exists()
    # 0 runs no generation and exports the start mean's unnormalized loss
    assert main_entry(argv + ["0"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in run_dir.iterdir()) == ["best_loss.json", "config.json"]
    assert json.loads((run_dir / "best_loss.json").read_text())["normalization"] is None


def test_cli_meta_train_checkpoints_without_config_exit_two(tmp_path, capsys):
    # without config.json a rerun could splice another config's generations
    # onto these checkpoints; even the same config cannot show it is the same
    first = tmp_path / "a.json"
    first.write_text(json.dumps({**META_CONFIG, "max_generations": 3}))
    other = tmp_path / "b.json"
    other.write_text(json.dumps(
        {**META_CONFIG, "max_generations": 3, "master_seed": 12, "datasets": ["blobs:3:40:0.3"]}
    ))
    run_dir = tmp_path / "run"
    argv = ["meta-train", "--out", str(run_dir), "--config"]
    assert main_entry(argv + [str(first), "--stop-after", "1"]) == 0
    (run_dir / "config.json").unlink()
    left = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    for config in (other, first):
        capsys.readouterr()
        assert main_entry(argv + [str(config)]) == 2
        assert "holds a different config or none" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == left


def test_cli_asym_zero_pairing_exits_two_everywhere(tmp_path, capsys):
    # ratio 0 flips no label, but a pairing that maps a class to itself is
    # still a bad config, in every command that takes one
    pairing = tmp_path / "pairing.json"
    pairing.write_text("[0, 2, 1]")
    meta = tmp_path / "meta.json"
    meta.write_text(json.dumps({**META_CONFIG, "noise": "asym:0.0", "pairing": [0, 2, 1]}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        **GRID_CONFIG, "cells": [["mlp:8", "blobs:3:20:0.3", "asym:0.0"]], "pairing": [0, 2, 1]
    }))
    for argv in (
        ["meta-train", "--config", str(meta), "--out", str(tmp_path / "run")],
        ["train", "--loss", "ce", "--dataset", "blobs:3:20:0.3", "--arch", "mlp:8",
         "--noise", "asym:0.0", "--pairing", str(pairing)],
        ["benchmark", "--config", str(grid), "--out", str(tmp_path / "out")],
    ):
        assert main_entry(argv) == 2, argv[0]
        assert "pairing may not map a class to itself" in capsys.readouterr().err
    assert not list((tmp_path / "run").glob("fitness_gen_*.csv"))
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize(
    "command, config, line",
    [
        ("meta-train", {**META_CONFIG, "max_generations": 2},
         r"generation 2: best [\d.]+, mean [\d.]+, sigma \S+, \d+ of \d+ trainings diverged, "
         r"\d+ candidates degenerate, [\d.]+ s, [\d.]+ trainings/s"),
        ("benchmark", GRID_CONFIG,
         r"cell mlp:8 blobs:3:20:0.3 none seed 0: 2 losses, 0 diverged, "
         r"best accuracy [\d.]+, [\d.]+ s"),
    ],
)
def test_cli_verbose_logs_progress_and_writes_the_same_artifacts(tmp_path, command, config, line):
    # the installed command runs in a fresh process, where -v sets up logging
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    src = str(Path(bench.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    loud = subprocess.run(
        [sys.executable, "-m", "losslearn.cli", "-v", command,
         "--config", str(path), "--out", str(tmp_path / "loud")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert loud.returncode == 0, loud.stderr
    assert re.search(rf"^{line}$", loud.stderr, re.M), loud.stderr
    assert main_entry([command, "--config", str(path), "--out", str(tmp_path / "quiet")]) == 0
    for name in {p.name for p in (tmp_path / "loud").iterdir()} | {
        p.name for p in (tmp_path / "quiet").iterdir()
    }:
        assert (tmp_path / "loud" / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()
