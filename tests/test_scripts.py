"""The diagnostic scripts under scripts/ borrow the acceptance test's settings
and helpers; a rename there must fail here, not when a script next runs."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BORROWED = {"deploy", "mean_curve", "SEARCH_CONFIG", "BLOBS", "RINGS", "SMALL_BLOBS"}


def borrowed_names(script):
    """The names a script reads from test_acceptance (imported as acc) and
    the names it imports from acceptance_sweep."""
    tree = ast.parse((SCRIPTS / f"{script}.py").read_text())
    acc = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "acc"
    }
    sweep = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "acceptance_sweep"
        for alias in node.names
    }
    return acc, sweep


@pytest.fixture
def scripts(monkeypatch):
    """Both scripts as modules; their sys.path additions end with the test."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return {name: importlib.import_module(name) for name in ("acceptance_sweep", "reuse_check")}


def test_scripts_resolve_every_name_they_borrow(scripts):
    sweep = scripts["acceptance_sweep"]
    used = set()
    for name, module in scripts.items():
        acc, imported = borrowed_names(name)
        assert [n for n in sorted(acc) if not hasattr(module.acc, n)] == []
        assert [n for n in sorted(imported) if not hasattr(sweep, n)] == []
        used |= acc
    assert used == BORROWED  # the scan sees what the scripts use
    assert sweep.seed_range("3") == range(3, 4)


def test_scripts_parse_their_seeds_without_running(scripts):
    for module in scripts.values():
        assert module.parse_seeds(["--seeds", "0-1"], "0-9", module.__doc__) == range(0, 2)
    assert scripts["reuse_check"].parse_seeds([], "0-4") == range(0, 5)


def test_sweep_runs_each_core_in_a_child_with_its_coretype(scripts, monkeypatch):
    # only the parsing and the child's command and environment: no child runs here
    sweep = scripts["acceptance_sweep"]
    args = sweep.parse_args(["--seeds", "4", "--coretypes", "Haswell,Sandybridge,Prescott"])
    assert args.seeds == range(4, 5)
    assert args.coretypes == ["Haswell", "Sandybridge", "Prescott"]
    assert sweep.parse_args([]).coretypes is None
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Prescott")
    monkeypatch.setenv("LOSSLEARN_SWEEP_PROBE", "kept")
    command, env = sweep.child("Haswell", range(0, 10))
    assert command == [sys.executable, str(SCRIPTS / "acceptance_sweep.py"), "--seeds", "0-9"]
    assert sweep.parse_args(command[2:]).seeds == range(0, 10)
    assert env["OPENBLAS_CORETYPE"] == "Haswell" and env["LOSSLEARN_SWEEP_PROBE"] == "kept"


def test_sweep_reads_the_late_curve(scripts):
    curve = np.linspace(0.0, 1.0, 30)
    curve[-10:] = [0.9, 1.0] * 5  # it ends at its best, 1.0, alternating with 0.9
    drop, late, jitter = scripts["acceptance_sweep"].late_curve(curve)
    assert drop == 0.0
    assert late == pytest.approx(0.05)
    changes = np.abs(np.diff(curve[-21:]))
    assert len(changes) == 20 and jitter == pytest.approx(changes.mean())


def test_artifact_digests_repeat_exactly(monkeypatch, tmp_path):
    # the byte-identity check between two checkouts is only as good as its
    # own repeatability: two runs print the same lines, and a run leaves the
    # working directory as it found it
    monkeypatch.syspath_prepend(str(SCRIPTS))
    digests = importlib.import_module("artifact_digests")
    cwd = Path.cwd()
    first = digests.run(tmp_path / "a")
    assert Path.cwd() == cwd
    assert first == digests.run(tmp_path / "b")
    printed = ("stdout of", "stderr of", "sha256 of")
    files = [line.split("  ", 1)[1] for line in first if not line.startswith(printed)]
    assert {"ar/checkpoint_gen_4.json", "full/fitness_gen_2.csv", "idx/checkpoint_gen_2.json",
            "grid/results.csv", "train_cnn.csv", "train_cnn28.csv", "inspect_normalized.csv",
            "noise.csv", "noise_sym.csv", "train_pairing.csv", "inputs/pairing.csv"} <= set(files)
    trains = [line.split(": ") for line in first if line.startswith("stdout of")]
    assert [label for label, _ in trains] == [
        "stdout of train --arch mlp:16 --curve-out train_mlp.csv",
        "stdout of train --arch cnn --curve-out train_cnn.csv",
        "stdout of train --arch mlp:16",
        "stdout of train --arch cnn --epochs 1 --curve-out train_cnn28.csv",
        "stdout of train --arch mlp:16 --loss sce --dataset idx:inputs/images.idx:inputs/labels.idx"
        " --noise sym:0.2 --epochs 2 --seed 3 --curve-out train_sce.csv",
        "stdout of train --arch mlp:16 --loss ce --dataset blobs:3:40:0.5"
        " --noise matrix:inputs/pairing.csv --epochs 3 --seed 3 --curve-out train_pairing.csv",
    ]
    assert trains[0][1] == trains[2][1]  # a curve does not change the training
    ranks = [line for line in first if line.startswith("stderr of")]
    assert [line.split(": average rank ")[0] for line in ranks] == [
        f"stderr of benchmark: {loss}" for loss in digests.GRID["losses"]
    ]
    thetas = [line.split(": ")[0] for line in first if line.startswith("sha256 of")]
    assert thetas == [f"sha256 of {part} after train {name}"
                      for name, *_ in digests.THETA_RUNS for part in ("theta", "momentum")]
    with pytest.raises(SystemExit, match="is not empty"):
        digests.run(tmp_path / "a")
