"""A command's work split across processes: the same bits, and no process left behind."""

import json
import logging
import os
import time

import numpy as np
import pytest

from losslearn import bench, network, search
from losslearn.bench import BenchmarkGrid, run_benchmark
from losslearn.cli import main_entry
from losslearn.datasets import DatasetSplit
from losslearn.network import Processes, TrainConfig, cnn_spec, fit_many
from losslearn.reference import CrossEntropy
from losslearn.search import MetaConfig, meta_train
from losslearn.seeding import derive_seed
from losslearn.taylor import NormalizedLoss, mse_embedding, normalize, save_loss

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, n, blas_threads=1):
    monkeypatch.setattr(network, "_cpus", lambda: n)
    monkeypatch.setattr(network, "_blas_threads", lambda: blas_threads)


def read_artifacts(run_dir):
    return {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())}


def tiny_config(**overrides):
    return MetaConfig.from_dict({
        "mode": "AR", "architectures": ["mlp:8"], "datasets": ["blobs:3:30:0.3"],
        "noise": "sym:0.2", "max_generations": 2, "master_seed": 11, "population": 6,
        "epochs": 2, "batch_size": 16, **overrides,
    })


def write_idx(directory, n, side=16, classes=3):
    """i.idx and l.idx in directory: n random side x side images, a bright band per class."""
    rng = np.random.default_rng(n)
    labels = (np.arange(n) % classes).astype(np.uint8)
    images = rng.integers(0, 128, (n, side, side), dtype=np.uint8)
    for k in range(classes):
        images[labels == k, k * side // classes : (k + 1) * side // classes] += 120
    (directory / "i.idx").write_bytes(np.array([2051, n, side, side], ">u4").tobytes()
                                      + images.tobytes())
    (directory / "l.idx").write_bytes(np.array([2049, n], ">u4").tobytes() + labels.tobytes())


# ---------------------------------------------------------------------------
# The helper
# ---------------------------------------------------------------------------


def tag(chunk, offset):
    return [(os.getpid(), item + offset) for item in chunk]


def fail_in_child(chunk, parent):
    if os.getpid() != parent:
        raise ValueError(f"planted failure at items {list(chunk)}")
    return list(chunk)


def spare(chunk):
    return [network._spare_cpu() for _ in chunk]


def test_map_returns_items_in_order_and_forks_once(monkeypatch):
    cpus(monkeypatch, 3)
    with Processes() as processes:
        first = processes.map(tag, list(range(7)), 10)
        again = processes.map(tag, list(range(5)), 0)
        assert processes.ran == 3
    assert [item for _, item in first] == list(range(10, 17))
    assert [item for _, item in again] == list(range(5))
    # the parent computes the first and largest chunk; two children the others,
    # the same two for every map
    pids = [pid for pid, _ in first]
    assert pids[:3] == [os.getpid()] * 3
    assert len(set(pids[3:5])) == len(set(pids[5:])) == 1 and len(set(pids)) == 3
    assert [pid for pid, _ in again] == [pids[0]] * 2 + [pids[3]] * 2 + [pids[5]]
    assert_no_children()


def test_a_single_chunk_runs_here_without_a_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus(monkeypatch, 2)
    with Processes() as processes:
        assert processes.map(tag, [4], 0) == [(os.getpid(), 4)]
    cpus(monkeypatch, 1)
    with Processes() as processes:
        assert processes.map(tag, [1, 2, 3], 0) == [(os.getpid(), i) for i in (1, 2, 3)]
        assert processes.ran == 1


def test_each_process_has_a_cpu_for_every_blas_thread(monkeypatch):
    cpus(monkeypatch, 4, blas_threads=2)
    with Processes() as processes:
        done = processes.map(tag, list(range(4)), 0)
        assert processes.ran == 2
    assert len({pid for pid, _ in done}) == 2
    assert_no_children()

    def no_fork():
        raise AssertionError("forked")

    # at the default of one BLAS thread per CPU, two processes' threads would
    # outnumber the CPUs
    monkeypatch.setattr(os, "fork", no_fork)
    cpus(monkeypatch, 2, blas_threads=2)
    with Processes() as processes:
        assert processes.map(tag, [1, 2], 0) == [(os.getpid(), 1), (os.getpid(), 2)]
        assert processes.ran == 1


def test_a_childs_exception_is_raised_here_with_its_type(monkeypatch):
    cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=r"planted failure at items \[2, 3\]"):
        with Processes() as processes:
            processes.map(fail_in_child, [0, 1, 2, 3], os.getpid())
    assert_no_children()


def slow_first(chunk, seconds):
    if chunk == [0]:
        time.sleep(seconds)
    return tag(chunk, 0)


def test_items_of_uneven_cost_go_to_whichever_process_is_free(monkeypatch):
    cpus(monkeypatch, 2)
    with Processes() as processes:
        done = processes.map(slow_first, list(range(6)), 0.5, each=True)
        assert processes.ran == 2
    assert [item for _, item in done] == list(range(6))
    # the parent's first item keeps it busy while the child takes every other one
    assert done[0][0] == os.getpid()
    assert len({pid for pid, _ in done[1:]}) == 1 and done[1][0] != os.getpid()
    assert_no_children()


def logged(chunk, call_log):
    for item in chunk:
        call_log.add(item)
    return list(chunk)


def test_every_item_is_claimed_once_by_more_processes_than_cpus(monkeypatch, call_log):
    # the processes race for the shared counter on every item; a lost update
    # would compute an item twice or not at all
    cpus(monkeypatch, 6)
    items = list(range(300))
    started = time.monotonic()
    with Processes() as processes:
        for _ in range(3):
            call_log.clear()
            assert processes.map(logged, items, call_log, each=True) == items
            assert sorted(item for _, item in call_log.entries()) == items
        assert processes.ran == 6
    assert time.monotonic() - started < 60
    assert_no_children()


def wait_for(test, what):
    deadline = time.monotonic() + 30
    while not test():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def sibling_seen(chunk, flag):
    """_sibling_busy() in each process while the other still computes; the
    parent's unit then waits for the child's to end and looks again."""
    if chunk == [1]:  # the child's: the parent waits for it below
        seen = network._sibling_busy()
        flag.write_text("seen")
        return [seen]
    seen = network._sibling_busy()
    wait_for(flag.exists, "the child's unit")
    wait_for(lambda: not network._sibling_busy(), "the child's busy flag to clear")
    return [(seen, network._sibling_busy())]


def test_a_sibling_is_busy_until_its_units_run_out(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    assert not network._sibling_busy()
    with Processes() as processes:
        assert processes.map(sibling_seen, [0, 1], tmp_path / "flag") == [(True, False), True]
        assert not network._sibling_busy()  # between maps nothing is shared
    assert_no_children()


def affinity(chunk):
    return [sorted(os.sched_getaffinity(0))]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs")
def test_each_process_computes_on_a_cpu_of_its_own(monkeypatch):
    # the kernel was seen to keep a map's two processes on one CPU
    mask = sorted(os.sched_getaffinity(0))
    cpus(monkeypatch, 2)
    with Processes() as processes:
        assert processes.map(affinity, [0, 1]) == [mask[0::2], mask[1::2]]
        assert sorted(os.sched_getaffinity(0)) == mask
    assert_no_children()


SUBMITTED = []


class Counted(network.ThreadPoolExecutor):
    def submit(self, run, *args):
        SUBMITTED.append(run)
        return super().submit(run, *args)


def cnn_tasks():
    """The worker tasks of one epoch of a 16 x 16 CNN training, here and now."""
    rng = np.random.default_rng(3)
    x, y = rng.random((48, 16, 16, 1)), np.arange(48) % 3
    sp = DatasetSplit(train_features=x, train_labels=y, val_features=x, val_labels=y,
                      train_indices=np.arange(48), val_indices=np.arange(48), num_classes=3)
    before = len(SUBMITTED)
    fit_many(cnn_spec(16, 3), [CrossEntropy()], sp, 5, TrainConfig(epochs=1, batch_size=16))
    return len(SUBMITTED) - before


def cnn_beside_sibling(chunk, tmp_path):
    """Worker tasks of a CNN training while the other process trains one too,
    and, in the parent, of one more once the child is done."""
    (item,) = chunk
    tasks = cnn_tasks()
    (tmp_path / str(item)).write_text("trained")
    wait_for((tmp_path / str(1 - item)).exists, "the other process's training")
    if item == 1:
        return [tasks]
    wait_for(lambda: not network._sibling_busy(), "the child's busy flag to clear")
    return [(tasks, cnn_tasks())]


def test_a_busy_sibling_holds_the_worker_threads_cpu(tmp_path, monkeypatch):
    # on two CPUs with one BLAS thread a lone training sends its large weight
    # gradients to the worker; while the sibling process computes, the step
    # keeps them, and once the sibling is done they go to the worker again
    cpus(monkeypatch, 2)
    monkeypatch.setattr(network, "OVERLAP_WORK", 1)
    monkeypatch.setattr(network, "ThreadPoolExecutor", Counted)
    assert cnn_tasks() > 0
    with Processes() as processes:
        (parent, alone), child = processes.map(cnn_beside_sibling, [0, 1], tmp_path, each=True)
    assert (parent, child) == (0, 0) and alone > 0
    assert_no_children()


# ---------------------------------------------------------------------------
# Search: the same bits at one and two processes
# ---------------------------------------------------------------------------


def first_candidates(cfg):
    gen_seed = derive_seed(cfg.master_seed, "gen", 0)
    return cfg.initial_state().ask(np.random.default_rng(derive_seed(gen_seed, "ask")))


def plant(monkeypatch, cfg, degenerate=(), diverging=()):
    """normalize with generation 1's candidates at the given indices degenerate, or
    scaled so far up that their training overflows."""
    candidates = first_candidates(cfg)

    def planted(params, **kwargs):
        index = [np.array_equal(params.to_flat(), c) for c in candidates]
        index = index.index(True) if any(index) else None
        loss = normalize(params, **kwargs)
        if index in degenerate:
            return None
        if index in diverging:
            return NormalizedLoss(loss.inner, eta=1e300)
        return loss

    monkeypatch.setattr(search, "normalize", planted)


def search_at(monkeypatch, n, cfg, run_dir, **kwargs):
    cpus(monkeypatch, n)
    meta_train(cfg, run_dir, **kwargs)
    assert_no_children()
    return read_artifacts(run_dir)


def first_generation_rows(run_dir):
    return (run_dir / "fitness_gen_1.csv").read_text().splitlines()[1:]


def test_search_with_a_degenerate_and_a_diverging_candidate_keeps_every_bit(
        tmp_path, monkeypatch):
    cfg = tiny_config()
    plant(monkeypatch, cfg, degenerate=(1,), diverging=(4,))  # one in each process's chunk
    serial = search_at(monkeypatch, 1, cfg, tmp_path / "serial")
    assert search_at(monkeypatch, 2, cfg, tmp_path / "split") == serial
    rows = first_generation_rows(tmp_path / "split")
    assert rows[1] == "1,mlp:8,blobs:3:30:0.3,0.000000,1"
    assert rows[4] == "4,mlp:8,blobs:3:30:0.3,0.000000,1"
    assert sum(row.endswith(",0") for row in rows) == 4


def test_full_mode_search_keeps_every_bit(tmp_path, monkeypatch):
    cfg = tiny_config(mode="Full", architectures=["mlp:8", "linear"],
                      datasets=["blobs:3:30:0.3", "rings:3:30"])
    serial = search_at(monkeypatch, 1, cfg, tmp_path / "serial")
    assert search_at(monkeypatch, 2, cfg, tmp_path / "split") == serial
    assert len(first_generation_rows(tmp_path / "split")) == 6 * 4


def test_a_generation_with_a_single_live_candidate_keeps_every_bit(tmp_path, monkeypatch):
    # which candidates are live is known only once they are normalized, in the
    # chunks, so this generation is split too: the child's chunk trains nothing
    cfg = tiny_config(max_generations=1)
    plant(monkeypatch, cfg, degenerate=(0, 1, 3, 4, 5))
    serial = search_at(monkeypatch, 1, cfg, tmp_path / "serial")
    assert search_at(monkeypatch, 2, cfg, tmp_path / "split") == serial
    rows = first_generation_rows(tmp_path / "split")
    assert [row.endswith(",0.000000,1") for row in rows] == [True, True, False, True, True, True]


def test_a_run_paused_on_one_cpu_resumes_on_two_byte_identically(tmp_path, monkeypatch):
    cfg = tiny_config(max_generations=3)
    whole = search_at(monkeypatch, 2, cfg, tmp_path / "whole")
    search_at(monkeypatch, 1, cfg, tmp_path / "paused", stop_after=1)
    assert (tmp_path / "paused" / "checkpoint_gen_1.json").exists()
    assert not (tmp_path / "paused" / "checkpoint_gen_2.json").exists()
    assert search_at(monkeypatch, 2, cfg, tmp_path / "paused") == whole


# ---------------------------------------------------------------------------
# Search: no process outlives the command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("where", ["parent", "child"])
def test_a_job_error_in_either_process_exits_three_and_the_run_resumes(
        tmp_path, monkeypatch, capsys, where):
    cpus(monkeypatch, 2)
    config = tmp_path / "meta.json"
    config.write_text(json.dumps(tiny_config(max_generations=3).to_dict()))
    run_dir, parent, real_fit = tmp_path / "run", os.getpid(), search.fit_many

    def fails_in_generation_two(*args, **kwargs):
        here = "parent" if os.getpid() == parent else "child"
        if here == where and (run_dir / "checkpoint_gen_1.json").exists():
            raise ValueError(f"planted failure in the {here}")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(search, "fit_many", fails_in_generation_two)
    argv = ["meta-train", "--config", str(config), "--out", str(run_dir)]
    assert main_entry(argv) == 3
    assert f"failed: planted failure in the {where}\n" in capsys.readouterr().err
    assert_no_children()
    assert (run_dir / "checkpoint_gen_1.json").exists()
    assert not (run_dir / "fitness_gen_2.csv").exists()
    with pytest.raises(ValueError, match=f"planted failure in the {where}"):
        meta_train(tiny_config(max_generations=3), run_dir)
    assert_no_children()

    monkeypatch.setattr(search, "fit_many", real_fit)
    assert main_entry(argv) == 0
    fresh = tmp_path / "fresh"
    assert main_entry(["meta-train", "--config", str(config), "--out", str(fresh)]) == 0
    assert read_artifacts(run_dir) == read_artifacts(fresh)
    assert_no_children()


@pytest.mark.parametrize("where", ["parent", "child"])
def test_an_interrupt_in_either_process_leaves_no_process(tmp_path, monkeypatch, where):
    cpus(monkeypatch, 2)
    parent, real_fit = os.getpid(), search.fit_many

    def interrupted(*args, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise KeyboardInterrupt
        if where == "parent":
            time.sleep(60)  # a busy child is killed, not waited for
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(search, "fit_many", interrupted)
    # a child that dies sends nothing, and the parent says so
    expected = KeyboardInterrupt if where == "parent" else RuntimeError
    started = time.monotonic()
    with pytest.raises(expected):
        meta_train(tiny_config(), tmp_path)
    assert time.monotonic() - started < 30
    assert_no_children()


def test_a_paused_search_leaves_no_process(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    _, history = meta_train(tiny_config(max_generations=3), tmp_path, stop_after=1)
    assert len(history) == 1
    assert_no_children()


# ---------------------------------------------------------------------------
# Benchmark grids and train
# ---------------------------------------------------------------------------


def cnn_grid(tmp_path, monkeypatch):
    """A grid of two CNN cells on 16 x 16 IDX images around a dense cell, under
    two reference losses and a polynomial loss file, 2 seeds: each of two
    processes trains a CNN."""
    monkeypatch.chdir(tmp_path)
    write_idx(tmp_path, 40)
    save_loss(normalize(mse_embedding(), num_classes=3, eta=8.0), tmp_path / "poly.json")
    return BenchmarkGrid(
        cells=[("cnn", "idx:i.idx:l.idx", "sym:0.2"), ("mlp:8", "blobs:3:30:0.3", "none"),
               ("cnn", "idx:i.idx:l.idx", "none")],
        losses=("ce", "mae", "poly.json"), seeds=2, epochs=1, batch_size=16, master_seed=5,
    )


def test_grid_with_a_cnn_cell_and_a_loss_file_keeps_every_bit(tmp_path, monkeypatch):
    grid = cnn_grid(tmp_path, monkeypatch)
    outputs = []
    for n in (1, 2):
        cpus(monkeypatch, n)
        run_benchmark(grid, tmp_path / f"at{n}")
        assert_no_children()
        outputs.append(read_artifacts(tmp_path / f"at{n}"))
    assert outputs[0] == outputs[1]


def test_train_forks_no_child(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.chdir(tmp_path)
    write_idx(tmp_path, 40)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    argv = ["train", "--loss", "ce", "--dataset", "idx:i.idx:l.idx", "--arch", "cnn",
            "--epochs", "1"]
    assert main_entry(argv) == 0


def test_a_grid_job_error_in_a_child_exits_three(tmp_path, monkeypatch, capsys):
    grid = cnn_grid(tmp_path, monkeypatch)
    (tmp_path / "grid.json").write_text(json.dumps({
        "cells": [list(c) for c in grid.cells], "losses": list(grid.losses), "seeds": 2,
        "epochs": 1, "batch_size": 16, "master_seed": 5,
    }))
    cpus(monkeypatch, 2)
    parent, real_fit = os.getpid(), bench.fit_many

    def fails_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise ValueError("planted failure in the child")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(bench, "fit_many", fails_in_child)
    assert main_entry(["benchmark", "--config", "grid.json", "--out", "out"]) == 3
    assert "failed: planted failure in the child\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()
    assert_no_children()


@pytest.mark.parametrize("n", [1, 2])
def test_progress_is_logged_here_in_order(tmp_path, monkeypatch, caplog, n):
    # every line comes from this process, so the child's jobs are logged here too
    cpus(monkeypatch, n)
    grid = BenchmarkGrid(cells=[("mlp:8", "blobs:3:30:0.3", "none"),
                                ("linear", "blobs:3:30:0.3", "sym:0.3")],
                         losses=("ce", "mae"), seeds=2, epochs=1, batch_size=16)
    with caplog.at_level(logging.INFO, logger="losslearn"):
        meta_train(tiny_config(), tmp_path / "run")
        run_benchmark(grid, tmp_path / "grid")
    lines = [rec.getMessage() for rec in caplog.records]
    generations = [line for line in lines if line.startswith("generation")]
    assert len(generations) == 2
    assert all(line.endswith(f", {n} processes") for line in generations)
    assert [line.split(": ")[0] for line in lines if line.startswith("cell")] == [
        f"cell {' '.join(cell)} seed {s}" for cell in grid.cells for s in range(2)]
