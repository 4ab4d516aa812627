"""Benchmark of the losslearn package: end-to-end metrics, or a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload search-mlp --seed 4 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One workload runs in one process as a closed loop with one client: each pass
is one ``losslearn`` command, called in-process through
``losslearn.cli.main_entry``, and starts when the previous one ends. Passes
cycle over the workload's input sets, which are all made from ``--seed``.
``--workload all`` runs every workload in turn, each in a child process of its
own so that its peak resident memory is its own.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; pass time among them is ``wall_ref``, in units of a fixed
reference task timed between passes (see reference_s). With ``--trace 1`` passes alternate untraced and traced,
the traced ones record spans (see spans.py), and the JSON holds the per-layer
metrics. Either way the correctness gate runs untimed, and the exit code is 1
when any check fails. Run artifacts, spans and a result file with the
environment go to perfbench/work/<workload>/.
"""

import argparse
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import losslearn.cli; "
    "print(time.perf_counter() - t)"
)
REFERENCE_STEPS = 1000
# share of the loop spent timing the reference, between passes
REFERENCE_SHARE = 0.05
END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ratio"),
    ("val_acc", "fraction"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
# printed and kept in result.json, but too host-bound for a bound of their own
UNBOUNDED = [
    ("wall_s", "s"),
    ("trainings_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("reference_ms", "ms"),
]


def nproc():
    return len(os.sched_getaffinity(0))


class ErrorCounter(logging.Handler):
    """Counts the ERROR records of the losslearn logger: jobs that raised."""

    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.count = 0

    def emit(self, record):
        self.count += 1


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(blas_threads):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
    }


def reference_s():
    """Seconds for a fixed task that no code under test touches.

    Plain numpy SGD on a small two-layer perceptron: the mix of interpreter
    work and small BLAS calls that the workloads' training loops make. On a
    shared host the speed of a core drifts by up to half within minutes, and
    this task, timed between passes, drifts with the training loops.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(500, 8)), rng.integers(0, 3, 500)
    w1, w2 = rng.normal(0.0, 0.3, (8, 32)), rng.normal(0.0, 0.3, (32, 3))
    rows = np.arange(128)
    start = time.perf_counter()
    for step in range(REFERENCE_STEPS):
        i = step * 128 % 372
        xb, yb = x[i:i + 128], y[i:i + 128]
        h = np.maximum(xb @ w1, 0.0)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, yb] -= 1.0
        w1 -= 0.01 * (xb.T @ ((p @ w2.T) * (h > 0)))
        w2 -= 0.01 * (h.T @ p)
    return time.perf_counter() - start


def host_reference(budget):
    """Median of reference_s() over as many calls as fit in ``budget`` seconds
    (at least one): a single call is too short to be steady."""
    times = [reference_s()]
    while sum(times) < budget:
        times.append(reference_s())
    return statistics.median(times)


def time_import():
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs one workload's passes and keeps what the gate and metrics need."""

    def __init__(self, workload, tracer):
        from losslearn import cli

        self.cli = cli
        self.workload = workload
        self.tracer = tracer
        self.errors = ErrorCounter()
        logging.getLogger("losslearn").addHandler(self.errors)
        self.problems = []
        self.reference = {}  # input index -> digests of its first pass

    def call(self, argv, out, traced=False, pass_id=-1, fresh=True):
        """Run one command writing to ``out``; returns (seconds, code, stdout)."""
        if fresh:
            shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True, exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        tracing = self.tracer.installed(pass_id) if traced else nullcontext()
        with redirect_stdout(stdout), redirect_stderr(stderr), tracing:
            start = time.perf_counter()
            code = self.cli.main_entry(argv)
            seconds = time.perf_counter() - start
        if code != 0:
            self.problems.append(
                f"`losslearn {' '.join(argv)}` exited {code}: {stderr.getvalue().strip()}"
            )
        return seconds, code, stdout.getvalue()

    def check(self, k, out, stdout, label):
        """Read a pass's outputs; compare them with input k's first pass."""
        try:
            result = self.workload.read(out, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"{label}: unreadable outputs: {exc!r}")
            return None
        self.problems += [f"{label}: {p}" for p in result.problems]
        first = self.reference.setdefault(k, result.digests)
        if result.digests != first:
            differ = sorted(
                name for name in set(first) | set(result.digests)
                if first.get(name) != result.digests.get(name)
            )
            self.problems.append(f"{label}: differs from the first pass of input "
                                 f"{k} in {', '.join(differ)}")
        return result


def set_up(workload, runner, work, seed):
    """Import in a fresh interpreter, write the inputs, run one small warm-up
    command; repeated, so that the median can be reported."""
    setup = []
    for rep in range(SETUP_REPEATS):
        imported = time_import()
        start = time.perf_counter()
        inputs_dir = work / "inputs" / str(rep)
        inputs_dir.mkdir(parents=True)
        inputs = workload.make_inputs(inputs_dir, seed)
        runner.call(workload.warm_argv(inputs[0], work / "warm"), work / "warm")
        setup.append(imported + time.perf_counter() - start)
    return inputs, setup


def run_workload(workload, seed, seconds, trace, blas_threads):
    from spans import PER_LAYER, Tracer

    work = BENCH_DIR / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    runner = Runner(workload, tracer)

    inputs, setup = set_up(workload, runner, work, seed)

    # timed passes cycle over the input sets, so each set runs once before any
    # runs twice, and set 0 runs at least twice. A traced run gives each set an
    # untraced and a traced pass, in an order that flips from pair to pair.
    per_input = 2 if trace else 1
    minimum = 4 if trace else len(inputs) + 1
    samples = {(k, t): [] for k in range(len(inputs)) for t in (False, True)}
    references = []  # host_reference() before each pass, and once after the last
    results = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    p = 0
    last = 0.0
    reference_s()  # its first call is slow
    # start no pass that the last one's length says would end past the deadline
    while p < minimum or time.perf_counter() - loop_start + last <= seconds:
        k = (p // per_input) % len(inputs)
        traced = trace and (p % 2 == 1) != (p // 2 % 2 == 1)
        out = work / "out"
        errors_before = runner.errors.count
        started = time.perf_counter()
        references.append(host_reference(REFERENCE_SHARE * last))
        elapsed, code, stdout = runner.call(workload.argv(inputs[k], out), out, traced, p)
        last = time.perf_counter() - started
        errors = runner.errors.count - errors_before
        attempted += workload.trainings
        failed += workload.trainings if code != 0 else min(errors, workload.trainings)
        samples[(k, traced)].append(elapsed)
        label = f"pass {p} (input {k}{', traced' if traced else ''})"
        result = runner.check(k, out, stdout, label) if code == 0 else None
        if result is not None:
            results.append((k, traced, result))
        p += 1
    references.append(host_reference(REFERENCE_SHARE * last))

    # an interrupted and resumed run must match the uninterrupted one
    if workload.stop_after is not None:
        out = work / "resumed"
        argv = workload.argv(inputs[0], out)
        runner.call(argv + ["--stop-after", str(workload.stop_after)], out)
        _, code, stdout = runner.call(argv, out, fresh=False)
        if code == 0:
            runner.check(0, out, stdout, "interrupted and resumed run")

    ran = [k for k in range(len(inputs)) if samples[(k, False)]]
    untraced = {k: statistics.median(samples[(k, False)]) for k in ran}
    wall = statistics.fmean(untraced.values())
    first_acc = {}
    for k, _traced, result in results:
        first_acc.setdefault(k, result.val_acc)
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall / statistics.median(references),
        "val_acc": statistics.fmean(first_acc.values()) if first_acc else 0.0,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unbounded = {
        "wall_s": wall,
        "trainings_per_s": workload.trainings / wall,
        "failed_frac": failed / attempted,
        "reference_ms": statistics.median(references) * 1e3,
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(blas_threads),
        "passes": p,
        "wall_s_samples": {str(k): samples[(k, False)] for k in ran},
        "setup_s_samples": setup,
        "reference_s_samples": references,
        "end_to_end": e2e,
        "unbounded": unbounded,
        "problems": runner.problems,
    }
    if trace:
        traced_passes = sum(len(samples[(k, True)]) for k in range(len(inputs)))
        overhead = statistics.fmean(
            statistics.median(samples[(k, True)]) / untraced[k] - 1.0
            for k in ran if samples[(k, True)]
        )
        diverged = [r.diverged for _k, t, r in results if t]
        counts = {
            "trace.overhead_frac": overhead,
            workload.diverged_metric: statistics.fmean(diverged) if diverged else 0.0,
        }
        report["per_layer"] = tracer.layer_metrics(traced_passes, counts)
        traced_wall = sum(sum(samples[(k, True)]) for k in range(len(inputs)))
        report["self_share"] = tracer.self_shares(traced_wall)
        tracer.write(work / "spans.csv")
        metrics = {name: (report["per_layer"][name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    (work / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    return {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def print_report(report):
    env = report["environment"]
    print(f"== {report['workload']}  seed {report['seed']}  {report['passes']} passes"
          f"  (nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, {env['blas_threads']} BLAS threads, commit {env['git_commit']})")
    counts = ", ".join(str(len(v)) for v in report["wall_s_samples"].values())
    e2e = report["end_to_end"]
    note = f"   (median per input set over {counts} passes, averaged over the sets)"
    for name, unit in END_TO_END:
        print(f"  {name:<18} {e2e[name]:>12.6g} {unit}{note if name == 'wall_ref' else ''}")
    print("  not bounded in BENCHMARK.json:")
    for name, unit in UNBOUNDED:
        print(f"  {name:<18} {report['unbounded'][name]:>12.6g} {unit}")
    if "per_layer" in report:
        from spans import PER_LAYER

        for name, unit in PER_LAYER:
            print(f"  {name:<38} {report['per_layer'][name]:>12.6g} {unit}")
        modules = {}
        for name, share in report["self_share"].items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + share
        print("  self time share of traced wall time, by module and by function:")
        for name, share in sorted(modules.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<36} {100 * share:6.2f}%")
        for name, share in list(report["self_share"].items())[:12]:
            print(f"    {name:<36} {100 * share:6.2f}%")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_all(args):
    """Every workload in turn, each in its own child process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= done.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="search-mlp, grid-reference, train-cnn or all")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "losslearn" / "__init__.py").is_file():
        print(f"error: no losslearn sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads: with a thread per core, pass
    # times on a shared 2-core host swung with the load on the other core
    blas_threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), blas_threads
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
