"""One learned loss on a new task: a DR search, deployed on a held-out dataset.

The paper searches across datasets so that the learned loss can be reused on
tasks it never saw. This diagnostic runs the acceptance search settings in DR
mode over a pool of three datasets with two class counts (blobs:3, rings:3
and blobs:10), then trains the champion and cross entropy on a held-out
blobs:5 dataset with the acceptance test's own ``deploy``, and prints both
mean clean validation accuracies per master seed. For each seed it also
prints the generation the champion came from (the last checkpoint's best),
and each generation's own best and mean candidate score, the row means of
its fitness_gen_<g>.csv. It is not part of the test suite and applies no
threshold.

    python scripts/reuse_check.py [--seeds 0-4]
"""

import csv
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acc  # noqa: E402
from acceptance_sweep import parse_seeds  # noqa: E402
from losslearn.reference import CrossEntropy  # noqa: E402
from losslearn.search import MetaConfig, meta_train  # noqa: E402
from losslearn.taylor import load_loss  # noqa: E402

POOL = ["blobs:3:500:0.5", "rings:3:500", "blobs:10:100:0.5:dim=8"]
HELD_OUT = "blobs:5:300:0.5"


def generation_scores(run_dir, generation):
    """The candidates' scores in one generation: the mean accuracy over each
    candidate's rows of fitness_gen_<g>.csv, as the search scored them."""
    with open(Path(run_dir) / f"fitness_gen_{generation}.csv", newline="") as fh:
        rows = {}
        for row in csv.DictReader(fh):
            rows.setdefault(row["candidate"], []).append(float(row["accuracy"]))
    return [sum(accs) / len(accs) for accs in rows.values()]


def main(argv=None):
    seeds = parse_seeds(argv, "0-4", __doc__)

    ce = acc.deploy(CrossEntropy(), HELD_OUT)  # the baseline does not depend on the seed
    print(f"CE on {HELD_OUT}: {ce:.4f}")
    margins = []
    for seed in seeds:
        config = {**acc.SEARCH_CONFIG, "mode": "DR", "datasets": POOL, "master_seed": seed}
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as run_dir:
            _, history = meta_train(MetaConfig.from_dict(config), run_dir)
            champion = load_loss(Path(run_dir) / "best_loss.json")
            last = Path(run_dir) / f"checkpoint_gen_{len(history)}.json"
            champion_generation = json.loads(last.read_text())["best"]["generation"]
            scores = [generation_scores(run_dir, g) for g in range(1, len(history) + 1)]
        searched = time.perf_counter() - started
        deployed = acc.deploy(champion, HELD_OUT)
        margins.append(deployed - ce)
        print(
            f"seed {seed}: search fitness {history[-1]['best_fitness']:.4f} over "
            f"{len(history)} generations in {searched:.1f} s; champion from generation "
            f"{champion_generation}, on {HELD_OUT} {deployed:.4f}, margin over CE "
            f"{deployed - ce:+.4f}\n"
            f"  generation best: {' '.join(f'{max(s):.3f}' for s in scores)}\n"
            f"  generation mean: {' '.join(f'{sum(s) / len(s):.3f}' for s in scores)}",
            flush=True,
        )
    print(f"margins over {len(margins)} seeds: mean {sum(margins) / len(margins):+.4f}, "
          f"min {min(margins):+.4f}, max {max(margins):+.4f}")


if __name__ == "__main__":
    main()
