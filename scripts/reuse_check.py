"""One learned loss on a new task: a DR search, deployed on a held-out dataset.

The paper searches across datasets so that the learned loss can be reused on
tasks it never saw. This diagnostic runs the acceptance search settings in DR
mode over a pool of three datasets with two class counts (blobs:3, rings:3
and blobs:10), then trains the champion and cross entropy on a held-out
blobs:5 dataset with the acceptance test's own ``deploy``, and prints both
mean clean validation accuracies per master seed. It is not part of the test
suite and applies no threshold.

    python scripts/reuse_check.py [--seeds 0-4]
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_acceptance as acc  # noqa: E402
from acceptance_sweep import seed_range  # noqa: E402
from losslearn.reference import CrossEntropy  # noqa: E402
from losslearn.search import MetaConfig, meta_train  # noqa: E402
from losslearn.taylor import load_loss  # noqa: E402

POOL = ["blobs:3:500:0.5", "rings:3:500", "blobs:10:100:0.5:dim=8"]
HELD_OUT = "blobs:5:300:0.5"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-4"),
                        help="master seeds, as N or FIRST-LAST (default 0-4)")
    seeds = parser.parse_args(argv).seeds

    ce = acc.deploy(CrossEntropy(), HELD_OUT)  # the baseline does not depend on the seed
    print(f"CE on {HELD_OUT}: {ce:.4f}")
    margins = []
    for seed in seeds:
        config = {**acc.SEARCH_CONFIG, "mode": "DR", "datasets": POOL, "master_seed": seed}
        started = time.perf_counter()
        with tempfile.TemporaryDirectory() as run_dir:
            _, history = meta_train(MetaConfig.from_dict(config), run_dir)
            champion = load_loss(Path(run_dir) / "best_loss.json")
        searched = time.perf_counter() - started
        deployed = acc.deploy(champion, HELD_OUT)
        margins.append(deployed - ce)
        print(
            f"seed {seed}: search fitness {history[-1]['best_fitness']:.4f} over "
            f"{len(history)} generations in {searched:.1f} s; champion on {HELD_OUT} "
            f"{deployed:.4f}, margin over CE {deployed - ce:+.4f}",
            flush=True,
        )
    print(f"margins over {len(margins)} seeds: mean {sum(margins) / len(margins):+.4f}, "
          f"min {min(margins):+.4f}, max {max(margins):+.4f}")


if __name__ == "__main__":
    main()
