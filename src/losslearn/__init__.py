"""Learning noise-robust classification losses as low-order polynomials.

An evolution strategy proposes coefficient vectors for a bivariate
polynomial loss, each candidate is scored by training small networks on
label-corrupted data and measuring clean validation accuracy, and the best
loss is saved in a portable JSON format for reuse.
"""

from .taylor import (
    NormalizedLoss,
    TaylorLossParams,
    load_loss,
    loss_from_json,
    loss_to_json,
    mse_embedding,
    normalize,
    save_loss,
)
from .reference import make_reference_loss
from .noise import corrupt
from .datasets import Dataset, DatasetSplit, dataset_from_selector, load_idx, split
from .network import NetworkSpec, TrainConfig, accuracy, arch_from_selector, init, train
from .cma import CmaState, default_population, stop_reason
from .search import MetaConfig, meta_train
from .bench import BenchmarkGrid, loss_from_selector, run_benchmark

__version__ = "0.1.0"

__all__ = [
    "BenchmarkGrid",
    "CmaState",
    "Dataset",
    "DatasetSplit",
    "MetaConfig",
    "NetworkSpec",
    "NormalizedLoss",
    "TaylorLossParams",
    "TrainConfig",
    "accuracy",
    "arch_from_selector",
    "corrupt",
    "dataset_from_selector",
    "default_population",
    "init",
    "load_idx",
    "load_loss",
    "loss_from_json",
    "loss_from_selector",
    "loss_to_json",
    "make_reference_loss",
    "meta_train",
    "mse_embedding",
    "normalize",
    "run_benchmark",
    "save_loss",
    "split",
    "stop_reason",
    "train",
    "__version__",
]
