"""Label-noise transition matrices and corruption of integer label vectors."""

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption model: flip kind, flip probability, and class count."""

    kind: str  # "symmetric" or "asymmetric"
    ratio: float
    num_classes: int

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError(f"noise ratio must lie in [0, 1), got {self.ratio}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")


def build_transition(spec, pairing=None):
    """Row-stochastic C x C matrix, T[i, j] = P(observed j | true i).

    Symmetric noise spreads the flip mass uniformly over the other classes.
    Asymmetric noise sends it to a single partner class: the cyclic successor
    by default, or ``pairing[i]`` when an explicit permutation is given.
    """
    c = spec.num_classes
    r = spec.ratio
    if spec.kind == "symmetric":
        t = np.full((c, c), r / (c - 1))
        np.fill_diagonal(t, 1.0 - r)
    else:
        if pairing is None:
            pairing = [(i + 1) % c for i in range(c)]
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in pairing):
            raise ValueError(f"pairing must list integer classes, got {list(pairing)}")
        pairing = np.asarray(pairing, dtype=np.int64)
        _check_pairing(pairing, c)
        t = np.zeros((c, c))
        np.fill_diagonal(t, 1.0 - r)
        t[np.arange(c), pairing] += r
    return t


def _check_pairing(pairing, num_classes):
    if pairing.shape != (num_classes,):
        raise ValueError(f"pairing must list exactly {num_classes} classes")
    if sorted(pairing.tolist()) != list(range(num_classes)):
        raise ValueError("pairing must be a permutation of the classes")
    if np.any(pairing == np.arange(num_classes)):
        raise ValueError("pairing may not map a class to itself")


def check_transition(t):
    """Validate row-stochasticity; returns t unchanged."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(t < 0):
        raise ValueError("transition matrix has negative entries")
    if np.any(np.abs(t.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise ValueError("transition matrix rows must sum to 1")
    return t


def noise_from_selector(text, num_classes):
    """Parse a CLI noise selector: sym:<r>, asym:<r>, or none."""
    if text == "none":
        return None
    kind, sep, ratio = text.partition(":")
    names = {"sym": "symmetric", "asym": "asymmetric"}
    if not sep or kind not in names:
        raise ValueError(f"bad noise selector {text!r} (use sym:<r>, asym:<r>, none)")
    return NoiseSpec(names[kind], float(ratio), num_classes)


def transition(spec, num_classes, pairing=None):
    """A noise spec's C x C transition matrix; no noise (None) or ratio 0 is the identity."""
    if spec is None and num_classes < 2:
        raise ValueError("need at least 2 classes")
    return np.eye(num_classes) if spec is None else build_transition(spec, pairing)


def corrupt(labels, transition, seed):
    """Resample each label from its transition row.

    Returns (new_labels, flipped_mask). The input vector is never modified.
    """
    t = check_transition(transition)
    labels = np.asarray(labels, dtype=np.int64)
    c = t.shape[0]
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"labels must lie in [0, {c})")
    rng = np.random.default_rng(seed)
    # inverse-CDF draw per label keeps one uniform per sample, cheap and exact
    cdf = np.cumsum(t, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(labels.shape)
    new = (u[:, None] > cdf[labels]).sum(axis=1).astype(np.int64)
    return new, new != labels
