"""Label noise as its transition matrix, and corruption of integer label vectors.

A noise selector is parsed once, into the row-stochastic C x C matrix T with
T[i, j] = P(observed j | true i); after that the matrix is the only form noise
takes. No noise is the identity.
"""

import numpy as np

ROW_SUM_TOL = 1e-9


def noise_from_selector(text, num_classes, pairing=None):
    """The C x C transition matrix of a CLI noise selector: sym:<r>, asym:<r>, or none.

    none is the identity. Symmetric noise spreads the flip mass r uniformly
    over the other classes. Asymmetric noise sends it to a single partner
    class: the cyclic successor by default, or ``pairing[i]`` when a
    permutation that moves every class is given (checked at r = 0 too).
    """
    c = num_classes
    if c < 2:
        raise ValueError("need at least 2 classes")
    if text == "none":
        return np.eye(c)
    kind, sep, ratio = text.partition(":")
    if not sep or kind not in ("sym", "asym"):
        raise ValueError(f"bad noise selector {text!r} (use sym:<r>, asym:<r>, none)")
    r = float(ratio)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1), got {r}")
    if kind == "sym":
        t = np.full((c, c), r / (c - 1))
        np.fill_diagonal(t, 1.0 - r)
        return t
    if pairing is None:
        pairing = [(i + 1) % c for i in range(c)]
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in pairing):
        raise ValueError(f"pairing must list integer classes, got {list(pairing)}")
    pairing = np.asarray(pairing, dtype=np.int64)
    if pairing.shape != (c,):
        raise ValueError(f"pairing must list exactly {c} classes")
    if sorted(pairing.tolist()) != list(range(c)):
        raise ValueError("pairing must be a permutation of the classes")
    if np.any(pairing == np.arange(c)):
        raise ValueError("pairing may not map a class to itself")
    t = np.zeros((c, c))
    np.fill_diagonal(t, 1.0 - r)
    t[np.arange(c), pairing] += r
    return t


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
