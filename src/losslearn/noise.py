"""Label noise as its transition matrix, and corruption of integer label vectors.

A noise selector is parsed once, into the row-stochastic C x C matrix T with
T[i, j] = P(observed j | true i); after that the matrix is the only form noise
takes. No noise is the identity; any other matrix is a CSV file, matrix:<path>.
"""

import numpy as np

ROW_SUM_TOL = 1e-9


def noise_from_selector(text, num_classes):
    """The C x C transition matrix of a CLI noise selector: sym:<r>, asym:<r>,
    matrix:<path>, or none.

    none is the identity. Symmetric noise spreads the flip mass r uniformly
    over the other classes, asymmetric noise sends it to the cyclic successor.
    matrix:<path> reads C lines of C comma-separated numbers, used as written
    (never renormalized) if check_transition accepts them.
    """
    c = num_classes
    if c < 2:
        raise ValueError("need at least 2 classes")
    if text == "none":
        return np.eye(c)
    kind, sep, arg = text.partition(":")
    if kind == "matrix" and sep:
        return _matrix_file(arg, c)
    if not sep or kind not in ("sym", "asym"):
        raise ValueError(f"bad noise selector {text!r} "
                         "(use sym:<r>, asym:<r>, matrix:<path>, none)")
    r = float(arg)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"noise ratio must lie in [0, 1), got {r}")
    t = np.full((c, c), r / (c - 1)) if kind == "sym" else r * np.roll(np.eye(c), 1, axis=1)
    np.fill_diagonal(t, 1.0 - r)
    return t


def _matrix_file(path, c):
    """The C x C transition matrix a CSV file holds, or a ValueError that names the file."""
    try:
        with open(path) as handle:
            rows = [[float(v) for v in line.split(",")] for line in handle.read().splitlines()]
        if len(rows) != c or any(len(row) != c for row in rows):
            raise ValueError(f"needs {c} rows of {c} comma-separated numbers")
        return check_transition(rows)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not numbers, or not stochastic
        reason = getattr(exc, "strerror", None) or exc  # an OSError's without its path
        raise ValueError(f"noise matrix file {path!r}: {reason}") from None


def check_transition(t):
    """Validate a finite, nonnegative, row-stochastic square matrix; returns t unchanged."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("transition matrix must be square")
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError("transition matrix entries must be finite and nonnegative")
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
