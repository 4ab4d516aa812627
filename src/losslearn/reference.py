"""Hand-designed comparison losses: CE, MAE, GCE, SCE, label smoothing, bootstrap.

Every loss exposes the same batch interface as the polynomial family,
``batch_value`` and ``batch_grad``, so the trainer and benchmark harness can
treat them interchangeably. Gradients are full derivatives of the implemented
value, so central finite differences agree at interior points.
"""

from dataclasses import dataclass

import numpy as np

# Probabilities are clamped to this range before logs and fractional powers.
LOG_CLAMP = 1e-12


def _as_batch(yhat, y):
    """The input check of every loss, polynomial ones included: (n, C) arrays."""
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if yhat.ndim == 1:
        yhat = yhat[None, :]
        y = y[None, :]
    if yhat.shape != y.shape or yhat.ndim != 2:
        raise ValueError(f"prediction/label shape mismatch: {yhat.shape} vs {y.shape}")
    if yhat.shape[1] < 2:
        raise ValueError("need at least 2 classes")
    return yhat, y


class _Loss:
    """Scalar convenience wrappers over the batch interface of every loss."""

    def value(self, yhat, y):
        return float(self.batch_value(*_as_batch(yhat, y))[0])

    def grad(self, yhat, y):
        return self.batch_grad(*_as_batch(yhat, y))[0]


@dataclass(frozen=True)
class CrossEntropy(_Loss):
    def batch_value(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return -(y * np.log(p)).sum(axis=1)

    def batch_grad(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return -y / p

    def describe(self):
        return "ce"


@dataclass(frozen=True)
class MeanAbsoluteError(_Loss):
    def batch_value(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        return np.abs(yhat - y).sum(axis=1)

    def batch_grad(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        return np.sign(yhat - y)

    def describe(self):
        return "mae"


@dataclass(frozen=True)
class GeneralizedCrossEntropy(_Loss):
    q: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")

    def batch_value(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p_t = np.clip((yhat * y).sum(axis=1), LOG_CLAMP, 1.0)
        return (1.0 - p_t**self.q) / self.q

    def batch_grad(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p_t = np.clip((yhat * y).sum(axis=1), LOG_CLAMP, 1.0)
        return -(p_t ** (self.q - 1.0))[:, None] * y

    def describe(self):
        return f"gce(q={self.q})"


@dataclass(frozen=True)
class SymmetricCrossEntropy(_Loss):
    """alpha * CE + beta * reverse CE, with ln 0 on the label side set to A."""

    alpha: float = 0.1
    beta: float = 1.0
    log_zero: float = -4.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.log_zero >= 0:
            raise ValueError("log-zero surrogate must be negative")

    def _log_labels(self, y):
        # y is one-hot, so ln' y is log_zero off the labeled class and 0 on it
        return np.where(y > 0.5, 0.0, self.log_zero)

    def batch_value(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        ce = -(y * np.log(p)).sum(axis=1)
        rce = -(yhat * self._log_labels(y)).sum(axis=1)
        return self.alpha * ce + self.beta * rce

    def batch_grad(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return self.alpha * (-y / p) + self.beta * (-self._log_labels(y))

    def describe(self):
        return f"sce(alpha={self.alpha},beta={self.beta},A={self.log_zero})"


@dataclass(frozen=True)
class LabelSmoothing(_Loss):
    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    def _targets(self, y):
        c = y.shape[1]
        return (1.0 - self.epsilon) * y + self.epsilon / c

    def batch_value(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return -(self._targets(y) * np.log(p)).sum(axis=1)

    def batch_grad(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return -self._targets(y) / p

    def describe(self):
        return f"ls(epsilon={self.epsilon})"


@dataclass(frozen=True)
class Bootstrap(_Loss):
    """CE against a convex mix of the given label and the model's prediction.

    Soft mode mixes in the probability vector itself; hard mode mixes in the
    one-hot argmax. The gradient differentiates through the soft target (the
    argmax in hard mode is locally constant), so finite differences agree.
    """

    weight: float = 0.95
    hard: bool = False

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")

    def _targets(self, yhat, y):
        if self.hard:
            guess = np.zeros_like(yhat)
            guess[np.arange(len(yhat)), np.argmax(yhat, axis=1)] = 1.0
        else:
            guess = yhat
        return self.weight * y + (1.0 - self.weight) * guess

    def batch_value(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return -(self._targets(yhat, y) * np.log(p)).sum(axis=1)

    def batch_grad(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        g = -self._targets(yhat, y) / p
        if not self.hard:
            g = g - (1.0 - self.weight) * np.log(p)
        return g

    def describe(self):
        mode = "hard" if self.hard else "soft"
        return f"bootstrap(weight={self.weight},mode={mode})"


REFERENCE_KINDS = {
    "ce": CrossEntropy,
    "mae": MeanAbsoluteError,
    "gce": GeneralizedCrossEntropy,
    "sce": SymmetricCrossEntropy,
    "ls": LabelSmoothing,
    "bootstrap": Bootstrap,
}


def make_reference_loss(kind, **params):
    """Build a reference loss by short name, e.g. make_reference_loss("gce", q=0.5)."""
    try:
        cls = REFERENCE_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(REFERENCE_KINDS))
        raise ValueError(f"unknown reference loss {kind!r} (known: {known})") from None
    return cls(**params)
