"""Hand-designed comparison losses: CE, MAE, GCE, SCE, label smoothing, bootstrap.

Every loss, the polynomial family included, is written once as
``indexed(yhat, labels)``: (n, C) predictions and (n,) class indices in, (n,)
values and (n, C) gradients out; the trainer calls only that. ``batch_value``
and ``batch_grad`` take (n, C) label rows: a row q gives the label-weighted mix
sum_k q_k * indexed(yhat, k), which on a one-hot row is the indexed call
itself. Gradients are full derivatives of the implemented value, so central
finite differences agree at interior points.
"""

from dataclasses import dataclass

import numpy as np

# Probabilities are clamped to this range before logs and fractional powers.
LOG_CLAMP = 1e-12


def _as_batch(yhat, y):
    """The input check of every loss, polynomial ones included: (n, C) arrays."""
    yhat, y = np.asarray(yhat, dtype=float), np.asarray(y, dtype=float)
    if yhat.ndim == 1:
        yhat, y = yhat[None, :], y[None, :]
    if yhat.shape != y.shape or yhat.ndim != 2:
        raise ValueError(f"prediction/label shape mismatch: {yhat.shape} vs {y.shape}")
    if yhat.shape[1] < 2:
        raise ValueError("need at least 2 classes")
    return yhat, y


def _at_labels(out, labels, entries):
    """out with entries[i] written at row i's label entry."""
    out[np.arange(len(out)), labels] = entries
    return out


def _label_prob(yhat, labels):
    """Each row's predicted probability of its label, clamped for logs and powers."""
    return np.clip(yhat[np.arange(len(yhat)), labels], LOG_CLAMP, 1.0)


class _Loss:
    """Label-row and scalar wrappers over the indexed call of every loss."""

    def batch_value(self, yhat, y):
        return self._mix(yhat, y)[0]

    def batch_grad(self, yhat, y):
        return self._mix(yhat, y)[1]

    def _mix(self, yhat, y):
        yhat, y = _as_batch(yhat, y)
        values, grads = np.zeros(len(yhat)), np.zeros(yhat.shape)
        for k in np.flatnonzero(y.any(axis=0)):  # classes of weight 0 add nothing
            value, grad = self.indexed(yhat, np.full(len(yhat), k))
            values += y[:, k] * value
            grads += y[:, k, None] * grad
        return values, grads

    def value(self, yhat, y):
        return float(self.batch_value(yhat, y)[0])

    def grad(self, yhat, y):
        return self.batch_grad(yhat, y)[0]


@dataclass(frozen=True)
class CrossEntropy(_Loss):
    def indexed(self, yhat, labels):
        p_t = _label_prob(yhat, labels)
        return -np.log(p_t), _at_labels(np.zeros(yhat.shape), labels, -1.0 / p_t)


@dataclass(frozen=True)
class MeanAbsoluteError(_Loss):
    def indexed(self, yhat, labels):
        d = yhat.copy()
        d[np.arange(len(d)), labels] -= 1.0
        return np.abs(d).sum(axis=1), np.sign(d)


@dataclass(frozen=True)
class GeneralizedCrossEntropy(_Loss):
    q: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")

    def indexed(self, yhat, labels):
        p_t = _label_prob(yhat, labels)
        grads = _at_labels(np.zeros(yhat.shape), labels, -(p_t ** (self.q - 1.0)))
        return (1.0 - p_t**self.q) / self.q, grads


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

    def indexed(self, yhat, labels):
        p_t = _label_prob(yhat, labels)
        # ln of the label row is 0 on the label and A off it
        rce = -_at_labels(yhat * self.log_zero, labels, 0.0).sum(axis=1)
        grads = _at_labels(
            np.full(yhat.shape, self.beta * -self.log_zero), labels, self.alpha * (-1.0 / p_t)
        )
        return self.alpha * -np.log(p_t) + self.beta * rce, grads


@dataclass(frozen=True)
class LabelSmoothing(_Loss):
    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    def indexed(self, yhat, labels):
        off = self.epsilon / yhat.shape[1]
        targets = _at_labels(np.full(yhat.shape, off), labels, (1.0 - self.epsilon) + off)
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        return -(targets * np.log(p)).sum(axis=1), -targets / p


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

    def indexed(self, yhat, labels):
        guess = _at_labels(np.zeros(yhat.shape), yhat.argmax(axis=1), 1.0) if self.hard else yhat
        targets = (1.0 - self.weight) * guess
        targets[np.arange(len(yhat)), labels] += self.weight
        p = np.clip(yhat, LOG_CLAMP, 1.0)
        log_p = np.log(p)
        grads = -targets / p
        if not self.hard:
            grads -= (1.0 - self.weight) * log_p
        return -(targets * log_p).sum(axis=1), grads


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
