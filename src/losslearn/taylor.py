"""Polynomial loss family: truncated bivariate Taylor expansions in (yhat, y).

A loss in this family is class-wise separable: a shared two-argument
polynomial is applied to each (predicted probability, label entry) pair and
the results are averaged over classes. The polynomial is parameterized by an
expansion point (theta0, theta1) and one coefficient per exponent pair
(a, b) with a >= 1 and a + b <= order; pure-y terms (a = 0) are omitted
because they do not affect gradients with respect to predictions. Each term
carries the factor 1/(a! * b!), so coefficients play the role of mixed
derivatives at the expansion point.

Labels are one-hot, so a label entry is 0 or 1 and the polynomial is two
univariate ones in d = yhat - theta0: g_t(yhat) = sum_a P_a(t - theta1) d^a
for t in {0, 1}, where P_a(e) = sum_b c_ab / (a! b!) e^b. The scalars
P_a(t - theta1) are computed once per loss by Horner's rule in e; each batch
then takes one Horner pass in d per label value, with no powers. For any
other label row q the loss is the label-weighted mix
sum_k q_k * loss(yhat, e_k), the expected loss under the label distribution.

Losses here are total functions of their inputs (polynomials are finite
everywhere), so no clamping of predictions is required or performed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .reference import _as_batch, _Loss

LOSS_FILE_VERSION = 1
DEFAULT_ORDER = 4
DEFAULT_RANGE_SAMPLES = 10_000
DEGENERATE_RANGE = 1e-9


class LossFormatError(ValueError):
    """Raised for malformed, unknown-version, or invariant-violating loss files."""


def coefficient_keys(order: int) -> list[tuple[int, int]]:
    """Exponent pairs (a, b) with a >= 1, b >= 0, a + b <= order, in lex order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return [(a, b) for a in range(1, order + 1) for b in range(order - a + 1)]


def num_coefficients(order: int) -> int:
    """Number of searchable coefficients for a given polynomial order."""
    return order * (order + 1) // 2


def num_parameters(order: int) -> int:
    """Total free parameters: two expansion coordinates plus coefficients."""
    return 2 + num_coefficients(order)


@dataclass(frozen=True)
class TaylorLossParams(_Loss):
    """Expansion point plus graded coefficient table of a polynomial loss."""

    order: int = DEFAULT_ORDER
    expansion_point: tuple[float, float] = (0.0, 0.0)
    coefficients: dict[tuple[int, int], float] = None  # type: ignore[assignment]

    def __post_init__(self):
        expected = coefficient_keys(self.order)  # rejects an order below 1
        if self.coefficients is None:
            object.__setattr__(self, "coefficients", {k: 0.0 for k in expected})
        got = set(self.coefficients)
        missing = [k for k in expected if k not in got]
        if missing:
            raise ValueError(f"missing coefficient for exponent pair {missing[0]}")
        extra = got.difference(expected)
        if extra:
            raise ValueError(f"unexpected coefficient key {sorted(extra)[0]}")
        values = list(self.coefficients.values()) + list(self.expansion_point)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("all parameters must be finite")

    @cached_property
    def _univariate(self):
        # values[t][a - 1] = P_a(t - theta1) for label entries t = 0, 1, where
        # P_a(e) = sum_b c_ab / (a! b!) e^b; grads[t][a - 1] = a P_a(t - theta1)
        c, fact, theta1 = self.coefficients, math.factorial, self.expansion_point[1]
        rows = [
            [c[(a, b)] / (fact(a) * fact(b)) for b in range(self.order - a + 1)]
            for a in range(1, self.order + 1)
        ]
        values = [[_horner(row, e) for row in rows] for e in (0.0 - theta1, 1.0 - theta1)]
        return values, [[a * p for a, p in enumerate(g, start=1)] for g in values]

    def batch_value(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-example losses for (n, C) prediction and label matrices."""
        yhat, y = _as_batch(yhat, y)
        d = yhat - self.expansion_point[0]
        (g0, g1), _ = self._univariate
        return ((1 - y) * (d * _horner(g0, d)) + y * (d * _horner(g1, d))).mean(axis=1)

    def batch_grad(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d(loss)/d(yhat) for each example in an (n, C) batch."""
        yhat, y = _as_batch(yhat, y)
        d = yhat - self.expansion_point[0]
        _, (g0, g1) = self._univariate
        return ((1 - y) * _horner(g0, d) + y * _horner(g1, d)) / yhat.shape[1]

    def estimate_range(
        self,
        num_classes: int,
        num_samples: int = DEFAULT_RANGE_SAMPLES,
        seed: int = 0,
    ) -> tuple[float, float]:
        """Sampled (min, max) of the loss over its natural domain.

        Predictions are drawn uniformly from the probability simplex
        (normalized unit exponentials) and labels uniformly from the one-hot
        vectors. Deterministic for a given seed.
        """
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        rng = np.random.default_rng(seed)
        draws = rng.exponential(1.0, size=(num_samples, num_classes))
        yhat = draws / draws.sum(axis=1, keepdims=True)
        y = np.zeros((num_samples, num_classes))
        y[np.arange(num_samples), rng.integers(0, num_classes, num_samples)] = 1.0
        values = self.batch_value(yhat, y)
        return float(values.min()), float(values.max())

    def to_flat(self) -> np.ndarray:
        """Flat parameter vector: theta0, theta1, then coefficients in lex order."""
        coeffs = [self.coefficients[k] for k in coefficient_keys(self.order)]
        return np.array(list(self.expansion_point) + coeffs)

    @classmethod
    def from_flat(cls, vec: np.ndarray, order: int = DEFAULT_ORDER) -> "TaylorLossParams":
        vec = np.asarray(vec, dtype=float)
        expected = num_parameters(order)
        if vec.shape != (expected,):
            raise ValueError(
                f"flat vector for order {order} must have {expected} entries, "
                f"got shape {vec.shape}"
            )
        keys = coefficient_keys(order)
        return cls(
            order=order,
            expansion_point=(float(vec[0]), float(vec[1])),
            coefficients={k: float(v) for k, v in zip(keys, vec[2:])},
        )


@dataclass(frozen=True)
class NormalizedLoss(_Loss):
    """Polynomial loss rescaled to an approximate [0, eta] output range."""

    inner: TaylorLossParams
    f_min: float
    f_max: float
    eta: float = 1.0

    def __post_init__(self):
        if not self.f_max > self.f_min:
            raise ValueError(
                f"f_max must exceed f_min, got f_min={self.f_min} f_max={self.f_max}"
            )
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    @property
    def _scale(self) -> float:
        return self.eta / (self.f_max - self.f_min)

    def batch_value(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._scale * (self.inner.batch_value(yhat, y) - self.f_min)

    def batch_grad(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._scale * self.inner.batch_grad(yhat, y)


def normalize(
    params: TaylorLossParams,
    num_classes: int,
    eta: float = 1.0,
    num_samples: int = DEFAULT_RANGE_SAMPLES,
    seed: int = 0,
) -> NormalizedLoss | None:
    """Estimate the range of ``params`` and wrap it, or None if degenerate.

    Candidates whose sampled range is narrower than ``DEGENERATE_RANGE`` are
    effectively constant; callers treat them as failed candidates.
    """
    f_min, f_max = params.estimate_range(num_classes, num_samples, seed)
    if f_max - f_min < DEGENERATE_RANGE:
        return None
    return NormalizedLoss(inner=params, f_min=f_min, f_max=f_max, eta=eta)


def loss_to_json(loss: TaylorLossParams | NormalizedLoss) -> str:
    """Serialize a (possibly normalized) polynomial loss to its JSON file form."""
    if isinstance(loss, NormalizedLoss):
        params, norm = loss.inner, {
            "eta": loss.eta, "f_min": loss.f_min, "f_max": loss.f_max,
        }
    else:
        params, norm = loss, None
    doc = {
        "version": LOSS_FILE_VERSION,
        "order": params.order,
        "expansion_point": list(params.expansion_point),
        "coefficients": [
            {"a": a, "b": b, "value": params.coefficients[(a, b)]}
            for a, b in coefficient_keys(params.order)
        ],
        "normalization": norm,
    }
    return json.dumps(doc, indent=2) + "\n"


def loss_from_json(text: str) -> TaylorLossParams | NormalizedLoss:
    """Parse a loss file, enforcing the coefficient-table invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LossFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LossFormatError("loss file must contain a JSON object")
    version = doc.get("version")
    if version != LOSS_FILE_VERSION:
        raise LossFormatError(f"unknown loss file version {version!r}")
    for key in ("order", "expansion_point", "coefficients"):
        if key not in doc:
            raise LossFormatError(f"missing field {key!r}")
    order = doc["order"]
    if not isinstance(order, int) or order < 1:
        raise LossFormatError(f"order must be a positive integer, got {order!r}")
    point = doc["expansion_point"]
    if not (isinstance(point, list) and len(point) == 2):
        raise LossFormatError("expansion_point must be a two-element array")
    if not isinstance(doc["coefficients"], list):
        raise LossFormatError("coefficients must be an array")
    coeffs = {}
    for entry in doc["coefficients"]:
        try:
            coeffs[(entry["a"], entry["b"])] = float(entry["value"])
        except (TypeError, KeyError, ValueError) as exc:
            raise LossFormatError(f"malformed coefficient entry {entry!r}") from exc
    for key in coefficient_keys(order):
        if key not in coeffs:
            raise LossFormatError(f"missing coefficient for exponent pair {key}")
    try:
        params = TaylorLossParams(
            order=order,
            expansion_point=(float(point[0]), float(point[1])),
            coefficients=coeffs,
        )
    except (TypeError, ValueError) as exc:
        raise LossFormatError(str(exc)) from exc
    norm = doc.get("normalization")
    if norm is None:
        return params
    try:
        return NormalizedLoss(
            inner=params,
            f_min=float(norm["f_min"]),
            f_max=float(norm["f_max"]),
            eta=float(norm["eta"]),
        )
    except (TypeError, KeyError) as exc:
        raise LossFormatError(f"malformed normalization block {norm!r}") from exc
    except ValueError as exc:
        raise LossFormatError(str(exc)) from exc


def save_loss(loss: TaylorLossParams | NormalizedLoss, path: str | Path) -> None:
    Path(path).write_text(loss_to_json(loss))


def load_loss(path: str | Path) -> TaylorLossParams | NormalizedLoss:
    return loss_from_json(Path(path).read_text())


def mse_embedding(order: int = DEFAULT_ORDER) -> TaylorLossParams:
    """The family member equal to mean squared error up to a constant.

    With coefficients 2 at (2, 0) and -2 at (1, 1) around the origin, the
    per-example value is (1/C) * (||yhat - y||^2 - ||y||^2); the missing
    ||y||^2 is a pure-y constant outside the representable terms.
    """
    coeffs = {k: 0.0 for k in coefficient_keys(order)}
    coeffs[(2, 0)] = 2.0
    coeffs[(1, 1)] = -2.0
    return TaylorLossParams(order=order, expansion_point=(0.0, 0.0), coefficients=coeffs)


def _horner(coeffs, x):
    """sum_i coeffs[i] * x**i by Horner's rule; x may be an array."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc

