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
indexed(), stacked or not, takes label indices and reaches the label entries
as every reference loss does, by x[..., rows, labels] (_label_split). The
output range used for normalization is a deterministic scan of the simplex
(estimate_range), so it depends on the loss and the class count alone.

Losses here are total functions of their inputs (polynomials are finite
everywhere), so no clamping of predictions is required or performed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .network import _buffer, _class_fold
from .reference import _as_batch, _Loss

LOSS_FILE_VERSION = 1
DEFAULT_ORDER = 4
DEGENERATE_RANGE = 1e-9
SCAN_POINTS = 101  # estimate_range's grid over [0, 1]


class LossFormatError(ValueError):
    """Raised for malformed, unknown-version, or invariant-violating loss files."""


def coefficient_keys(order: int) -> list[tuple[int, int]]:
    """Exponent pairs (a, b) with a >= 1, b >= 0, a + b <= order, in lex order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return list(_lex_keys(order))


def _lex_keys(order):
    return ((a, b) for a in range(1, order + 1) for b in range(order - a + 1))


def num_parameters(order: int) -> int:
    """Free parameters: two expansion coordinates plus order (order + 1) / 2 coefficients."""
    return 2 + order * (order + 1) // 2


@dataclass(frozen=True)
class TaylorLossParams(_Loss):
    """Expansion point plus graded coefficient table of a polynomial loss."""

    order: int = DEFAULT_ORDER
    expansion_point: tuple[float, float] = (0.0, 0.0)
    coefficients: dict[tuple[int, int], float] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.coefficients is None:
            zeros = {k: 0.0 for k in coefficient_keys(self.order)}
            object.__setattr__(self, "coefficients", zeros)
        got = self.coefficients
        # the first missing pair is among the first len(got) + 1, so a table's
        # work is bounded by its size, not by its order
        for key in islice(_lex_keys(self.order), len(got) + 1):
            if key not in got:
                raise ValueError(f"missing coefficient for exponent pair {key}")
        extra = set(got).difference(coefficient_keys(self.order))  # rejects an order below 1
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

    @cached_property
    def _unit(self):
        # scale 1 and offset 0 leave the bits of the normalized call unchanged
        return NormalizedLoss(self, 0.0, 1.0)

    def indexed(self, yhat, labels):
        return self._unit.indexed(yhat, labels)

    def estimate_range(self, num_classes: int) -> tuple[float, float]:
        """(min, max) of the loss over a fixed scan of the simplex, not a certified bound.

        The loss is (1/C)[G1(s) + sum of G0 over the off-label entries], with s
        the label entry and Gt(x) = d g_t(d), d = x - theta0. s and t run over
        SCAN_POINTS on [0, 1]; one off-label entry is r = t(1 - s), k = 1..C-2
        share u = (1 - s - r) / k and the rest are 0; at k = 0, r = 1 - s.
        """
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        (g0, g1), _ = self._univariate
        theta0, c = self.expansion_point[0], num_classes

        def G(g, x):
            d = x - theta0
            return d * _horner(g, d)

        s = np.linspace(0.0, 1.0, SCAN_POINTS)
        r = np.multiply.outer(1.0 - s, s)  # r[i, j] = t_j (1 - s_i)
        k = np.arange(1.0, c - 1)[:, None, None]
        label, zero = G(g1, s), G(g0, 0.0)
        edges = (label + G(g0, 1.0 - s) + (c - 2) * zero) / c
        u = (1.0 - s[:, None] - r) / k
        shared = (label[:, None] + k * G(g0, u) + G(g0, r) + (c - 2 - k) * zero) / c
        values = np.concatenate([edges, shared.ravel()])
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
        bounds = (self.f_min, self.f_max, self.eta)
        if not (all(map(math.isfinite, bounds)) and self.f_min < self.f_max and self.eta > 0):
            raise ValueError(f"need finite f_min < f_max and eta > 0, got {bounds}")

    @property
    def _scale(self) -> float:
        return self.eta / (self.f_max - self.f_min)

    def batch_value(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._scale * (self.inner.batch_value(yhat, y) - self.f_min)

    def batch_grad(self, yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self._scale * self.inner.batch_grad(yhat, y)

    @cached_property
    def _call(self):
        return NormalizedLoss.stacked([self])

    def indexed(self, yhat, labels):
        """(n,) values and (n, C) gradients on label indices: a population of
        one, whose call is built once; the gradients are a fresh copy."""
        values, grads = self._call(yhat[None], labels)
        return values[0], grads[0].copy()

    @staticmethod
    def stacked(losses):
        """One call for a population of normalized losses of one order.

        Returns a function of (m, n, C) predictions and (n,) label indices
        giving (m, n) values and (m, n, C) gradients, member k under loss k,
        bit for bit what batch_value and batch_grad give slice by slice on the
        one-hot label rows; None for any other population. The function keeps
        its (m, n, C) arrays, so the next call overwrites the gradients.
        """
        if not all(
            isinstance(l, NormalizedLoss) and l.inner.order == losses[0].inner.order
            for l in losses
        ):
            return None
        theta0, scale, f_min = np.array(
            [(l.inner.expansion_point[0], l._scale, l.f_min) for l in losses]
        ).T[:, :, None, None]
        # (value or gradient, label entry t, power, member, 1, 1)
        coeffs = np.moveaxis(np.array([l.inner._univariate for l in losses]), 0, -1)
        (g0, g1), (dg0, dg1) = coeffs[..., None, None]
        g1, dg1 = g1[..., 0], dg1[..., 0]  # (power, member, 1): against (m, n) label entries
        work = {}  # per batch length: d, values, gradients

        def value_and_grad(yhat, labels):
            d, values, grads = _buffer(work, yhat.shape, (3,) + yhat.shape)
            np.subtract(yhat, theta0, out=d)
            _label_split(g0, g1, d, labels, values)
            values *= d
            means = _class_fold(np.add, values) / yhat.shape[-1]
            _label_split(dg0, dg1, d, labels, grads)
            grads /= yhat.shape[-1]
            grads *= scale
            return scale[..., 0] * (means - f_min[..., 0]), grads

        return value_and_grad


def normalize(
    params: TaylorLossParams,
    num_classes: int,
    eta: float = 1.0,
    seed: int | None = None,  # ignored; stays only because perfbench/workloads.py passes it
) -> NormalizedLoss | None:
    """Estimate the range of ``params`` and wrap it, or None if degenerate.

    Candidates whose range is narrower than ``DEGENERATE_RANGE`` are
    effectively constant, and those whose values overflow have no range to
    scale by; callers treat both as failed candidates.
    """
    f_min, f_max = params.estimate_range(num_classes)
    if not DEGENERATE_RANGE <= f_max - f_min < math.inf:  # NaN fails too
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


def loss_from_json(text: str | bytes) -> TaylorLossParams | NormalizedLoss:
    """Parse a loss file, enforcing the coefficient-table invariants."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # not JSON, or bytes that are no text
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
    if type(order) is not int or order < 1:  # a JSON bool is no integer
        raise LossFormatError(f"order must be a positive integer, got {order!r}")
    point = doc["expansion_point"]
    if not (isinstance(point, list) and len(point) == 2):
        raise LossFormatError("expansion_point must be a two-element array")
    if not isinstance(doc["coefficients"], list):
        raise LossFormatError("coefficients must be an array")
    coeffs = {}
    for entry in doc["coefficients"]:
        try:
            key = entry["a"], entry["b"]
            if not all(type(e) is int for e in key):  # 1.0 and true would pass as 1
                raise TypeError("exponents must be integers")
            coeffs[key] = _number(entry["value"])
        except (TypeError, KeyError, OverflowError) as exc:
            raise LossFormatError(f"malformed coefficient entry {entry!r}") from exc
    try:
        params = TaylorLossParams(
            order=order,
            expansion_point=(_number(point[0]), _number(point[1])),
            coefficients=coeffs,
        )
    except (TypeError, ValueError, OverflowError) as exc:  # 400-digit integers too
        raise LossFormatError(str(exc)) from exc
    norm = doc.get("normalization")
    if norm is None:
        return params
    try:
        return NormalizedLoss(
            inner=params,
            f_min=_number(norm["f_min"]),
            f_max=_number(norm["f_max"]),
            eta=_number(norm["eta"]),
        )
    except (TypeError, KeyError) as exc:
        raise LossFormatError(f"malformed normalization block {norm!r}") from exc
    except (ValueError, OverflowError) as exc:
        raise LossFormatError(str(exc)) from exc


def _number(value):
    """A JSON number as a float; a bool or a numeric string is no number."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)  # OverflowError beyond the float range


def save_loss(loss: TaylorLossParams | NormalizedLoss, path: str | Path) -> None:
    Path(path).write_text(loss_to_json(loss))


def load_loss(path: str | Path) -> TaylorLossParams | NormalizedLoss:
    return loss_from_json(Path(path).read_bytes())


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


def _label_split(g0, g1, d, labels, out):
    """g0(d) into (..., n, C) out, then g1(d) at the label entries out[..., i,
    labels[i]], so g1's coefficients broadcast against (..., n): on one-hot
    rows, the bits of the masked (1 - y) g0 + y g1."""
    out[...] = g0[-1]  # _horner, in place
    for c in g0[-2::-1]:
        out *= d
        out += c
    rows = np.arange(d.shape[-2])
    out[..., rows, labels] = _horner(g1, d[..., rows, labels])

