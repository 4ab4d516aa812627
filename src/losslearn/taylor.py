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
(estimate_range), so it depends on the loss and the class count alone: a
NormalizedLoss scans it once for each class count that its batches have.

Losses here are total functions of their inputs (polynomials are finite
everywhere), so no clamping of predictions is required or performed.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import islice
from pathlib import Path

import numpy as np

from .config import check_fields, config_from_dict
from .network import _buffer, _class_fold
from .reference import _Loss

LOSS_FILE_VERSION = 2
DEFAULT_ORDER = 4
DEGENERATE_RANGE = 1e-9
SCAN_POINTS = 101  # estimate_range's grid over [0, 1]


class LossFormatError(ValueError):
    """Raised for malformed, unknown-version, or invariant-violating loss files."""


class DegenerateRange(LossFormatError):
    """A normalized loss met a class count at which its range has no width to scale by."""


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


class _Polynomial(_Loss):
    """What a raw and a normalized polynomial loss share: one fused call."""

    @cached_property
    def _call(self):
        return _Polynomial.stacked([self])

    def indexed(self, yhat, labels, values=True):
        """(n,) values (None if not values) and (n, C) gradients on label indices:
        a population of one, whose call is built once and gives fresh gradients."""
        out, grads = self._call(yhat[None], labels, values, np.empty((1,) + yhat.shape))
        return None if out is None else out[0], grads[0]

    @staticmethod
    def stacked(losses):
        """One call for a population of polynomial losses, raw or normalized, of one order.

        Returns a function of (m, n, C) predictions, (n,) label indices,
        whether values are wanted (default True) and an optional gradient
        array, giving (m, n) values, or None when they are not, and (m, n, C)
        gradients, member k under loss k, bit for bit what batch_value and
        batch_grad give slice by slice on the one-hot label rows; None for any
        other population. Without values the call skips their polynomial
        pass, class mean and affine; the gradients are the same bits either
        way. Each member's offset and scale come from its affine at the C of
        yhat. The function keeps its (m, n, C) arrays, so the next call
        overwrites the gradients, unless they went into a given array.
        """
        polys = [l.inner if isinstance(l, NormalizedLoss) else l for l in losses]
        if not all(isinstance(p, TaylorLossParams) and p.order == polys[0].order for p in polys):
            return None
        theta0 = np.array([p.expansion_point[0] for p in polys])[:, None, None]
        # (value or gradient, label entry t, power, member, 1, 1)
        coeffs = np.moveaxis(np.array([p._univariate for p in polys]), 0, -1)
        (g0, g1), (dg0, dg1) = coeffs[..., None, None]
        g1, dg1 = g1[..., 0], dg1[..., 0]  # (power, member, 1): against (m, n) label entries
        work, scales = {}, {}  # per batch length: d, value terms, gradients; per C: (m, 1) arrays

        def value_and_grad(yhat, labels, values=True, grads=None):
            c = yhat.shape[-1]
            if c not in scales:
                scales[c] = np.array([l.affine(c) for l in losses]).T[:, :, None]
            offset, scale = scales[c]
            d, terms, kept = _buffer(work, yhat.shape, (3,) + yhat.shape)
            grads = kept if grads is None else grads
            np.subtract(yhat, theta0, out=d)
            means = None
            if values:
                _label_split(g0, g1, d, labels, terms)
                terms *= d
                means = scale * (_class_fold(np.add, terms) / c - offset)
            _label_split(dg0, dg1, d, labels, grads)
            grads /= c
            grads *= scale[..., None]
            return means, grads

        return value_and_grad


@dataclass(frozen=True)
class TaylorLossParams(_Polynomial):
    """Expansion point plus graded coefficient table of a polynomial loss."""

    order: int = DEFAULT_ORDER
    expansion_point: tuple[float, float] = (0.0, 0.0)
    coefficients: dict[tuple[int, int], float] = None  # type: ignore[assignment]

    def __post_init__(self):
        check_fields(self)  # first: the key walk below needs an integer order
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

    @cached_property
    def _univariate(self):
        # values[t][a - 1] = P_a(t - theta1) for t = 0, 1 by Horner on plain floats (_horner's
        # bits), P_a(e) = sum_b c_ab / (a! b!) e^b; grads[t][a - 1] = a P_a(t - theta1)
        c, fact, theta1 = self.coefficients, math.factorial, self.expansion_point[1]
        rows = [
            [c[(a, b)] / (fact(a) * fact(b)) for b in range(self.order - a + 1)]
            for a in range(1, self.order + 1)
        ]
        values = [[reduce(lambda acc, coeff: acc * e + coeff, row[::-1]) for row in rows]
                  for e in (0.0 - theta1, 1.0 - theta1)]
        return values, [[a * p for a, p in enumerate(g, start=1)] for g in values]

    # _Loss's label-weighted mix over indexed, bound here by name for perfbench's tracer
    batch_value, batch_grad = _Loss.batch_value, _Loss.batch_grad

    def affine(self, num_classes: int) -> tuple[float, float]:
        """(offset, scale) of the values at any C: a raw loss keeps its own."""
        return 0.0, 1.0

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

        def G(g, x):  # d g(d) with d = x - theta0, in one array besides d
            d = x - theta0
            out = _horner(g, d)
            out *= d
            return out

        s = np.linspace(0.0, 1.0, SCAN_POINTS)
        r = np.multiply.outer(1.0 - s, s)  # r[i, j] = t_j (1 - s_i)
        k = np.arange(1.0, c - 1)[:, None, None]
        label, zero = G(g1, s), G(g0, 0.0)
        edges = (label + G(g0, 1.0 - s) + (c - 2) * zero) / c
        shared = G(g0, (1.0 - s[:, None] - r) / k)  # in place: times k, plus the rest, / c
        shared *= k
        shared += label[:, None]
        shared += G(g0, r)
        shared += (c - 2 - k) * zero
        shared /= c
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
class NormalizedLoss(_Polynomial):
    """Polynomial loss rescaled, at the class count C of each batch, so that its
    range over the scan at C maps onto [0, eta], eta finite and > 0."""

    inner: TaylorLossParams
    eta: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if self.eta <= 0:
            raise ValueError(f"need a finite eta > 0, got {self.eta!r}")
        object.__setattr__(self, "_affine_at", {})  # class count -> (offset, scale)

    def affine(self, num_classes: int) -> tuple[float, float]:
        """(offset, scale) making the values scale * (loss - offset) at C, from
        the range at C, scanned once; DegenerateRange if it has no width."""
        if num_classes not in self._affine_at:
            lo, hi = self.inner.estimate_range(num_classes)
            if not DEGENERATE_RANGE <= hi - lo < math.inf:  # NaN fails too
                raise DegenerateRange(f"no range at {num_classes} classes (width {hi - lo!r})")
            self._affine_at[num_classes] = lo, self.eta / (hi - lo)
        return self._affine_at[num_classes]

    batch_value, batch_grad = _Loss.batch_value, _Loss.batch_grad  # as in TaylorLossParams


def normalize(
    params: TaylorLossParams,
    num_classes: int | list[int],
    eta: float = 1.0,
    seed: int | None = None,  # ignored; stays only because perfbench/workloads.py passes it
) -> NormalizedLoss | None:
    """``params`` wrapped to [0, eta], or None if its range is degenerate at
    any of the class counts given (one or several), whose ranges it scans.

    Candidates whose range is narrower than ``DEGENERATE_RANGE`` are
    effectively constant, and those whose values overflow have no range to
    scale by; callers treat both as failed candidates.
    """
    loss = NormalizedLoss(params, eta)
    try:
        for c in np.atleast_1d(num_classes).tolist():
            loss.affine(c)
    except DegenerateRange:
        return None
    return loss


def loss_to_json(loss: TaylorLossParams | NormalizedLoss) -> str:
    """Serialize a (possibly normalized) polynomial loss to its JSON file form."""
    if isinstance(loss, NormalizedLoss):
        params, norm = loss.inner, {"eta": loss.eta}
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


@dataclass(frozen=True)
class _LossFile:  # a loss file's top level
    version: int
    order: int
    expansion_point: tuple[float, float]
    coefficients: tuple
    normalization: dict = None
    __post_init__ = check_fields


@dataclass(frozen=True)
class _Entry:  # one coefficient of a loss file
    a: int
    b: int
    value: float
    __post_init__ = check_fields


@dataclass(frozen=True)
class _Normalization:  # a loss file's normalization block
    eta: float
    __post_init__ = check_fields


def loss_from_json(text: str | bytes) -> TaylorLossParams | NormalizedLoss:
    """Parse a loss file: its fields by the config rules, its table by TaylorLossParams."""
    try:
        doc = config_from_dict(_LossFile, json.loads(text), "loss file")
        if doc.version != LOSS_FILE_VERSION:  # version 1's range served one class count
            raise ValueError(f"unknown loss file version {doc.version!r}" if doc.version != 1 else
                             'loss file version 1 stores a fixed range, which is no longer used: '
                             'set "version" to 2 and keep only "eta" in "normalization"')
        coeffs = {}
        for entry in doc.coefficients:
            entry = config_from_dict(_Entry, entry, "coefficient entry")
            if (entry.a, entry.b) in coeffs:
                raise ValueError(f"repeated coefficient entry {(entry.a, entry.b)}")
            coeffs[entry.a, entry.b] = entry.value
        params = TaylorLossParams(doc.order, doc.expansion_point, coeffs)
        if doc.normalization is None:
            return params
        norm = config_from_dict(_Normalization, doc.normalization, "normalization")
        return NormalizedLoss(params, norm.eta)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # bytes that are no text too
        raise LossFormatError(f"not valid JSON: {exc}") from None
    except ValueError as exc:
        raise LossFormatError(str(exc)) from None


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


def _horner(coeffs, x, out=None):
    """sum_i coeffs[i] * x**i over arrays by Horner's rule, in place in out (new if None)."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(coeffs[-1]), np.shape(x)))
    out[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _label_split(g0, g1, d, labels, out):
    """g0(d) into (..., n, C) out, then g1(d) at the label entries out[..., i,
    labels[i]], so g1's coefficients broadcast against (..., n): on one-hot
    rows, the bits of the masked (1 - y) g0 + y g1."""
    _horner(g0, d, out)
    rows = np.arange(d.shape[-2])
    out[..., rows, labels] = _horner(g1, d[..., rows, labels])

