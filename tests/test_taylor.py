"""Polynomial loss family: oracle equivalence, gradients, normalization, files."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslearn import taylor
from losslearn.taylor import (
    DEFAULT_ORDER,
    DegenerateRange,
    LossFormatError,
    NormalizedLoss,
    TaylorLossParams,
    coefficient_keys,
    loss_from_json,
    loss_to_json,
    mse_embedding,
    normalize,
    num_parameters,
    load_loss,
    save_loss,
)

# ---------------------------------------------------------------------------
# Independent oracles. These were written before the implementation and stay
# deliberately naive: plain Python loops, factorials spelled out, no shared
# code with the package.
# ---------------------------------------------------------------------------


def oracle_per_class(order, theta0, theta1, coeffs, yhat_i, y_i):
    total = 0.0
    for a in range(1, order + 1):
        for b in range(0, order - a + 1):
            c = coeffs[(a, b)]
            term = c * (yhat_i - theta0) ** a * (y_i - theta1) ** b
            total += term / (math.factorial(a) * math.factorial(b))
    return total


def oracle_value(params, yhat, y):
    per = [
        oracle_per_class(
            params.order,
            params.expansion_point[0],
            params.expansion_point[1],
            params.coefficients,
            yhat[i],
            y[i],
        )
        for i in range(len(yhat))
    ]
    return sum(per) / len(per)


def oracle_value_16(params, extra, yhat, y):
    """Oracle augmented with pure-y terms: powers 1..4 of (y - theta1)."""
    theta1 = params.expansion_point[1]
    total = 0.0
    for i in range(len(yhat)):
        total += oracle_per_class(
            params.order,
            params.expansion_point[0],
            theta1,
            params.coefficients,
            yhat[i],
            y[i],
        )
        for p, c in enumerate(extra, start=1):
            total += c * (y[i] - theta1) ** p / math.factorial(p)
    return total / len(yhat)


def fd_grad(value_fn, yhat, y, h=1e-5):
    g = np.zeros(len(yhat))
    for i in range(len(yhat)):
        up = np.array(yhat, dtype=float)
        dn = np.array(yhat, dtype=float)
        up[i] += h
        dn[i] -= h
        g[i] = (value_fn(up, y) - value_fn(dn, y)) / (2 * h)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)
    return np.linalg.norm(a - b) / denom


def random_params(rng, order=DEFAULT_ORDER, scale=1.0):
    keys = coefficient_keys(order)
    return TaylorLossParams(
        order=order,
        expansion_point=tuple(rng.uniform(-scale, scale, 2)),
        coefficients={k: rng.uniform(-scale, scale) for k in keys},
    )


def one_hot(rng, n, num_classes):
    return np.eye(num_classes)[rng.integers(0, num_classes, n)]


def per_class_values(params, yhat_i, t_i):
    """Per-class values at predictions yhat_i and 0/1 label entries t_i.

    Each pair is class 0 of a two-class example whose class 1 sits at the
    expansion point (d = 0), where every term vanishes, so the example's
    value is half the class-0 term.
    """
    yhat = np.column_stack([yhat_i, np.full(len(yhat_i), params.expansion_point[0])])
    y = np.column_stack([t_i, 1.0 - np.asarray(t_i, dtype=float)])
    return 2.0 * params.batch_value(yhat, y)


def horner(coeffs, x):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def bivariate_reference(params, yhat, y):
    """The earlier evaluation, kept as a bit-level reference.

    Every P_a(e) is evaluated by Horner's rule over the whole label array,
    then the value d * sum_a P_a d^(a-1) and the gradient sum_a a P_a d^(a-1)
    by Horner's rule in d.
    """
    rows = [
        [
            params.coefficients[(a, b)] / (math.factorial(a) * math.factorial(b))
            for b in range(params.order - a + 1)
        ]
        for a in range(1, params.order + 1)
    ]
    d = np.asarray(yhat, dtype=float) - params.expansion_point[0]
    e = np.asarray(y, dtype=float) - params.expansion_point[1]
    polys = [horner(row, e) for row in rows]
    value = (d * horner(polys, d)).mean(axis=1)
    g = horner([a * p for a, p in enumerate(polys, start=1)], d)
    return value, np.broadcast_to(g, d.shape) / d.shape[1]


def random_input(rng, num_classes):
    draws = rng.exponential(1.0, num_classes)
    yhat = draws / draws.sum()
    y = np.zeros(num_classes)
    y[rng.integers(0, num_classes)] = 1.0
    return yhat, y


# ---------------------------------------------------------------------------
# Construction invariants
# ---------------------------------------------------------------------------


def test_coefficient_counts():
    assert len(coefficient_keys(4)) == 10
    assert num_parameters(4) == 12
    assert len(coefficient_keys(2)) == 3
    assert coefficient_keys(2) == [(1, 0), (1, 1), (2, 0)]


def test_rejects_missing_and_extra_keys():
    keys = coefficient_keys(4)
    coeffs = {k: 0.0 for k in keys}
    del coeffs[(2, 1)]
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        TaylorLossParams(coefficients=coeffs)
    coeffs = {k: 0.0 for k in keys}
    coeffs[(0, 1)] = 1.0
    with pytest.raises(ValueError, match="unexpected"):
        TaylorLossParams(coefficients=coeffs)


def test_rejects_non_finite():
    coeffs = {k: 0.0 for k in coefficient_keys(4)}
    coeffs[(1, 0)] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        TaylorLossParams(coefficients=coeffs)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_zero_polynomial_is_zero():
    params = TaylorLossParams()
    assert params.value(np.array([0.3, 0.7]), np.array([1.0, 0.0])) == 0.0
    yhat, y = random_input(np.random.default_rng(0), 5)
    assert params.value(yhat, y) == 0.0


def test_mse_embedding_per_class():
    # (yhat - y)^2 - y^2 for one class: -0.91 on the label, 0.49 off it
    params = mse_embedding()
    np.testing.assert_allclose(
        per_class_values(params, [0.7, 0.7], [1.0, 0.0]), [-0.91, 0.49], atol=1e-12
    )


def test_mse_embedding_example_value_and_grad():
    params = mse_embedding()
    yhat = np.array([0.7, 0.3])
    y = np.array([1.0, 0.0])
    assert params.value(yhat, y) == pytest.approx(-0.41, abs=1e-12)
    assert params.grad(yhat, y)[0] == pytest.approx(-0.3, abs=1e-12)


def test_mse_embedding_closed_form():
    rng = np.random.default_rng(7)
    params = mse_embedding()
    for trial in range(50):
        num_classes = int(rng.integers(2, 11))
        yhat, y = random_input(rng, num_classes)
        expected = (np.sum((yhat - y) ** 2) - np.sum(y**2)) / num_classes
        assert params.value(yhat, y) == pytest.approx(expected, abs=1e-12)


def test_per_class_matches_oracle():
    rng = np.random.default_rng(11)
    for trial in range(200):
        params = random_params(rng)
        expected = [
            oracle_per_class(params.order, *params.expansion_point, params.coefficients, 0.3, t)
            for t in (0.0, 1.0)
        ]
        np.testing.assert_allclose(
            per_class_values(params, [0.3, 0.3], [0.0, 1.0]), expected, atol=1e-12
        )
    # every order, both label entries, arrays, negative expansion points
    for order in range(1, 7):
        for trial in range(20):
            params = random_params(rng, order=order)
            point = -np.abs(params.expansion_point) if trial % 2 else params.expansion_point
            params = TaylorLossParams(
                order=order, expansion_point=tuple(point), coefficients=params.coefficients
            )
            yhat_i = rng.uniform(-0.5, 1.5, 7)
            t_i = rng.integers(0, 2, 7).astype(float)
            expected = [
                oracle_per_class(order, *point, params.coefficients, p, t)
                for p, t in zip(yhat_i, t_i)
            ]
            np.testing.assert_allclose(
                per_class_values(params, yhat_i, t_i), expected, rtol=1e-12, atol=1e-12
            )


def test_value_matches_oracle_c10():
    rng = np.random.default_rng(13)
    for trial in range(200):
        params = random_params(rng)
        yhat, y = random_input(rng, 10)
        assert params.value(yhat, y) == pytest.approx(
            oracle_value(params, yhat, y), abs=1e-12
        )
    # batches at every order, predictions off the simplex
    for order in range(1, 7):
        params = random_params(rng, order=order, scale=2.0)
        yhat = rng.uniform(-0.5, 1.5, (5, 10))
        y = one_hot(rng, 5, 10)
        expected = [oracle_value(params, yhat[i], y[i]) for i in range(5)]
        np.testing.assert_allclose(
            params.batch_value(yhat, y), expected, rtol=1e-12, atol=1e-12
        )


def test_value_rejects_bad_inputs():
    params = mse_embedding()
    with pytest.raises(ValueError, match="2 classes"):
        params.value(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        params.value(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def test_zero_polynomial_grad_is_zero():
    params = TaylorLossParams()
    yhat, y = random_input(np.random.default_rng(1), 4)
    assert np.all(params.grad(yhat, y) == 0.0)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(17)
    for trial in range(200):
        params = random_params(rng)
        num_classes = int(rng.integers(2, 11))
        yhat, y = random_input(rng, num_classes)
        fd = fd_grad(lambda p, t: params.value(p, t), yhat, y)
        assert rel_err(params.grad(yhat, y), fd) < 1e-5


def test_batch_grad_matches_oracle_every_order():
    rng = np.random.default_rng(43)
    for order in range(1, 7):
        for point in [(0.0, 0.0), (-0.6, -0.3), (0.4, -1.1)]:
            params = TaylorLossParams(
                order=order,
                expansion_point=point,
                coefficients={k: rng.uniform(-1, 1) for k in coefficient_keys(order)},
            )
            yhat = rng.uniform(-0.5, 1.5, (6, 4))
            y = one_hot(rng, 6, 4)
            grads = params.batch_grad(yhat, y)
            # at order 1 the gradient is a constant, still one entry per class
            assert grads.shape == (6, 4)
            for i in range(6):
                fd = fd_grad(lambda p, t: oracle_value(params, p, t), yhat[i], y[i])
                assert rel_err(grads[i], fd) < 1e-6


@pytest.mark.parametrize("num_classes", [2, 3, 10])
@pytest.mark.parametrize("order", range(1, 7))
def test_one_hot_evaluation_is_bit_identical_to_bivariate(order, num_classes):
    rng = np.random.default_rng(100 * order + num_classes)
    for point in [(0.0, 0.0), (-0.6, -0.3), (0.4, -1.1), (-1.3, 0.8)]:
        params = TaylorLossParams(
            order=order,
            expansion_point=point,
            coefficients={k: rng.normal(0.0, 1.0) for k in coefficient_keys(order)},
        )
        draws = rng.exponential(1.0, (64, num_classes))
        yhat = np.vstack(
            [draws / draws.sum(axis=1, keepdims=True), rng.uniform(-0.5, 1.5, (16, num_classes))]
        )
        y = one_hot(rng, 80, num_classes)
        value, grad = bivariate_reference(params, yhat, y)
        assert np.array_equal(params.batch_value(yhat, y), value)
        assert np.array_equal(params.batch_grad(yhat, y), grad)
        if order == 1:
            continue  # constant on the simplex: no range to normalize by
        nl = NormalizedLoss(inner=params, eta=8.0)
        lo, hi = params.estimate_range(num_classes)
        scale = nl.eta / (hi - lo)
        assert nl.affine(num_classes) == (lo, scale)
        assert np.array_equal(nl.batch_value(yhat, y), scale * (value - lo))
        assert np.array_equal(nl.batch_grad(yhat, y), scale * grad)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 6))
def test_soft_labels_are_the_label_weighted_mix(seed, num_classes, order):
    # for a label row q on the simplex, loss(yhat, q) = sum_k q_k loss(yhat, e_k)
    rng = np.random.default_rng(seed)
    params = random_params(rng, order=order)
    yhat = rng.dirichlet(np.ones(num_classes), 5)
    q = rng.dirichlet(np.full(num_classes, 0.5), 5)
    labels = [np.tile(e_k, (5, 1)) for e_k in np.eye(num_classes)]
    value = sum(q[:, k] * params.batch_value(yhat, y) for k, y in enumerate(labels))
    grad = sum(q[:, [k]] * params.batch_grad(yhat, y) for k, y in enumerate(labels))
    np.testing.assert_allclose(params.batch_value(yhat, q), value, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(params.batch_grad(yhat, q), grad, rtol=1e-10, atol=1e-12)


def test_grad_unchanged_by_pure_y_terms():
    rng = np.random.default_rng(19)
    for trial in range(100):
        params = random_params(rng)
        extra = rng.uniform(-1.0, 1.0, 4)
        yhat, y = random_input(rng, 5)
        fd16 = fd_grad(lambda p, t: oracle_value_16(params, extra, p, t), yhat, y)
        assert rel_err(params.grad(yhat, y), fd16) < 1e-5
        # the value difference is an additive constant independent of yhat
        other = rng.exponential(1.0, 5)
        other /= other.sum()
        diff_a = oracle_value_16(params, extra, yhat, y) - params.value(yhat, y)
        diff_b = oracle_value_16(params, extra, other, y) - params.value(other, y)
        assert diff_a == pytest.approx(diff_b, abs=1e-12)


# ---------------------------------------------------------------------------
# Range estimation and normalization
# ---------------------------------------------------------------------------


def test_range_of_zero_polynomial():
    assert TaylorLossParams().estimate_range(3) == (0.0, 0.0)


def test_range_of_constant_sum():
    # theta_(1,0) = 1 around 0: per-class value yhat_i, mean = 1/C exactly.
    coeffs = {k: 0.0 for k in coefficient_keys(4)}
    coeffs[(1, 0)] = 1.0
    params = TaylorLossParams(coefficients=coeffs)
    f_min, f_max = params.estimate_range(2)
    assert f_min == pytest.approx(0.5, abs=1e-12)
    assert f_max == pytest.approx(0.5, abs=1e-12)


def test_range_matches_grid_oracle():
    params = mse_embedding()
    grid_vals = []
    for yhat1 in np.arange(0.0, 1.0001, 0.001):
        yhat = np.array([yhat1, 1.0 - yhat1])
        for y in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            grid_vals.append(oracle_value(params, yhat, y))
    f_min, f_max = params.estimate_range(2)
    assert abs(f_min - min(grid_vals)) < 0.01
    assert abs(f_max - max(grid_vals)) < 0.01


def test_range_determinism():
    params = mse_embedding()
    assert params.estimate_range(3) == params.estimate_range(3)


def minplus_range(params, num_classes, grid=400):
    """(min, max) of the loss over the simplex points whose coordinates are
    multiples of 1/grid: the label coordinate scanned, the C - 1 off-label
    coordinates combined by min-plus (max-plus) convolution of the per-class
    value over their total."""
    x = np.arange(grid + 1) / grid
    g0, g1 = (
        np.array([oracle_per_class(params.order, *params.expansion_point,
                                   params.coefficients, xi, t) for xi in x])
        for t in (0.0, 1.0)
    )
    gap = np.subtract.outer(np.arange(grid + 1), np.arange(grid + 1)).T  # [a, m] = m - a
    gather = np.where(gap >= 0, gap, grid + 1)  # a > m reads the pad
    ends = []
    for pick, pad in ((np.min, np.inf), (np.max, -np.inf)):
        padded = np.append(g0, pad)
        off = g0  # off[m]: best sum over the off-label coordinates totalling m/grid
        for _ in range(num_classes - 2):
            off = pick(off[:, None] + padded[gather], axis=0)
        ends.append(pick(g1 + off[::-1]) / num_classes)  # label coordinate i/grid
    return tuple(ends)


def simplex_probes(rng, num_classes):
    """Prediction rows: random simplex points, every vertex, points on every edge."""
    eye = np.eye(num_classes)
    pairs = [(i, j) for i in range(num_classes) for j in range(i + 1, num_classes)]
    edges = [lam * eye[i] + (1 - lam) * eye[j] for i, j in pairs for lam in rng.random(4)]
    return np.vstack([rng.dirichlet(np.ones(num_classes), 200), eye, edges])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    order=st.integers(1, 6),
    num_classes=st.sampled_from([2, 3, 10]),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_matches_minplus_oracle(order, num_classes, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, order)
    f_min, f_max = params.estimate_range(num_classes)
    o_min, o_max = minplus_range(params, num_classes)
    tol = 1e-4 * (o_max - o_min) + 1e-12  # plus rounding: an order-1 loss is constant
    assert abs(f_min - o_min) <= tol and abs(f_max - o_max) <= tol
    yhat = simplex_probes(rng, num_classes)
    for label in range(num_classes):
        y = np.zeros_like(yhat)
        y[:, label] = 1.0
        values = params.batch_value(yhat, y)
        assert f_min - tol <= values.min() and values.max() <= f_max + tol


def allocating_scan(params, num_classes):
    """estimate_range as written before its in-place pass: a fresh array for
    every Horner step and every sum."""
    (g0, g1), _ = params._univariate
    theta0, c = params.expansion_point[0], num_classes

    def G(g, x):
        d = x - theta0
        acc = g[-1]
        for coeff in g[-2::-1]:
            acc = acc * d + coeff
        return d * acc

    s = np.linspace(0.0, 1.0, taylor.SCAN_POINTS)
    r = np.multiply.outer(1.0 - s, s)
    k = np.arange(1.0, c - 1)[:, None, None]
    label, zero = G(g1, s), G(g0, 0.0)
    edges = (label + G(g0, 1.0 - s) + (c - 2) * zero) / c
    u = (1.0 - s[:, None] - r) / k
    shared = (label[:, None] + k * G(g0, u) + G(g0, r) + (c - 2 - k) * zero) / c
    values = np.concatenate([edges, shared.ravel()])
    return float(values.min()), float(values.max())


@pytest.mark.parametrize("num_classes", [2, 3, 5, 10])
@pytest.mark.parametrize("order", range(1, 7))
def test_range_scan_in_place_keeps_the_bits(order, num_classes):
    rng = np.random.default_rng(47 * order + num_classes)
    for scale in (0.1, 1.0, 3.0) * 4:
        params = random_params(rng, order, scale)
        assert np.array_equal(
            params.estimate_range(num_classes), allocating_scan(params, num_classes)
        )


def test_normalize_ignores_its_seed():
    params = random_params(np.random.default_rng(43))
    scales = {
        loss.affine(3)
        for loss in (normalize(params, num_classes=3, seed=s) for s in (None, 0, 1, 2**31))
    }
    lo, hi = params.estimate_range(3)
    assert scales == {(lo, 1.0 / (hi - lo))}


def test_normalized_eval_affine():
    # the scan's extremes at the C of the input map to 0 and eta
    params = mse_embedding()
    nl = NormalizedLoss(inner=params, eta=2.0)
    for c in (2, 3, 7):
        lo, hi = params.estimate_range(c)
        yhat, y = np.full(c, 1.0 / c), np.eye(c)[0]
        expected = 2.0 * (params.value(yhat, y) - lo) / (hi - lo)
        assert nl.value(yhat, y) == pytest.approx(expected, abs=1e-12)
        assert nl.value(*np.eye(c)[:2]) == pytest.approx(2.0, abs=1e-12)  # MSE's worst
        assert nl.value(np.eye(c)[0], np.eye(c)[0]) == pytest.approx(0.0, abs=1e-12)


def test_normalized_rejects_degenerate():
    for eta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eta"):
            NormalizedLoss(inner=mse_embedding(), eta=eta)
    constant = NormalizedLoss(inner=TaylorLossParams(), eta=1.0)  # its range shows at use
    with pytest.raises(DegenerateRange, match="3 classes"):
        constant.value(np.full(3, 1 / 3), np.eye(3)[0])


def test_normalize_is_degenerate_if_any_class_count_is():
    # G1(s) = 2s - s^2 and G0(x) = x^2 sum to 1 on the C = 2 simplex, not above
    coeffs = {k: 0.0 for k in coefficient_keys(4)}
    coeffs.update({(2, 0): 2.0, (1, 1): 2.0, (2, 1): -4.0})
    params = TaylorLossParams(coefficients=coeffs)
    assert normalize(params, num_classes=3) is not None
    for pool in (2, [2, 3], [3, 2], (3, 5, 2)):
        assert normalize(params, num_classes=pool) is None
    loss = normalize(params, num_classes=[3, 10], eta=8.0)
    assert loss.affine(10)[1] != loss.affine(3)[1]  # one range per class count


def test_normalize_flags_an_overflowing_loss():
    # P_1(e) = e^3 / 6 overflows at theta1 = 1e120: every sampled value is -inf
    coeffs = {k: 0.0 for k in coefficient_keys(4)}
    coeffs[(1, 3)] = 1.0
    params = TaylorLossParams(expansion_point=(0.0, 1e120), coefficients=coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        assert normalize(params, num_classes=3, seed=0) is None


def test_normalize_flags_constant_loss():
    assert normalize(TaylorLossParams(), num_classes=3, seed=0) is None
    nl = normalize(mse_embedding(), num_classes=3, seed=0)
    assert isinstance(nl, NormalizedLoss)


def test_normalization_preserves_argmin():
    rng = np.random.default_rng(23)
    params = random_params(rng)
    nl = normalize(params, num_classes=4, seed=1)
    inputs = [random_input(rng, 4) for _ in range(50)]
    raw = [params.value(yh, y) for yh, y in inputs]
    scaled = [nl.value(yh, y) for yh, y in inputs]
    assert int(np.argmin(raw)) == int(np.argmin(scaled))


def test_normalized_grad_is_scaled_inner_grad():
    rng = np.random.default_rng(29)
    params = random_params(rng)
    nl = NormalizedLoss(inner=params, eta=2.0)
    yhat, y = random_input(rng, 6)
    fd = fd_grad(lambda p, t: nl.value(p, t), yhat, y)
    assert rel_err(nl.grad(yhat, y), fd) < 1e-5
    lo, hi = params.estimate_range(6)
    np.testing.assert_allclose(nl.grad(yhat, y), 2.0 / (hi - lo) * params.grad(yhat, y))


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize("num_classes", [2, 3, 10])
def test_stacked_population_equals_member_calls(order, num_classes):
    rng = np.random.default_rng(31 * order + num_classes)
    losses = [
        # an order-1 loss is constant on the simplex: no range, so the unit wrapper
        NormalizedLoss(random_params(rng, order), eta=None if order == 1 else 1 + rng.random())
        for _ in range(5)
    ]
    yhat = rng.dirichlet(np.ones(num_classes), (5, 40))
    labels = rng.integers(0, num_classes, 40)
    y = np.eye(num_classes)[labels]
    values, grads = NormalizedLoss.stacked(losses)(yhat, labels)
    for loss, p, value, grad in zip(losses, yhat, values, grads):
        assert np.array_equal(value, loss.batch_value(p, y))
        assert np.array_equal(grad, loss.batch_grad(p, y))


@pytest.mark.parametrize("normalized", [False, True])
def test_indexed_builds_its_call_once_and_returns_fresh_gradients(monkeypatch, normalized):
    built, stacked = [], NormalizedLoss.stacked

    def counted(losses):
        built.append(len(losses))
        return stacked(losses)

    monkeypatch.setattr(NormalizedLoss, "stacked", staticmethod(counted))
    rng = np.random.default_rng(53)
    params = random_params(rng)
    loss = NormalizedLoss(params, eta=8.0) if normalized else params
    calls = []
    for _ in range(3):
        yhat = rng.dirichlet(np.ones(3), 20)
        labels = rng.integers(0, 3, 20)
        calls.append((yhat, np.eye(3)[labels], *loss.indexed(yhat, labels)))
    assert built == [1]
    for yhat, y, value, grad in calls:  # no later call overwrote an earlier one
        assert np.array_equal(value, loss.batch_value(yhat, y))
        assert np.array_equal(grad, loss.batch_grad(yhat, y))


def test_stacked_population_needs_normalized_losses_of_one_order():
    normalized = normalize(mse_embedding(), num_classes=3, seed=1)
    other_order = normalize(mse_embedding(order=3), num_classes=3, seed=1)
    assert NormalizedLoss.stacked([normalized, normalized]) is not None
    assert NormalizedLoss.stacked([normalized, other_order]) is None
    assert NormalizedLoss.stacked([normalized, mse_embedding()]) is None
    assert NormalizedLoss.stacked([mse_embedding(), normalized]) is None


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_permutation_equivariance(seed, num_classes):
    rng = np.random.default_rng(seed)
    params = random_params(rng)
    yhat, y = random_input(rng, num_classes)
    perm = rng.permutation(num_classes)
    assert params.value(yhat[perm], y[perm]) == pytest.approx(
        params.value(yhat, y), abs=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_order_nesting(seed):
    rng = np.random.default_rng(seed)
    low = random_params(rng, order=2)
    coeffs = {k: 0.0 for k in coefficient_keys(4)}
    coeffs.update(low.coefficients)
    high = TaylorLossParams(
        order=4, expansion_point=low.expansion_point, coefficients=coeffs
    )
    yhat, y = random_input(rng, 5)
    assert high.value(yhat, y) == pytest.approx(low.value(yhat, y), abs=1e-12)


def test_flat_round_trip():
    rng = np.random.default_rng(31)
    for order in (2, 3, 4, 5):
        params = random_params(rng, order=order)
        flat = params.to_flat()
        assert flat.shape == (num_parameters(order),)
        back = TaylorLossParams.from_flat(flat, order=order)
        assert back == params


def test_flat_ordering():
    params = mse_embedding()
    flat = params.to_flat()
    # theta0, theta1, then lex-sorted (a, b): (1,1) is index 3, (2,0) index 6
    keys = coefficient_keys(4)
    assert flat[0] == 0.0 and flat[1] == 0.0
    assert flat[2 + keys.index((1, 1))] == -2.0
    assert flat[2 + keys.index((2, 0))] == 2.0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_loss_file_round_trip(tmp_path):
    rng = np.random.default_rng(37)
    params = random_params(rng)
    nl = NormalizedLoss(inner=params, eta=8.0)
    path = tmp_path / "loss.json"
    save_loss(nl, path)
    assert json.loads(path.read_text())["normalization"] == {"eta": 8.0}
    back = load_loss(path)
    assert isinstance(back, NormalizedLoss)
    assert back.inner.coefficients == params.coefficients
    assert back.inner.expansion_point == params.expansion_point
    assert back.eta == 8.0
    yhat = rng.dirichlet(np.ones(5), 10)
    y = np.eye(5)[rng.integers(0, 5, 10)]
    assert np.array_equal(back.batch_value(yhat, y), nl.batch_value(yhat, y))


def test_loss_file_version_1_is_malformed():
    # a v1 file stored the range for one class count; it no longer loads
    doc = json.loads(loss_to_json(NormalizedLoss(mse_embedding(), eta=8.0)))
    doc.update(version=1, normalization={"f_min": -0.5, "f_max": 0.5, "eta": 8.0})
    with pytest.raises(LossFormatError, match="fixed range, which is no longer used"):
        loss_from_json(json.dumps(doc))
    doc.update(version=2, normalization={"eta": 8.0})  # the conversion the message names
    assert loss_from_json(json.dumps(doc)) == NormalizedLoss(mse_embedding(), eta=8.0)


def test_loss_file_round_trip_unnormalized(tmp_path):
    params = mse_embedding()
    path = tmp_path / "raw.json"
    save_loss(params, path)
    back = load_loss(path)
    assert isinstance(back, TaylorLossParams)
    assert back == params


def test_loss_file_missing_coefficient():
    text = loss_to_json(mse_embedding())
    doc = json.loads(text)
    doc["coefficients"] = [e for e in doc["coefficients"] if (e["a"], e["b"]) != (3, 1)]
    with pytest.raises(LossFormatError, match=r"\(3, 1\)"):
        loss_from_json(json.dumps(doc))


def test_loss_file_work_is_bounded_by_its_size(monkeypatch):
    # a 60-byte file must not make the loader build order * (order + 1) / 2 keys
    real = taylor.coefficient_keys

    def guarded(order):
        if order > 1000:
            raise AssertionError(f"coefficient_keys({order}) is unbounded work")
        return real(order)

    monkeypatch.setattr(taylor, "coefficient_keys", guarded)
    doc = {**json.loads(loss_to_json(mse_embedding())), "order": 10**6, "coefficients": []}
    with pytest.raises(LossFormatError, match=r"\(1, 0\)"):
        loss_from_json(json.dumps(doc))


def test_loss_file_unknown_version():
    doc = json.loads(loss_to_json(mse_embedding()))
    doc["version"] = 99
    with pytest.raises(LossFormatError, match="version"):
        loss_from_json(json.dumps(doc))


def test_loss_file_handwritten():
    coeffs = [
        {"a": a, "b": b, "value": 0.1 * (a + b)}
        for a in range(1, 5)
        for b in range(0, 5 - a)
    ]
    doc = {
        "version": 2,
        "order": 4,
        "expansion_point": [0.05, -0.1],
        "coefficients": coeffs,
        "normalization": None,
    }
    loaded = loss_from_json(json.dumps(doc))
    assert isinstance(loaded, TaylorLossParams)
    assert len(loaded.coefficients) == 10


def test_loss_file_bit_identical_coefficients(tmp_path):
    rng = np.random.default_rng(41)
    params = random_params(rng)
    path = tmp_path / "loss.json"
    save_loss(params, path)
    back = load_loss(path)
    for k, v in params.coefficients.items():
        assert back.coefficients[k] == v  # exact, not approx


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(coefficients=5),
        lambda doc: doc["coefficients"][0].update(value="abc"),
        lambda doc: doc.update(expansion_point=[None, 0.0]),
        # an order-1 table, so that only the order's type is wrong
        lambda doc: doc.update(
            json.loads(loss_to_json(TaylorLossParams.from_flat(np.ones(3), order=1))),
            order=True,
        ),
        lambda doc: doc["coefficients"][0].update(value=10**400),
        lambda doc: doc.update(expansion_point=[0.0, -(10**400)]),
        lambda doc: doc.update(normalization={"eta": 10**400}),
        # JSON booleans, numeric strings and float exponents are no numbers here
        lambda doc: doc["coefficients"][0].update(value=True),
        lambda doc: doc["coefficients"][0].update(value="2.0"),
        lambda doc: doc["coefficients"][0].update(a=True),
        lambda doc: doc["coefficients"][0].update(a=1.0),
        lambda doc: doc["coefficients"][0].update(b=False),
        lambda doc: doc.update(expansion_point=["0.1", 0]),
        lambda doc: doc.update(expansion_point=[0.0, True]),
        lambda doc: doc.update(normalization={"eta": True}),
        lambda doc: doc.update(normalization={"eta": "8"}),
        # a v2 block holds eta alone: a stored range is no longer read
        lambda doc: doc.update(normalization={"eta": 8.0, "f_min": 0.0, "f_max": 1.0}),
        lambda doc: doc.update(normalization={}),
        lambda doc: doc.update(normalization=[8.0]),
        # eta must be finite and positive, or every loss value is NaN or infinite
        lambda doc: doc.update(normalization={"eta": math.inf}),
        lambda doc: doc.update(normalization={"eta": 0}),
        lambda doc: doc.update(normalization={"eta": None}),
    ],
    ids=[
        "coefficients-not-array", "value-not-number", "point-not-number", "order-bool",
        "value-too-large", "point-too-large", "normalization-too-large",
        "value-bool", "value-string", "a-bool", "a-float", "b-bool", "point-string",
        "point-bool", "eta-bool", "eta-string", "range-keys", "eta-missing",
        "normalization-not-object", "eta-infinite", "eta-zero", "eta-null",
    ],
)
def test_loss_file_malformed_values(edit):
    doc = json.loads(loss_to_json(mse_embedding()))
    edit(doc)
    with pytest.raises(LossFormatError):
        loss_from_json(json.dumps(doc))


def test_loss_file_not_json():
    with pytest.raises(LossFormatError, match="JSON"):
        loss_from_json("not json {")
    with pytest.raises(LossFormatError, match="JSON"):
        loss_from_json(b"\xff\xfe\x00 not UTF-8")
