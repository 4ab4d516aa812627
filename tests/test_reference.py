"""Comparison losses: scalar oracles, FD gradient checks, limiting cases,
and the one-hot formulas each indexed call must reproduce bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslearn.reference import (
    LOG_CLAMP,
    Bootstrap,
    CrossEntropy,
    GeneralizedCrossEntropy,
    LabelSmoothing,
    MeanAbsoluteError,
    SymmetricCrossEntropy,
    make_reference_loss,
)
from losslearn.taylor import mse_embedding, normalize

# Scalar oracle for GCE, computed with plain math before the implementation.
GCE_HALF_ORACLE = (1.0 - math.pow(0.5, 0.7)) / 0.7  # q=0.7, p_t=0.5


def interior_input(rng, num_classes):
    # bounded away from 0 so log/power losses are smooth at the FD points
    draws = rng.uniform(0.2, 1.0, num_classes)
    yhat = draws / draws.sum()
    y = np.zeros(num_classes)
    y[rng.integers(0, num_classes)] = 1.0
    return yhat, y


def fd_grad(loss, yhat, y, h=1e-6):
    g = np.zeros(len(yhat))
    for i in range(len(yhat)):
        up = yhat.copy()
        dn = yhat.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (loss.value(up, y) - loss.value(dn, y)) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


ALL_LOSSES = {  # by test id
    "ce": CrossEntropy(),
    "mae": MeanAbsoluteError(),
    "gce(q=0.7)": GeneralizedCrossEntropy(),
    "gce(q=0.3)": GeneralizedCrossEntropy(q=0.3),
    "sce(alpha=0.1,beta=1.0,A=-4.0)": SymmetricCrossEntropy(),
    "sce(alpha=0.3,beta=0.7,A=-3.0)": SymmetricCrossEntropy(alpha=0.3, beta=0.7, log_zero=-3.0),
    "ls(epsilon=0.1)": LabelSmoothing(),
    "ls(epsilon=0.4)": LabelSmoothing(epsilon=0.4),
    "bootstrap(weight=0.95,mode=soft)": Bootstrap(),
    "bootstrap(weight=0.7,mode=soft)": Bootstrap(weight=0.7),
    "bootstrap(weight=0.8,mode=hard)": Bootstrap(weight=0.8, hard=True),
}


def test_ce_uniform_is_log_c():
    ce = CrossEntropy()
    yhat = np.full(10, 0.1)
    y = np.zeros(10)
    y[3] = 1.0
    assert ce.value(yhat, y) == pytest.approx(math.log(10), abs=1e-12)


def test_mae_perfect_prediction_is_zero():
    mae = MeanAbsoluteError()
    y = np.zeros(5)
    y[2] = 1.0
    assert mae.value(y.copy(), y) == 0.0


def test_mae_scalar_oracle():
    mae = MeanAbsoluteError()
    yhat = np.array([0.7, 0.2, 0.1])
    y = np.array([1.0, 0.0, 0.0])
    assert mae.value(yhat, y) == pytest.approx(0.3 + 0.2 + 0.1, abs=1e-12)


def test_gce_scalar_oracle():
    gce = GeneralizedCrossEntropy(q=0.7)
    yhat = np.array([0.5, 0.3, 0.2])
    y = np.array([1.0, 0.0, 0.0])
    assert gce.value(yhat, y) == pytest.approx(GCE_HALF_ORACLE, abs=1e-12)


def test_sce_scalar_oracle():
    sce = SymmetricCrossEntropy(alpha=0.1, beta=1.0, log_zero=-4.0)
    yhat = np.array([0.5, 0.3, 0.2])
    y = np.array([1.0, 0.0, 0.0])
    # oracle: 0.1 * (-ln 0.5) + 1.0 * (0.3*4 + 0.2*4)
    expected = 0.1 * -math.log(0.5) + (0.3 + 0.2) * 4.0
    assert sce.value(yhat, y) == pytest.approx(expected, abs=1e-12)


def test_label_smoothing_scalar_oracle():
    ls = LabelSmoothing(epsilon=0.3)
    yhat = np.array([0.6, 0.4])
    y = np.array([1.0, 0.0])
    t = np.array([0.7 + 0.15, 0.15])
    expected = -(t * np.log(yhat)).sum()
    assert ls.value(yhat, y) == pytest.approx(expected, abs=1e-12)


def test_bootstrap_soft_scalar_oracle():
    bs = Bootstrap(weight=0.9)
    yhat = np.array([0.6, 0.4])
    y = np.array([1.0, 0.0])
    t = 0.9 * y + 0.1 * yhat
    expected = -(t * np.log(yhat)).sum()
    assert bs.value(yhat, y) == pytest.approx(expected, abs=1e-12)


def test_bootstrap_hard_uses_argmax():
    bs = Bootstrap(weight=0.5, hard=True)
    yhat = np.array([0.2, 0.5, 0.3])
    y = np.array([1.0, 0.0, 0.0])
    t = 0.5 * y + 0.5 * np.array([0.0, 1.0, 0.0])
    expected = -(t * np.log(yhat)).sum()
    assert bs.value(yhat, y) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("loss", list(ALL_LOSSES.values()), ids=list(ALL_LOSSES))
def test_gradients_match_finite_differences(loss):
    rng = np.random.default_rng(101)
    for trial in range(50):
        num_classes = int(rng.integers(2, 8))
        yhat, y = interior_input(rng, num_classes)
        fd = fd_grad(loss, yhat, y)
        assert rel_err(loss.grad(yhat, y), fd) < 1e-4


def test_gce_approaches_ce():
    gce = GeneralizedCrossEntropy(q=1e-4)
    ce = CrossEntropy()
    rng = np.random.default_rng(103)
    for trial in range(50):
        yhat, y = interior_input(rng, 6)
        assert abs(gce.value(yhat, y) - ce.value(yhat, y)) < 1e-3


def test_label_smoothing_zero_is_ce():
    ls = LabelSmoothing(epsilon=0.0)
    ce = CrossEntropy()
    rng = np.random.default_rng(107)
    for trial in range(50):
        yhat, y = interior_input(rng, 5)
        assert ls.value(yhat, y) == ce.value(yhat, y)
        np.testing.assert_array_equal(ls.grad(yhat, y), ce.grad(yhat, y))


def test_bootstrap_weight_one_is_ce():
    ce = CrossEntropy()
    rng = np.random.default_rng(109)
    for hard in (False, True):
        bs = Bootstrap(weight=1.0, hard=hard)
        for trial in range(50):
            yhat, y = interior_input(rng, 5)
            assert bs.value(yhat, y) == pytest.approx(ce.value(yhat, y), abs=1e-15)
            np.testing.assert_allclose(bs.grad(yhat, y), ce.grad(yhat, y), atol=1e-15)


def test_batch_matches_per_sample():
    rng = np.random.default_rng(113)
    yhats, ys = zip(*(interior_input(rng, 4) for _ in range(8)))
    yhat = np.stack(yhats)
    y = np.stack(ys)
    for loss in ALL_LOSSES.values():
        batch = loss.batch_value(yhat, y)
        assert batch.shape == (8,)
        for i in range(8):
            assert batch[i] == pytest.approx(loss.value(yhat[i], y[i]), abs=1e-14)
        grads = loss.batch_grad(yhat, y)
        assert grads.shape == (8, 4)


def test_value_and_grad_take_one_example():
    yhat = np.array([[0.9, 0.1], [0.1, 0.9]])
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    for loss in (*ALL_LOSSES.values(), mse_embedding()):
        for rows in (yhat, yhat[:0]):  # two rows, no rows
            with pytest.raises(ValueError, match=f"one example, got {len(rows)} rows"):
                loss.value(rows, y[: len(rows)])
            with pytest.raises(ValueError, match=f"one example, got {len(rows)} rows"):
                loss.grad(rows, y[: len(rows)])
        assert loss.value(yhat[:1], y[:1]) == loss.value(yhat[0], y[0])
        assert np.array_equal(loss.grad(yhat[:1], y[:1]), loss.batch_grad(yhat, y)[0])


def test_parameter_validation():
    with pytest.raises(ValueError, match="q"):
        GeneralizedCrossEntropy(q=0.0)
    with pytest.raises(ValueError, match="q"):
        GeneralizedCrossEntropy(q=1.5)
    with pytest.raises(ValueError, match="epsilon"):
        LabelSmoothing(epsilon=1.0)
    with pytest.raises(ValueError, match="weight"):
        Bootstrap(weight=-0.1)
    with pytest.raises(ValueError):
        SymmetricCrossEntropy(alpha=0.0)
    with pytest.raises(ValueError):
        SymmetricCrossEntropy(log_zero=1.0)


@pytest.mark.parametrize(
    "cls, option, value",
    [
        (GeneralizedCrossEntropy, "q", True),
        (SymmetricCrossEntropy, "alpha", math.inf),
        (SymmetricCrossEntropy, "beta", math.nan),
        (SymmetricCrossEntropy, "log_zero", math.nan),
        (LabelSmoothing, "epsilon", False),
        (Bootstrap, "weight", True),
        (Bootstrap, "hard", 0.5),
    ],
    ids=["gce-q", "sce-alpha", "sce-beta", "sce-log_zero", "ls-epsilon", "bootstrap-weight",
         "bootstrap-hard"],
)
def test_options_are_type_checked_like_config_fields(cls, option, value):
    # a bool is no number, NaN and infinity pass no range check, 0.5 is no flag
    kind = "true or false" if option == "hard" else "a finite number"
    with pytest.raises(ValueError, match=f"^{option} must be {kind}, got {value}$"):
        cls(**{option: value})


def test_factory():
    assert make_reference_loss("gce", q=0.5) == GeneralizedCrossEntropy(q=0.5)
    with pytest.raises(ValueError, match="unknown reference loss"):
        make_reference_loss("dice")


def test_clamp_keeps_log_losses_finite():
    y = np.array([1.0, 0.0])
    yhat = np.array([0.0, 1.0])
    for loss in ALL_LOSSES.values():
        assert np.isfinite(loss.value(yhat, y))
        assert np.all(np.isfinite(loss.grad(yhat, y)))


# ---------------------------------------------------------------------------
# One-hot oracles: each loss's formula over (n, C) label rows, as it was
# written before the losses took label indices
# ---------------------------------------------------------------------------


def ce_oracle(loss, yhat, y):
    p = np.clip(yhat, LOG_CLAMP, 1.0)
    return -(y * np.log(p)).sum(axis=1), -y / p


def mae_oracle(loss, yhat, y):
    return np.abs(yhat - y).sum(axis=1), np.sign(yhat - y)


def gce_oracle(loss, yhat, y):
    p_t = np.clip((yhat * y).sum(axis=1), LOG_CLAMP, 1.0)
    return (1.0 - p_t**loss.q) / loss.q, -(p_t ** (loss.q - 1.0))[:, None] * y


def sce_oracle(loss, yhat, y):
    p = np.clip(yhat, LOG_CLAMP, 1.0)
    log_labels = np.where(y > 0.5, 0.0, loss.log_zero)
    ce = -(y * np.log(p)).sum(axis=1)
    rce = -(yhat * log_labels).sum(axis=1)
    grad = loss.alpha * (-y / p) + loss.beta * (-log_labels)
    return loss.alpha * ce + loss.beta * rce, grad


def ls_oracle(loss, yhat, y):
    p = np.clip(yhat, LOG_CLAMP, 1.0)
    targets = (1.0 - loss.epsilon) * y + loss.epsilon / y.shape[1]
    return -(targets * np.log(p)).sum(axis=1), -targets / p


def bootstrap_oracle(loss, yhat, y):
    if loss.hard:
        guess = np.zeros_like(yhat)
        guess[np.arange(len(yhat)), np.argmax(yhat, axis=1)] = 1.0
    else:
        guess = yhat
    targets = loss.weight * y + (1.0 - loss.weight) * guess
    p = np.clip(yhat, LOG_CLAMP, 1.0)
    grad = -targets / p
    if not loss.hard:
        grad = grad - (1.0 - loss.weight) * np.log(p)
    return -(targets * np.log(p)).sum(axis=1), grad


ONE_HOT_ORACLES = {
    CrossEntropy: ce_oracle,
    MeanAbsoluteError: mae_oracle,
    GeneralizedCrossEntropy: gce_oracle,
    SymmetricCrossEntropy: sce_oracle,
    LabelSmoothing: ls_oracle,
    Bootstrap: bootstrap_oracle,
}

# losses linear in the label row: their one-hot formula on a soft row is the mix
LINEAR_IN_LABEL = (CrossEntropy, LabelSmoothing, Bootstrap)


def predictions(seed, n, num_classes):
    rng = np.random.default_rng(seed)
    yhat = rng.dirichlet(np.full(num_classes, 0.5), n)
    yhat[rng.random(yhat.shape) < 0.1] = 0.0  # exact zeros reach the clamp
    return rng, yhat


# C from 2 to 12 spans numpy's switch from left-to-right to pairwise sums at 8
CASES = dict(
    num_classes=st.integers(2, 12), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1)
)


@pytest.mark.parametrize("loss", list(ALL_LOSSES.values()), ids=list(ALL_LOSSES))
@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_indexed_equals_one_hot_oracle(loss, num_classes, n, seed):
    rng, yhat = predictions(seed, n, num_classes)
    labels = rng.integers(0, num_classes, n)
    onehot = np.eye(num_classes)[labels]
    value, grad = loss.indexed(yhat, labels)
    want_value, want_grad = ONE_HOT_ORACLES[type(loss)](loss, yhat, onehot)
    assert np.array_equal(value, want_value)
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(loss.batch_value(yhat, onehot), value)
    assert np.array_equal(loss.batch_grad(yhat, onehot), grad)


@pytest.mark.parametrize("loss", list(ALL_LOSSES.values()), ids=list(ALL_LOSSES))
@settings(max_examples=20, deadline=None)
@given(**CASES)
def test_soft_rows_give_the_label_weighted_mix(loss, num_classes, n, seed):
    rng, yhat = predictions(seed, n, num_classes)
    q = rng.dirichlet(np.full(num_classes, 0.5), n)
    oracle = ONE_HOT_ORACLES[type(loss)]
    parts = [oracle(loss, yhat, np.tile(e_k, (n, 1))) for e_k in np.eye(num_classes)]
    value = sum(q[:, k] * v for k, (v, _) in enumerate(parts))
    grad = sum(q[:, [k]] * g for k, (_, g) in enumerate(parts))
    assert np.array_equal(loss.batch_value(yhat, q), value)
    assert np.array_equal(loss.batch_grad(yhat, q), grad)
    if isinstance(loss, LINEAR_IN_LABEL):
        want_value, want_grad = oracle(loss, yhat, q)
        np.testing.assert_allclose(value, want_value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12)


POLYNOMIALS = {
    "poly": mse_embedding(),
    "poly(normalized)": normalize(mse_embedding(), num_classes=5),
}


@pytest.mark.parametrize(
    "loss", [*ALL_LOSSES.values(), *POLYNOMIALS.values()], ids=[*ALL_LOSSES, *POLYNOMIALS]
)
@settings(max_examples=20, deadline=None)
@given(**CASES)
def test_indexed_without_values_gives_the_same_gradients(loss, num_classes, n, seed):
    rng, yhat = predictions(seed, n, num_classes)
    labels = rng.integers(0, num_classes, n)
    _, grad = loss.indexed(yhat, labels)
    none, lean = loss.indexed(yhat, labels, values=False)
    assert none is None and np.array_equal(lean, grad)


@pytest.mark.parametrize(
    "loss", [*ALL_LOSSES.values(), *POLYNOMIALS.values()], ids=[*ALL_LOSSES, *POLYNOMIALS]
)
def test_label_rows_take_one_indexed_call(loss, monkeypatch):
    # however many classes carry weight, a batch of label rows is one indexed
    # call over its weighted label entries, asking for values only for batch_value
    calls, indexed = [], type(loss).indexed
    monkeypatch.setattr(
        type(loss), "indexed", lambda self, *args: calls.append(args) or indexed(self, *args)
    )
    rng, yhat = predictions(3, 9, 5)
    for rows in (np.eye(5)[rng.integers(0, 5, 9)], rng.dirichlet(np.ones(5), 9)):
        for method, values in ((loss.batch_value, True), (loss.batch_grad, False)):
            calls.clear()
            method(yhat, rows)
            assert len(calls) == 1
            assert len(calls[0][1]) == np.count_nonzero(rows)
            assert calls[0][2] is values
