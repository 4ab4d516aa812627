"""Network engine: init, forward oracles, end-to-end gradients, training."""

import contextlib
import multiprocessing
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslearn import network
from losslearn.bench import curve_to_csv, loss_from_selector
from losslearn.datasets import DatasetSplit, noisy_split, split, synth_blobs
from losslearn.network import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    SGD_BLOCK,
    NetworkSpec,
    ReLU,
    TrainConfig,
    accuracy,
    arch_from_selector,
    cnn_spec,
    fit_many,
    init,
    mlp_spec,
    train,
    _buffer,
    _class_fold,
    _loss_call,
    _sgd_step,
    _softmax,
)
from losslearn.reference import (
    Bootstrap,
    CrossEntropy,
    GeneralizedCrossEntropy,
    LabelSmoothing,
    MeanAbsoluteError,
    SymmetricCrossEntropy,
)
from losslearn.taylor import (
    NormalizedLoss,
    TaylorLossParams,
    _Polynomial,
    coefficient_keys,
    mse_embedding,
    normalize,
)


def tiny_mlp():
    return NetworkSpec((Dense(4, 6), ReLU(), Dense(6, 3)), (4,), 3)


def tiny_cnn():
    layers = (Conv2D(1, 2, 3), ReLU(), MaxPool(2), Flatten(), Dense(8, 3))
    return NetworkSpec(layers, (6, 6, 1), 3)


def tiny_cnn_relu_after_pool():
    # the ReLU clamps the pool's cached output in place
    layers = (Conv2D(1, 2, 3), MaxPool(2), ReLU(), Flatten(), Dense(8, 3))
    return NetworkSpec(layers, (6, 6, 1), 3)


def random_taylor(seed):
    rng = np.random.default_rng(seed)
    return TaylorLossParams(
        expansion_point=tuple(rng.uniform(-0.5, 0.5, 2)),
        coefficients={k: rng.uniform(-1, 1) for k in coefficient_keys(4)},
    )


def train_one(net, loss, data, cfg, curves=False):
    """train for a stack of one under one loss: its (accuracy, fail epoch, curve)."""
    (acc,), (fail_epoch,), (curve,) = train(net, [loss], data, cfg, curves)
    return acc, fail_epoch, curve


def fit(spec, loss, data, init_seed, cfg, curves=False):
    """fit_many for one loss: its (accuracy, fail epoch, curve)."""
    (acc,), (fail_epoch,), (curve,) = fit_many(spec, [loss], data, init_seed, cfg, curves)
    return acc, fail_epoch, curve


def make_split(x_train, y_train, x_val, y_val, num_classes):
    return DatasetSplit(
        train_features=np.asarray(x_train, dtype=float),
        train_labels=np.asarray(y_train, dtype=np.int64),
        val_features=np.asarray(x_val, dtype=float),
        val_labels=np.asarray(y_val, dtype=np.int64),
        train_indices=np.arange(len(y_train)),
        val_indices=np.arange(len(y_val)),
        num_classes=num_classes,
    )


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_mismatched_dense():
    with pytest.raises(ValueError, match="layer 1"):
        NetworkSpec((Dense(4, 6), Dense(5, 3)), (4,), 3)


def test_spec_rejects_wrong_final_width():
    with pytest.raises(ValueError, match="expected 3 classes"):
        NetworkSpec((Dense(4, 5),), (4,), 3)


def test_spec_rejects_bad_pool():
    with pytest.raises(ValueError, match="divisible"):
        NetworkSpec((Conv2D(1, 2, 3), MaxPool(3), Flatten(), Dense(2, 2)), (6, 6, 1), 2)


def test_spec_rejects_conv_on_flat_input():
    with pytest.raises(ValueError, match="H, W, ch"):
        NetworkSpec((Conv2D(1, 2, 3),), (16,), 2)


def test_spec_takes_its_input_shape_as_a_tuple():
    with pytest.raises(ValueError, match=r"^input_shape must be \(d,\) or \(H, W, ch\), got 4$"):
        NetworkSpec((Dense(4, 3),), 4, 3)
    assert (tiny_mlp().row_width, tiny_cnn().row_width) == (6, 36)


@pytest.mark.parametrize(
    "layers, input_shape, message",
    [
        ((Conv2D(1, 2, 3), Conv2D(3, 2, 3)), (8, 8, 1), "expects 3 channels"),
        ((Conv2D(1, 2, 3), Conv2D(2, 2, 5)), (6, 6, 1), "kernel 5 too large"),
        ((Dense(4, 4), Flatten()), (4,), "input is already flat"),
        ((Conv2D(1, 2, 3), Dense(32, 2)), (6, 6, 1), "needs a flat input"),
    ],
)
def test_spec_names_the_failing_layer(layers, input_shape, message):
    name = type(layers[1]).__name__
    with pytest.raises(ValueError, match=rf"^layer 1 \({name}\): {message}"):
        NetworkSpec(layers, input_shape, 2)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_deterministic():
    a = init(tiny_mlp(), seed=42)
    b = init(tiny_mlp(), seed=42)
    np.testing.assert_array_equal(a.theta, b.theta)
    c = init(tiny_mlp(), seed=43)
    assert np.any(a.theta != c.theta)


def test_parameter_counts():
    spec = NetworkSpec((Dense(784, 256), ReLU(), Dense(256, 10)), (784,), 10)
    net = init(spec, 0)
    assert net.num_parameters == 784 * 256 + 256 + 256 * 10 + 10


def test_biases_start_zero():
    net = init(tiny_mlp(), seed=1)
    for views in net._views(net.theta):
        if "b" in views:
            assert np.all(views["b"] == 0.0)


def test_init_bounded_by_fan_in():
    net = init(tiny_mlp(), seed=2)
    w1 = net._views(net.theta)[0]["w"]
    assert np.max(np.abs(w1)) <= np.sqrt(6.0 / 4)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def test_zero_parameters_give_uniform_rows():
    net = init(tiny_mlp(), seed=3)
    net.theta[:] = 0.0
    probs = net.forward(np.random.default_rng(0).random((5, 4)))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)


def test_rows_on_simplex():
    net = init(tiny_mlp(), seed=4)
    probs = net.forward(np.random.default_rng(1).random((20, 4)))[0]
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_forward_matches_matrix_oracle():
    net = init(tiny_mlp(), seed=5)
    x = np.random.default_rng(2).random((7, 4))
    v = net._views(net.theta[0])
    # straight-line arithmetic, no shared code paths
    z1 = x @ v[0]["w"] + v[0]["b"]
    a1 = np.where(z1 > 0, z1, 0.0)
    z2 = a1 @ v[2]["w"] + v[2]["b"]
    e = np.exp(z2 - z2.max(axis=1, keepdims=True))
    oracle = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(net.forward(x)[0], oracle, atol=1e-6)


def test_conv_matches_loop_oracle():
    spec = NetworkSpec((Conv2D(2, 3, 3), Flatten(), Dense(2 * 2 * 3, 2)), (4, 4, 2), 2)
    net = init(spec, seed=6)
    rng = np.random.default_rng(3)
    net.theta[:] = rng.uniform(-1, 1, net.theta.size)
    x = rng.random((2, 4, 4, 2))
    w = net._views(net.theta[0])[0]["w"]  # (3, 3, 2, 3)
    b = net._views(net.theta[0])[0]["b"]
    oracle = np.zeros((2, 2, 2, 3))
    for n in range(2):
        for i in range(2):
            for j in range(2):
                for o in range(3):
                    acc = 0.0
                    for di in range(3):
                        for dj in range(3):
                            for ch in range(2):
                                acc += x[n, i + di, j + dj, ch] * w[di, dj, ch, o]
                    oracle[n, i, j, o] = acc + b[o]
    out, _ = spec.layers[0].forward(net._views(net.theta[0])[0], x, {})
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def conv_grad_oracle(conv, w, x, dy):
    """dL/dw, dL/db and dL/dx of one member, summed window by window over the
    output positions: (n, H, W, in_ch) x and (n, oh, ow, out_ch) dy."""
    k = conv.kernel
    dw, dx = np.zeros(w.shape), np.zeros(x.shape)
    for p in range(dy.shape[1]):
        for q in range(dy.shape[2]):
            window = x[:, p : p + k, q : q + k, :]
            dw += np.einsum("nijc,no->ijco", window, dy[:, p, q])
            dx[:, p : p + k, q : q + k, :] += np.einsum("no,ijco->nijc", dy[:, p, q], w)
    return dw, dy.sum(axis=(0, 1, 2)), dx


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("conv, side, shared", [
    # the CNN's conv1, as the first layer on the batch the stack shares (no
    # input gradient is asked of it there) and on each member's own input
    (Conv2D(1, 32, 5), 28, True),
    (Conv2D(1, 32, 5), 28, False),
    (Conv2D(32, 64, 5), 12, False),  # its conv2
])
def test_conv_gradients_match_loop_oracle_at_the_cnn_shapes(conv, side, shared, members):
    rng = np.random.default_rng(31)
    k, n, out = conv.kernel, 2, side - conv.kernel + 1
    params = {"w": rng.normal(0, 0.1, (members, k, k, conv.in_ch, conv.out_ch)),
              "b": rng.normal(0, 0.1, (members, conv.out_ch))}
    lead = () if shared else (members,)
    x = rng.normal(0, 1, lead + (n, side, side, conv.in_ch))
    dy = rng.normal(0, 1, (members, n, out, out, conv.out_ch))
    _, cache = conv.forward(params, x, {})
    grads = {name: np.empty(a.shape) for name, a in params.items()}
    conv.param_grad(grads, cache, dy)
    dx = None if shared else conv.input_grad(params, cache, dy, {})
    for m in range(members):
        own_x = x if shared else x[m]
        want_w, want_b, want_x = conv_grad_oracle(conv, params["w"][m], own_x, dy[m])
        np.testing.assert_allclose(grads["w"][m], want_w, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grads["b"][m], want_b, rtol=1e-10, atol=1e-10)
        if dx is not None:
            np.testing.assert_allclose(dx[m], want_x, rtol=1e-10, atol=1e-10)


def test_cnn_pool_before_relu_is_bit_identical_to_relu_before_pool():
    # max pooling commutes with ReLU, ties and all-negative tiles included:
    # flat patches give tied conv outputs, negative ones on about half the channels
    spec = cnn_spec(28, 10)
    layers = list(spec.layers)
    assert [type(layer) for layer in layers[:6]] == [Conv2D, MaxPool, ReLU] * 2
    layers[1:3], layers[4:6] = layers[2:0:-1], layers[5:3:-1]
    relu_first = NetworkSpec(tuple(layers), spec.input_shape, spec.num_classes)
    rng = np.random.default_rng(32)
    x = rng.random((6, 28, 28, 1))
    x[:3, :14, :14] = 0.5  # a flat quarter
    x[3:, 10:26, 4:20] = 0.0  # a dark square
    nets = [init(s, seed=33, members=2) for s in (spec, relu_first)]
    offset = rng.normal(0, 0.01, nets[0].num_parameters)  # the second member apart
    probs, grads = [], []
    for net in nets:
        net.theta[1] += offset
        for views in net._theta_views:
            if "b" in views:
                b = views["b"]
                b[...] = np.linspace(-0.05, 0.05, b.size).reshape(b.shape)
        p, cache = net._forward_cache(x, [{} for _ in net.spec.layers])
        dprobs = np.random.default_rng(34).normal(0, 1, p.shape)
        probs.append(p.copy())
        grads.append(net._gradient(cache, dprobs, [{} for _ in net.spec.layers]).copy())
    conv1, _ = spec.layers[0].forward(nets[0]._theta_views[0], x, {})
    tiles = conv1.reshape(2, 6, 12, 2, 12, 2, 32).transpose(0, 1, 2, 4, 6, 3, 5).reshape(-1, 4)
    assert (tiles.max(axis=1) < 0).sum() > 1000  # all-negative tiles
    assert ((tiles == tiles.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum() > 1000  # ties
    assert np.array_equal(probs[0], probs[1])
    assert np.array_equal(grads[0], grads[1])
    assert np.array_equal(np.signbit(grads[0]), np.signbit(grads[1]))


def test_blocked_sgd_update_equals_the_whole_vector_formula():
    spec = arch_from_selector("mlp:200", (200,), 3)
    rng = np.random.default_rng(35)
    x, y = rng.normal(0, 1, (16, 200)), rng.integers(0, 3, 16)
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9)
    blocked, whole = init(spec, seed=36, members=2), init(spec, seed=36, members=2)
    assert blocked.num_parameters > SGD_BLOCK  # a full block and a partial one
    losses = [CrossEntropy(), MeanAbsoluteError()]
    call, bufs = _loss_call(losses), [{} for _ in spec.layers]
    for _ in range(3):
        _sgd_step(blocked, call, x, y, cfg, bufs, False)
        probs, cache = whole._forward_cache(x, [{} for _ in spec.layers])
        _, dprobs = call(probs, y, False)
        dprobs /= len(x)
        grad = whole._gradient(cache, dprobs, [{} for _ in spec.layers])
        whole.momentum *= cfg.momentum
        whole.momentum += grad
        whole.theta -= cfg.learning_rate * whole.momentum
        assert np.array_equal(blocked.momentum, whole.momentum)
        assert np.array_equal(blocked.theta, whole.theta)


def test_pool_matches_loop_oracle():
    rng = np.random.default_rng(4)
    x = rng.random((3, 4, 4, 2))
    out, _ = MaxPool(2).forward({}, x, {})
    for n in range(3):
        for i in range(2):
            for j in range(2):
                for c in range(2):
                    window = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
                    assert out[n, i, j, c] == window.max()


def argmax_pool(x, s):
    """The argmax pooling the strided fold replaced: output and the winners."""
    *lead, h, w, ch = x.shape
    oh, ow = h // s, w // s
    tiles = x.reshape(-1, oh, s, ow, s, ch).transpose(0, 1, 3, 2, 4, 5)
    tiles = tiles.reshape(-1, oh, ow, s * s, ch)
    best = np.argmax(tiles, axis=3)
    out = np.take_along_axis(tiles, best[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out.reshape(tuple(lead) + out.shape[1:]), best


def argmax_pool_grad(x_shape, s, best, dy):
    oh, ow, ch = dy.shape[-3:]
    dy = dy.reshape(-1, oh, ow, ch)
    dtiles = np.zeros((len(dy), oh, ow, s * s, ch))
    np.put_along_axis(dtiles, best[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    dtiles = dtiles.reshape(-1, oh, ow, s, s, ch).transpose(0, 1, 3, 2, 4, 5)
    return dtiles.reshape(x_shape)


@dataclass(frozen=True)
class ArgmaxPool(MaxPool):
    def forward(self, params, x, buf):
        out, best = argmax_pool(x, self.size)
        return out, (x.shape, best)

    def input_grad(self, params, cache, dy, buf):
        x_shape, best = cache
        return argmax_pool_grad(x_shape, self.size, best, dy)


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(2, 3),
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    tiles=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    relu_after=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_equals_argmax_pool(size, lead, tiles, relu_after, seed):
    rng = np.random.default_rng(seed)
    oh, ow, ch = tiles
    shape = tuple(lead) + (oh * size, ow * size, ch)
    # one decimal makes ties; ReLU zeros and negated zeros give tied signed zeros
    x = np.round(rng.normal(0, 1, shape), 1)
    x = np.where(rng.random(shape) < 0.3, np.maximum(x, 0.0), x)
    x = np.where(rng.random(shape) < 0.2, -0.0, x)
    pool = MaxPool(size)
    out, cache = pool.forward({}, x, {})
    want, best = argmax_pool(x, size)
    assert np.array_equal(out, want)
    assert np.array_equal(np.signbit(out), np.signbit(want))

    dy = rng.normal(0, 1, out.shape)
    if relu_after:  # ReLU clamps the cached output in place and masks dy alike
        np.maximum(out, 0.0, out=out)
        dy *= out > 0.0
    # dy * False leaves -0 where the oracle writes +0: values are compared
    assert np.array_equal(
        pool.input_grad({}, cache, dy, {}), argmax_pool_grad(x.shape, size, best, dy)
    )


@pytest.mark.parametrize("size", [2, 3])
def test_pool_keeps_a_nan_in_its_tile(size):
    # example k is one tile with a NaN at position k; the last has none
    x = np.ones((size * size + 1, size, size, 1))
    for k in range(size * size):
        x[k, k // size, k % size, 0] = np.nan
    out, _ = MaxPool(size).forward({}, x, {})
    assert np.isnan(argmax_pool(x, size)[0]).ravel().tolist() == [True] * size**2 + [False]
    assert np.isnan(out).ravel().tolist() == [True] * size**2 + [False]


@pytest.mark.parametrize("relu_after_pool", [False, True])
@pytest.mark.parametrize("init_seed", [0, 1, 2])
def test_training_with_the_fold_equals_argmax_pooling(relu_after_pool, init_seed):
    rng = np.random.default_rng(28)
    images = rng.random((40, 8, 8, 1))
    sp = make_split(images[:30], np.arange(30) % 3, images[30:], np.arange(10) % 3, 3)

    def run(pool):
        block = (pool, ReLU()) if relu_after_pool else (ReLU(), pool)
        spec = NetworkSpec((Conv2D(1, 3, 3), *block, Flatten(), Dense(27, 3)), (8, 8, 1), 3)
        losses = [CrossEntropy(), normalized_member(8, eta=8.0)]
        cfg = TrainConfig(epochs=2, batch_size=8)
        net = init(spec, init_seed, 2)
        _, _, curves = train(net, losses, sp, cfg, curves=True)
        return curves, net.theta

    (got_curves, got_theta), (want_curves, want_theta) = run(MaxPool(2)), run(ArgmaxPool(2))
    assert got_curves == want_curves
    assert np.array_equal(got_theta, want_theta)


def test_forward_rejects_wrong_shape():
    net = init(tiny_mlp(), seed=7)
    with pytest.raises(ValueError, match="does not match"):
        net.forward(np.zeros((2, 5)))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    z = rng.normal(0, 3, (10, 6))
    shifted = z + rng.normal(0, 10, (10, 1))
    np.testing.assert_allclose(_softmax(z), _softmax(shifted), atol=1e-6)


@pytest.mark.parametrize("num_classes", range(2, 17))
def test_class_axis_folds_keep_numpy_bits(num_classes):
    # the column folds stand in for numpy's own class-axis reductions, so a
    # numpy that sums in another order must fail here, not change artifacts
    rng = np.random.default_rng(num_classes)
    shape = (4, 50, num_classes)
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5, shape)
    assert np.array_equal(_class_fold(np.add, x), x.sum(axis=-1))
    assert np.array_equal(_class_fold(np.maximum, x), x.max(axis=-1))
    logits = rng.normal(0, 3, shape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert np.array_equal(_softmax(logits), e / e.sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# End-to-end gradient checks
# ---------------------------------------------------------------------------

LOSSES = [
    CrossEntropy(),
    MeanAbsoluteError(),
    GeneralizedCrossEntropy(),
    SymmetricCrossEntropy(),
    LabelSmoothing(),
    Bootstrap(),
    Bootstrap(weight=0.8, hard=True),
    mse_embedding(),
    random_taylor(900),
    NormalizedLoss(inner=random_taylor(901), eta=2.0),
]


def batch_objective(net, loss, x, labels):
    return float(np.mean(loss.indexed(net.forward(x)[0], labels)[0]))


def fd_param_grad(net, loss, x, labels, h=1e-6):
    theta = net.theta[0]  # the one member's row, a view
    g = np.zeros_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + h
        up = batch_objective(net, loss, x, labels)
        theta[i] = saved - h
        dn = batch_objective(net, loss, x, labels)
        theta[i] = saved
        g[i] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
@pytest.mark.parametrize(
    "make_spec",
    [tiny_mlp, tiny_cnn, tiny_cnn_relu_after_pool],
    ids=["mlp", "cnn", "cnn-relu-after-pool"],
)
def test_parameter_gradients_match_fd(make_spec, loss):
    spec = make_spec()
    net = init(spec, seed=11)
    assert net.num_parameters <= 200
    rng = np.random.default_rng(12)
    x = rng.random((5,) + spec.input_shape)
    labels = rng.integers(0, spec.num_classes, 5)

    bufs = [{} for _ in spec.layers]
    probs, cache = net._forward_cache(x, bufs)
    analytic = net._gradient(cache, loss.indexed(probs[0], labels)[1] / 5, bufs)[0].copy()
    fd = fd_param_grad(net, loss, x, labels)
    denom = max(np.linalg.norm(fd), 1e-10)
    assert np.linalg.norm(analytic - fd) / denom < 1e-4


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", True), ("epochs", 2.0), ("seed", "1"), ("learning_rate", None),
     ("learning_rate", float("nan")), ("momentum", float("inf"))],
)
def test_train_config_checks_field_types(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an? (integer|finite number), got"):
        TrainConfig(**{field: value})


def test_zero_learning_rate_changes_nothing():
    ds = synth_blobs(3, 30, seed=8)
    sp = split(ds, val_fraction=0.2, seed=8)
    net = init(mlp_spec(2, [8], 3), seed=9)
    before = net.theta.copy()
    (base_acc,) = accuracy(net, sp.val_features, sp.val_labels)
    acc, fail_epoch, _ = train_one(
        net, CrossEntropy(), sp, TrainConfig(learning_rate=0.0, epochs=3, seed=1)
    )
    np.testing.assert_array_equal(net.theta, before)
    assert (acc, fail_epoch) == (base_acc, 0)


def test_one_step_matches_hand_backprop():
    spec = mlp_spec(3, [], 2)
    net = init(spec, seed=13)
    w = net._views(net.theta[0])[0]["w"].copy()
    b = net._views(net.theta[0])[0]["b"].copy()
    x = np.array([[0.2, 0.5, 0.3]])
    label = np.array([1])
    sp = make_split(x, label, x, label, 2)
    loss = mse_embedding()
    lr, mom = 0.01, 0.9

    # hand-rolled: two epochs of single-example SGD with momentum
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    for _ in range(2):
        z = x @ w + b
        e = np.exp(z - z.max())
        p = e / e.sum()
        y = np.array([[0.0, 1.0]])
        g = p - y  # d/dp of (sum((p-y)^2) - sum(y^2))/C with C=2
        dz = p * (g - (g * p).sum())
        vw = mom * vw + x.T @ dz
        vb = mom * vb + dz[0]
        w = w - lr * vw
        b = b - lr * vb

    cfg = TrainConfig(learning_rate=lr, momentum=mom, batch_size=1, epochs=2, seed=0)
    train_one(net, loss, sp, cfg)
    np.testing.assert_allclose(net._views(net.theta[0])[0]["w"], w, atol=1e-8)
    np.testing.assert_allclose(net._views(net.theta[0])[0]["b"], b, atol=1e-8)


def test_cached_views_follow_in_place_updates():
    net = init(tiny_mlp(), seed=1)
    other = init(tiny_mlp(), seed=2)
    x = np.random.default_rng(3).random((5, 4))
    net.theta[:] = other.theta
    np.testing.assert_array_equal(net.forward(x), other.forward(x))

    ds = synth_blobs(3, 10, seed=4)
    x4 = np.hstack([ds.features, ds.features])  # tiny_mlp takes 4 inputs
    sp = make_split(x4, ds.labels, x4, ds.labels, 3)
    before = net.theta.copy()
    train_one(net, CrossEntropy(), sp, TrainConfig(learning_rate=0.1, batch_size=len(x4), epochs=1))
    assert np.any(net.theta != before)  # one batch, one epoch: a single SGD step
    for cached, fresh in zip(net._theta_views, net._views(net.theta)):
        assert cached.keys() == fresh.keys()
        for name in fresh:
            np.testing.assert_array_equal(cached[name], fresh[name])


def test_training_deterministic():
    ds = synth_blobs(3, 40, seed=10)
    sp = split(ds, val_fraction=0.25, seed=10)
    cfg = TrainConfig(epochs=4, batch_size=16, seed=21)
    nets = [init(mlp_spec(2, [16], 3), seed=20) for _ in range(2)]
    (_, _, c1), (_, _, c2) = [train_one(n, CrossEntropy(), sp, cfg, curves=True) for n in nets]
    assert len(c1) == 4 and c1 == c2
    np.testing.assert_array_equal(nets[0].theta, nets[1].theta)


def test_separable_blobs_reach_high_accuracy():
    ds = synth_blobs(2, 250, spread=0.15, seed=11)
    sp = split(ds, val_fraction=0.2, seed=11)
    net = init(mlp_spec(2, [32], 2), seed=12)
    acc, fail_epoch, _ = train_one(
        net, CrossEntropy(), sp, TrainConfig(epochs=20, batch_size=32, seed=13)
    )
    assert fail_epoch == 0
    assert acc > 0.95


def test_three_class_blobs_regression():
    ds = synth_blobs(3, 500, spread=0.5, seed=12)
    sp = split(ds, val_fraction=0.2, seed=12)
    net = init(mlp_spec(2, [32], 3), seed=14)
    acc, _, _ = train_one(net, CrossEntropy(), sp, TrainConfig(epochs=20, batch_size=32, seed=15))
    assert acc >= 0.9


def test_loss_scale_learning_rate_equivalence():
    class Scaled:
        def __init__(self, inner, k):
            self.inner = inner
            self.k = k

        def indexed(self, yhat, labels):
            values, grads = self.inner.indexed(yhat, labels)
            return self.k * values, self.k * grads

    ds = synth_blobs(3, 50, seed=13)
    sp = split(ds, val_fraction=0.2, seed=13)
    k = 4.0  # power of two so the float trajectories agree exactly
    base_net, scaled_net = init(mlp_spec(2, [8], 3), seed=30), init(mlp_spec(2, [8], 3), seed=30)
    _, _, base = train_one(
        base_net,
        CrossEntropy(),
        sp,
        TrainConfig(learning_rate=0.01, epochs=5, batch_size=8, seed=31),
        curves=True,
    )
    _, _, scaled = train_one(
        scaled_net,
        Scaled(CrossEntropy(), k),
        sp,
        TrainConfig(learning_rate=0.01 / k, epochs=5, batch_size=8, seed=31),
        curves=True,
    )
    np.testing.assert_array_equal(base_net.theta, scaled_net.theta)
    assert len(base) == len(scaled) == 5
    for (e1, _, a1), (e2, _, a2) in zip(base, scaled):
        assert (e1, a1) == (e2, a2)


def test_divergence_flagged_not_thrown():
    ds = synth_blobs(2, 20, seed=14)
    sp = split(ds, val_fraction=0.2, seed=14)
    net = init(mlp_spec(2, [8], 2), seed=15)
    acc, fail_epoch, _ = train_one(
        net, CrossEntropy(), sp, TrainConfig(learning_rate=1e160, epochs=5, seed=16)
    )
    assert acc == 0.0 and 1 <= fail_epoch <= 5
    assert net.theta.shape == (0, net.num_parameters)  # the diverged member left the stack


def fit_problem():
    sp = split(synth_blobs(3, 40, seed=18), val_fraction=0.25, seed=18)
    return mlp_spec(2, [8], 3), sp


def test_fit_scores_the_trained_network():
    spec, sp = fit_problem()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=19)
    acc, fail_epoch, curve = fit(spec, CrossEntropy(), sp, 20, cfg, curves=True)
    net = init(spec, 20)
    _, _, trained = train_one(net, CrossEntropy(), sp, cfg, curves=True)
    assert len(curve) == 3 and (fail_epoch, curve) == (0, trained)
    assert [acc] == accuracy(net, sp.val_features, sp.val_labels)
    assert fit(spec, CrossEntropy(), sp, 20, cfg) == (acc, 0, [])


def test_fit_without_epochs_scores_the_initial_network():
    spec, sp = fit_problem()
    (want,) = accuracy(init(spec, 20), sp.val_features, sp.val_labels)
    for curves in (False, True):
        assert fit(spec, CrossEntropy(), sp, 20, TrainConfig(epochs=0), curves) == (want, 0, [])


def test_fit_scores_a_diverged_network_zero():
    class Exploding:
        def indexed(self, yhat, labels):
            grads = np.zeros(yhat.shape)
            grads[np.arange(len(labels)), labels] = -np.inf
            return np.zeros(len(labels)), grads

    spec, sp = fit_problem()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=19)
    acc, fail_epoch, curve = fit(spec, Exploding(), sp, 20, cfg, curves=True)
    assert (acc, fail_epoch) == (0.0, 1)
    assert curve == train_one(init(spec, 20), Exploding(), sp, cfg, curves=True)[2]
    assert fit(spec, Exploding(), sp, 20, cfg) == (0.0, 1, [])


def test_curve_csv_format():
    csv = curve_to_csv([(1, 2.3025851, 0.5), (2, 1.0, 0.875)])
    assert csv == (
        "epoch,train_loss,val_accuracy\n"
        "1,2.302585,0.500000\n"
        "2,1.000000,0.875000\n"
    )


# ---------------------------------------------------------------------------
# Accuracy
# ---------------------------------------------------------------------------


def test_accuracy_all_correct():
    net = init(mlp_spec(3, [], 3), seed=17)
    v = net._views(net.theta)[0]
    v["w"][...] = np.eye(3) * 10.0
    x = np.eye(3)
    assert accuracy(net, x, np.array([0, 1, 2])) == [1.0]


def test_accuracy_tie_breaks_to_lowest_index():
    net = init(tiny_mlp(), seed=18)
    net.theta[:] = 0.0  # uniform predictions everywhere
    x = np.random.default_rng(6).random((8, 4))
    assert accuracy(net, x, np.zeros(8, dtype=int)) == [1.0]
    assert accuracy(net, x, np.ones(8, dtype=int)) == [0.0]


def test_accuracy_counts_matches():
    net = init(mlp_spec(3, [], 3), seed=19)
    v = net._views(net.theta)[0]
    v["w"][...] = np.eye(3) * 10.0
    # 10 one-hot inputs; 7 labels match the argmax, 3 do not
    rows = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1, 2, 0]]
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 2, 0, 1])
    assert accuracy(net, rows, labels) == [pytest.approx(0.7)]


@pytest.mark.parametrize("members", [1, 3, 8])
def test_stacked_accuracy_equals_member_by_member(members):
    # 301 rows: neither 3 nor 8 divides them, so the last chunk is short
    rng = np.random.default_rng(members)
    net = init(tiny_mlp(), seed=7, members=members)
    net.theta += rng.normal(0, 0.5, net.theta.shape)
    x = rng.normal(size=(301, 4))
    labels = rng.integers(0, 3, 301)
    scores = accuracy(net, x, labels)

    def member(k):  # a stack of one holding row k
        one = init(tiny_mlp(), seed=7)
        one.theta[0] = net.theta[k]
        return one

    assert scores == [accuracy(member(k), x, labels)[0] for k in range(members)]


def test_accuracy_rejects_empty():
    net = init(tiny_mlp(), seed=20)
    with pytest.raises(ValueError, match="empty"):
        accuracy(net, np.zeros((0, 4)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# Input rows and selectors
# ---------------------------------------------------------------------------


def test_flatten_first_mlp_trains_as_on_flat_rows():
    # a dense network on image rows starts with Flatten, which has no
    # parameters: the init, every step and every score are those on flat rows
    rng = np.random.default_rng(30)
    images = rng.random((40, 3, 3, 1))
    labels = rng.integers(0, 3, 40)
    rows = images.reshape(40, 9)
    spec = arch_from_selector("mlp:4", (3, 3, 1), 3)
    assert spec.layers[0] == Flatten() and spec.input_shape == (3, 3, 1)
    cfg = TrainConfig(epochs=3, batch_size=8, seed=31)
    nets = [init(spec, seed=32), init(mlp_spec(9, [4], 3), seed=32)]
    curves = [
        train_one(net, CrossEntropy(),
                  make_split(x[:30], labels[:30], x[30:], labels[30:], 3), cfg, curves=True)[2]
        for net, x in zip(nets, (images, rows))
    ]
    assert len(curves[0]) == 3
    assert np.array_equal(curves[0], curves[1])
    assert np.array_equal(nets[0].theta, nets[1].theta)


def test_backward_pass_stops_at_the_lowest_layer_with_parameters(monkeypatch):
    # below the first Dense only the parameter-free Flatten is left, so no
    # gradient with respect to the input batch is worked out
    called = []
    input_grad = Dense.input_grad

    def spy(self, *args):
        called.append(self)
        return input_grad(self, *args)

    monkeypatch.setattr(Dense, "input_grad", spy)
    spec = arch_from_selector("mlp:4", (3, 3, 1), 3)
    x = np.random.default_rng(33).random((8, 3, 3, 1))
    y = np.arange(8) % 3
    train_one(init(spec, seed=34), CrossEntropy(), make_split(x, y, x, y, 3),
              TrainConfig(epochs=1, batch_size=8))
    assert called == [Dense(4, 3)]


def test_train_and_accuracy_take_rows_of_exactly_the_input_shape():
    # no channel is made up and no row reshaped, and image rows do not
    # flatten themselves for a flat network
    cases = [((6, 6, 1), shape) for shape in ((4, 4, 1), (6, 6), (36,))] + [((9,), (3, 3, 1))]
    labels = np.array([0, 1, 0, 1])
    for input_shape, row_shape in cases:
        net = init(arch_from_selector("linear", input_shape, 2), seed=35)
        x = np.zeros((4,) + row_shape)
        with pytest.raises(ValueError, match="does not match"):
            train_one(net, CrossEntropy(), make_split(x, labels, x, labels, 2), TrainConfig())
        with pytest.raises(ValueError, match="does not match"):
            accuracy(net, x, labels)


def test_arch_selectors():
    spec = arch_from_selector("mlp:256,256", (784,), 10)
    assert spec.input_shape == (784,)
    assert [l for l in spec.layers if isinstance(l, Dense)][0].out_dim == 256
    assert spec.num_classes == 10
    spec = arch_from_selector("linear", (8, 8, 1), 5)
    assert spec.layers == (Flatten(), Dense(64, 5)) and spec.input_shape == (8, 8, 1)
    spec = arch_from_selector("cnn", (28, 28, 1), 10)
    dense = [l for l in spec.layers if isinstance(l, Dense)]
    assert dense[0] == Dense(1024, 1024)
    with pytest.raises(ValueError, match="unknown architecture"):
        arch_from_selector("transformer", (4,), 2)
    for shape in ((784,), (28, 28), (28, 14, 1)):
        with pytest.raises(ValueError, match="square image"):
            arch_from_selector("cnn", shape, 10)
    for text in ("mlp:", "mlp:8,0", "mlp:-1"):
        with pytest.raises(ValueError, match="hidden widths of at least 1"):
            arch_from_selector(text, (4,), 2)


def test_cnn_trains_on_quadrant_brightness():
    rng = np.random.default_rng(22)
    n = 80
    images = rng.random((n, 16, 16, 1)) * 0.2
    labels = rng.integers(0, 2, n)
    for i in range(n):
        if labels[i] == 0:
            images[i, :8, :8] += 0.8
        else:
            images[i, 8:, 8:] += 0.8
    sp = make_split(images[:60], labels[:60], images[60:], labels[60:], 2)
    net = init(cnn_spec(16, 2), seed=23)
    acc, fail_epoch, _ = train_one(
        net, CrossEntropy(), sp, TrainConfig(epochs=3, batch_size=16, seed=24)
    )
    assert fail_epoch == 0
    assert acc >= 0.8


# ---------------------------------------------------------------------------
# Stacked training: m networks in one loop equal m serial trainings
# ---------------------------------------------------------------------------


def assert_stack_equals_serial(spec, losses, sp, init_seed, cfg):
    """fit_many and a stacked train, with curves and without, against one serial
    fit and train per loss with curves: the same (accuracy, fail epoch, curve)
    per loss, where a survivor scores the last point of its curve, and the
    stack left holding the survivors' serial parameters in order. Returns the
    stacked train's columns with curves."""
    nets = [init(spec, init_seed) for _ in losses]
    serial = [train_one(net, loss, sp, cfg, curves=True) for net, loss in zip(nets, losses)]
    assert serial == [fit(spec, loss, sp, init_seed, cfg, curves=True) for loss in losses]
    for acc, fail_epoch, curve in serial:
        if curve and not fail_epoch:
            assert acc == curve[-1][2]
    survivors = np.concatenate([net.theta for net in nets])  # a diverged net holds no row
    for curves in (False, True):  # the last columns, with curves, are returned
        want = [(acc, fail_epoch, curve if curves else []) for acc, fail_epoch, curve in serial]
        assert list(zip(*fit_many(spec, losses, sp, init_seed, cfg, curves))) == want
        stack = init(spec, init_seed, len(losses))
        columns = train(stack, losses, sp, cfg, curves)
        assert list(zip(*columns)) == want
        assert columns[0].shape == columns[1].shape == (len(losses),)
        assert columns[1].dtype.kind == "i"
        assert np.array_equal(stack.theta, survivors)
    return columns


def normalized_member(seed, eta, num_classes=3, order=4):
    rng = np.random.default_rng(seed)
    params = TaylorLossParams(
        order=order,
        expansion_point=tuple(rng.uniform(-0.5, 0.5, 2)),
        coefficients={k: rng.uniform(-1, 1) for k in coefficient_keys(order)},
    )
    return normalize(params, num_classes=num_classes, eta=eta)


def test_stacked_polynomial_members_equal_serial_fits():
    spec, sp = fit_problem()
    losses = [normalized_member(s, eta=8.0) for s in range(6)]
    losses[3] = normalized_member(3, eta=1e300)  # its first steps overflow
    cfg = TrainConfig(epochs=3, batch_size=16, seed=19)
    _, fail_epoch, curves = assert_stack_equals_serial(spec, losses, sp, 20, cfg)
    assert fail_epoch.tolist() == [0, 0, 0, 1, 0, 0]
    assert curves[3] == []
    assert all(len(curve) == 3 for i, curve in enumerate(curves) if i != 3)


def grid_mix():
    """The benchmark grid's mixed stack on a C = 10 cell: (spec, split, losses, cfg)."""
    sp = noisy_split("blobs:10:12:0.5:dim=8", "sym:0.4", data_seed=1, split_seed=2,
                     val_fraction=0.25)
    spec = arch_from_selector("mlp:64,64", (8,), 10)
    losses = [loss_from_selector(s) for s in (
        "ce", "mae", "gce:q=0.7", "sce", "ls:epsilon=0.1", "bootstrap:weight=0.8:mode=hard"
    )] + [normalized_member(7, eta=8.0, num_classes=10)]
    return spec, sp, losses, TrainConfig(learning_rate=0.1, epochs=2, batch_size=32, seed=3)


def test_stacked_grid_mix_equals_serial_fits():
    spec, sp, losses, cfg = grid_mix()
    assert_stack_equals_serial(spec, losses, sp, 4, cfg)


PACKAGE_LOSSES = (
    CrossEntropy, MeanAbsoluteError, GeneralizedCrossEntropy, SymmetricCrossEntropy,
    LabelSmoothing, Bootstrap, _Polynomial,
)


@pytest.mark.parametrize("curves", [False, True])
def test_mixed_stack_asks_package_losses_for_values_only_with_curves(monkeypatch, curves):
    asked = []
    for cls in PACKAGE_LOSSES:
        def spy(self, yhat, labels, values=True, indexed=cls.indexed):
            asked.append((type(self), values))
            return indexed(self, yhat, labels, values=values)

        monkeypatch.setattr(cls, "indexed", spy)
    spec, sp, losses, cfg = grid_mix()
    train(init(spec, 4, len(losses)), losses, sp, cfg, curves)
    assert {kind for kind, _ in asked} == {type(loss) for loss in losses}
    assert {values for _, values in asked} == {curves}


@dataclass(frozen=True)
class Halved:
    """A plug-in loss whose indexed takes (probs, labels) alone and always gives values."""

    inner: object

    def indexed(self, yhat, labels):
        values, grads = self.inner.indexed(yhat, labels)
        return values / 2, grads / 2


def test_two_argument_plug_in_loss_trains_in_a_mixed_stack():
    spec, sp = fit_problem()
    losses = [
        CrossEntropy(), Halved(GeneralizedCrossEntropy()), normalized_member(13, eta=8.0),
        Halved(normalized_member(14, eta=8.0)), Bootstrap(weight=0.8, hard=True),
    ]
    cfg = TrainConfig(epochs=3, batch_size=16, seed=19)
    _, fail_epoch, curves = assert_stack_equals_serial(spec, losses, sp, 20, cfg)
    assert not fail_epoch.any() and all(len(curve) == 3 for curve in curves)


def test_stacked_mixed_orders_equal_serial_fits():
    # two polynomial orders and reference losses stack as no population, so
    # every member runs through its own indexed call, the polynomial ones too
    spec, sp = fit_problem()
    losses = [
        normalized_member(10, eta=8.0, order=3), CrossEntropy(), normalized_member(11, eta=8.0),
        GeneralizedCrossEntropy(), mse_embedding(), normalized_member(12, eta=1e300, order=3),
    ]
    cfg = TrainConfig(epochs=3, batch_size=16, seed=19)
    _, fail_epoch, _ = assert_stack_equals_serial(spec, losses, sp, 20, cfg)
    assert (fail_epoch > 0).tolist() == [False] * 5 + [True]


def test_mixed_stack_builds_the_polynomial_call_once(monkeypatch):
    built, stacked = [], _Polynomial.stacked

    def counted(losses):
        built.append(len(losses))
        return stacked(losses)

    monkeypatch.setattr(_Polynomial, "stacked", staticmethod(counted))
    spec, sp = fit_problem()
    losses = [CrossEntropy(), normalized_member(9, eta=8.0)]
    for seed in (3, 4):  # the loss keeps its call from one training to the next
        train(init(spec, 20, 2), losses, sp, TrainConfig(epochs=2, batch_size=16, seed=seed))
    assert built == [1]


def assert_stacked_cnn_equals_serial(layers):
    rng = np.random.default_rng(25)
    images = rng.random((40, 8, 8, 1))
    labels = np.arange(40) % 3
    sp = make_split(images[:30], labels[:30], images[30:], labels[30:], 3)
    spec = NetworkSpec(layers, (8, 8, 1), 3)
    losses = [CrossEntropy(), normalized_member(8, eta=8.0)]
    assert_stack_equals_serial(spec, losses, sp, 26, TrainConfig(epochs=2, batch_size=8, seed=27))


def test_stacked_cnn_equals_serial_fits():
    assert_stacked_cnn_equals_serial((
        Conv2D(1, 3, 3), ReLU(), MaxPool(2), Conv2D(3, 4, 2), ReLU(), MaxPool(2),
        Flatten(), Dense(4, 6), ReLU(), Dense(6, 3),
    ))


def test_stacked_cnn_with_relu_after_pool_equals_serial_fits():
    # each ReLU clamps a pool's cached output in place
    assert_stacked_cnn_equals_serial((
        Conv2D(1, 3, 3), MaxPool(2), ReLU(), Conv2D(3, 4, 2), MaxPool(2), ReLU(),
        Flatten(), Dense(4, 6), ReLU(), Dense(6, 3),
    ))


def test_stacked_fit_without_epochs_scores_every_member():
    spec, sp = fit_problem()
    losses = [CrossEntropy(), normalized_member(9, eta=8.0)]
    assert_stack_equals_serial(spec, losses, sp, 20, TrainConfig(epochs=0))
    scored = fit_many(spec, losses, sp, 20, TrainConfig(epochs=0))
    (acc,) = accuracy(init(spec, 20), sp.val_features, sp.val_labels)
    assert list(zip(*scored)) == [(acc, 0, [])] * 2
    accs, fail_epoch, curves = fit_many(spec, [], sp, 20, TrainConfig(epochs=0))
    assert accs.shape == fail_epoch.shape == (0,) and curves == []


def test_stacked_members_are_views_of_one_stack():
    net = init(tiny_mlp(), seed=5, members=3)
    single = init(tiny_mlp(), seed=5)
    assert net.theta.shape == (3, single.num_parameters)
    for k in range(3):
        np.testing.assert_array_equal(net.theta[k], single.theta[0])
    for views, own in zip(net._theta_views, single._theta_views):
        for name in own:
            assert np.shares_memory(views[name], net.theta)
            for k in range(3):
                np.testing.assert_array_equal(views[name][k], own[name][0])
    with pytest.raises(ValueError, match="2 losses for a stack of 3"):
        train(net, [CrossEntropy()] * 2, fit_problem()[1], TrainConfig(epochs=1))


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stacked_validation_peak_memory_stays_near_one_network():
    # validation runs the stack in ceil(n / m)-row chunks: one stacked pass
    # over all 4500 validation rows would hold (m, 4500, 64) activations at once
    sp = noisy_split("blobs:3:6000:0.5", "none", data_seed=1, split_seed=2,
                     val_fraction=0.25)
    assert len(sp.val_labels) == 4500
    spec = arch_from_selector("mlp:64", (2,), 3)
    cfg = TrainConfig(epochs=1, batch_size=128, seed=3)
    losses = [normalized_member(s, eta=8.0) for s in range(8)]

    one = traced_peak(lambda: fit(spec, losses[0], sp, 4, cfg))
    eight = traced_peak(lambda: fit_many(spec, losses, sp, 4, cfg))
    assert eight <= 2 * one


def test_cnn_validation_peak_memory_does_not_grow_with_the_set():
    # conv activations are wide, so validation chunks are bounded by the
    # element budget, not only by ceil(n / m): one chunk held conv2's im2col
    # columns over the whole set
    net = init(cnn_spec(16, 3), seed=6)
    rng = np.random.default_rng(7)
    x, y = rng.random((500, 16, 16, 1)), rng.integers(0, 3, 500)
    half = traced_peak(lambda: accuracy(net, x[:250], y[:250]))
    assert traced_peak(lambda: accuracy(net, x, y)) <= 1.1 * half


def test_buffer_drops_the_old_array_before_allocating_the_new():
    buf = {}

    def reshape():
        _buffer(buf, "y", (1000, 1000))
        _buffer(buf, "y", (600, 1000))

    assert traced_peak(reshape) < 1.1 * 8e6  # one 8 MB array, never both


def test_short_last_batch_adds_no_peak_memory():
    # every Dense buffer changes shape for the short batch; holding the old
    # arrays while the new ones are made raised this peak by about 7%
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(1000, 2)), rng.integers(0, 3, 1000)
    spec = arch_from_selector("mlp:256,256", (2,), 3)
    losses = [normalized_member(s, eta=8.0) for s in range(8)]
    cfg = TrainConfig(epochs=1, batch_size=500, seed=3)

    def run(n):
        sp = make_split(x[:n], y[:n], x[800:], y[800:], 3)
        return traced_peak(lambda: train(init(spec, 4, 8), losses, sp, cfg))

    assert run(800) <= 1.01 * run(500)


@pytest.mark.parametrize(
    "layers, input_shape",
    [((ReLU(), Dense(4, 3)), (4,)), ((Flatten(), ReLU(), Dense(16, 3)), (4, 4, 1))],
)
def test_spec_rejects_a_relu_on_the_input_batch(layers, input_shape):
    # ReLU runs in place, which must never reach the caller's batch
    with pytest.raises(ValueError, match="would overwrite the batch"):
        NetworkSpec(layers, input_shape, 3)


# ---------------------------------------------------------------------------
# The backward pass's worker thread: which layers go to it, bits and errors
# ---------------------------------------------------------------------------


def trained_state(monkeypatch, overlap_work, spec, losses, sp, cfg):
    """theta and momentum bytes of a stack trained with OVERLAP_WORK set, on a
    host taken to have a spare CPU; and how many tasks went to the worker."""
    tasks = []

    class Counted(network.ThreadPoolExecutor):
        def submit(self, run, *args):
            tasks.append(run)
            return super().submit(run, *args)

    monkeypatch.setattr(network, "OVERLAP_WORK", overlap_work)
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    monkeypatch.setattr(network, "ThreadPoolExecutor", Counted)
    net = init(spec, 5, len(losses))
    train(net, losses, sp, cfg)
    return net.theta.tobytes(), net.momentum.tobytes(), len(tasks)


def image_split(side, classes, n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.random((n, side, side, 1)), rng.integers(0, classes, n)
    return make_split(x, y, x[: n // 4], y[: n // 4], classes)


@pytest.mark.parametrize(
    "side, classes, losses, cfg",
    [
        (16, 3, [normalized_member(15, eta=8.0), CrossEntropy()],
         TrainConfig(epochs=2, batch_size=8, seed=6)),
        (28, 10, [CrossEntropy()], TrainConfig(epochs=1, batch_size=32, seed=6)),
    ],
    ids=["cnn16-stack-of-2", "cnn28-batch-32"],
)
def test_worker_thread_keeps_every_bit(monkeypatch, side, classes, losses, cfg):
    spec, sp = cnn_spec(side, classes), image_split(side, classes, 96, seed=side)
    *overlapped, sent = trained_state(monkeypatch, 1, spec, losses, sp, cfg)
    *serial, kept = trained_state(monkeypatch, 2**62, spec, losses, sp, cfg)
    assert overlapped == serial
    # every trained layer but conv1 sent its weight gradient and its update to
    # the worker, and none without it
    assert (sent, kept) == (2 * 3 * -(-len(sp.train_labels) // cfg.batch_size) * cfg.epochs, 0)


class WorkerRefused(contextlib.nullcontext):
    """An executor that fails on any task."""

    def __init__(self, **kwargs):
        super().__init__(self)

    def submit(self, *args):
        raise AssertionError("a task went to the worker thread")


@pytest.mark.parametrize(
    "arch, classes, members",
    [("mlp:32", 3, 11), ("mlp:64,64", 10, 7)],
    ids=["search-mlp", "grid-mlp-64-64"],
)
def test_search_and_grid_shapes_never_touch_the_worker(monkeypatch, arch, classes, members):
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    monkeypatch.setattr(network, "ThreadPoolExecutor", WorkerRefused)
    dim = 2 if classes == 3 else 8
    sp = noisy_split(f"blobs:{classes}:100:0.5:dim={dim}", "sym:0.4", data_seed=1, split_seed=2,
                     val_fraction=0.25)
    losses = [normalized_member(s, eta=8.0, num_classes=classes) for s in range(members)]
    net = init(arch_from_selector(arch, (dim,), classes), 4, members)
    _, fail_epoch, _ = train(net, losses, sp, TrainConfig(epochs=2, batch_size=128, seed=3))
    assert not fail_epoch.any()


def blas_environment(monkeypatch, cpus, env):
    monkeypatch.setattr(network, "_cpus", lambda: cpus)
    for var in network.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)


@pytest.mark.parametrize(
    "cpus, env, spare",
    [
        (2, {}, False),  # OpenBLAS's default: one thread per CPU
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (4, {"OMP_NUM_THREADS": "3"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "auto", "OMP_NUM_THREADS": "1"}, True),  # atoi: unset
    ],
)
def test_a_spare_cpu_is_one_beside_blas_threads(monkeypatch, cpus, env, spare):
    blas_environment(monkeypatch, cpus, env)
    assert network._spare_cpu() is spare


@pytest.mark.parametrize(
    "cpus, env",
    [(1, {"OPENBLAS_NUM_THREADS": "1"}), (2, {})],
    ids=["one-cpu", "blas-thread-per-cpu"],
)
def test_cnn_step_without_a_spare_cpu_stays_on_one_thread(monkeypatch, cpus, env):
    blas_environment(monkeypatch, cpus, env)
    monkeypatch.setattr(network, "ThreadPoolExecutor", WorkerRefused)
    spec, sp = cnn_spec(28, 10), image_split(28, 10, 32, seed=9)
    train(init(spec, 5), [CrossEntropy()], sp, TrainConfig(epochs=1, batch_size=32))


class Planted(Exception):
    pass


@dataclass(frozen=True)
class FailingDense(Dense):
    """A Dense whose weight gradient raises, after recording the thread it ran on."""

    seen: list

    def param_grad(self, grads, x, dy):
        error = Planted(threading.current_thread())
        self.seen.append(error)
        raise error


def test_worker_error_reaches_train_unchanged(monkeypatch):
    monkeypatch.setattr(network, "OVERLAP_WORK", 1)
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    seen = []
    spec = NetworkSpec((Dense(2, 8), ReLU(), FailingDense(8, 3, seen)), (2,), 3)
    _, sp = fit_problem()
    with pytest.raises(Planted) as raised:
        train(init(spec, 4, 2), [CrossEntropy()] * 2, sp, TrainConfig(epochs=1, batch_size=16))
    # the one error train raised is the task's own, raised on the worker, and
    # it is no divergence: train returned no scores for it
    assert seen == [raised.value]
    assert raised.value.args[0] is not threading.current_thread()


@dataclass(frozen=True)
class SlowDense(Dense):
    """A Dense whose weight gradient finishes late and whose input gradient raises."""

    done: list

    def param_grad(self, grads, x, dy):
        time.sleep(0.2)
        super().param_grad(grads, x, dy)
        self.done.append(True)

    def input_grad(self, params, x, dy, buf):
        raise Planted("input gradient")


def test_an_error_leaves_no_worker_task_running(monkeypatch):
    monkeypatch.setattr(network, "OVERLAP_WORK", 1)
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    done, threads = [], threading.active_count()
    spec = NetworkSpec((Dense(2, 8), ReLU(), SlowDense(8, 3, done)), (2,), 3)
    _, sp = fit_problem()
    with pytest.raises(Planted, match="input gradient"):
        train(init(spec, 4), [CrossEntropy()], sp, TrainConfig(epochs=1, batch_size=16))
    # the task finished and its thread was joined before train raised
    assert done == [True]
    assert threading.active_count() == threads


@dataclass(frozen=True)
class LateDense(Dense):
    """A Dense whose weight gradient finishes late."""

    done: list

    def param_grad(self, grads, x, dy):
        time.sleep(0.2)
        super().param_grad(grads, x, dy)
        self.done.append(True)


def test_worker_update_error_reaches_train_and_cancels_queued_updates(monkeypatch):
    # the worker's queue in a step: the top layer's weight gradient and update,
    # then the middle layer's late weight gradient and its update. The top
    # update raises, so the middle update is still queued when train learns of it
    monkeypatch.setattr(network, "OVERLAP_WORK", 1)
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    seen, started, done, threads = [], [], [], threading.active_count()
    update = network._sgd_update

    def planted(net, cfg, a, b):
        on_worker = threading.current_thread() is not threading.main_thread()
        started.append((a, b, on_worker))
        if on_worker:
            seen.append(Planted(threading.current_thread()))
            raise seen[-1]
        return update(net, cfg, a, b)

    monkeypatch.setattr(network, "_sgd_update", planted)
    spec = NetworkSpec((Dense(2, 8), ReLU(), LateDense(8, 8, done), ReLU(), Dense(8, 3)), (2,), 3)
    _, sp = fit_problem()
    with pytest.raises(Planted) as raised:
        train(init(spec, 4, 2), [CrossEntropy()] * 2, sp, TrainConfig(epochs=1, batch_size=16))
    # the one error train raised is the update's own, raised on the worker, and
    # it is no divergence: train returned no scores for it
    assert seen == [raised.value]
    assert raised.value.args[0] is not threading.current_thread()
    # the first layer's columns were updated here, the top layer's raised on the
    # worker, and the middle layer's queued update never started
    assert sorted(run for run in started if run[0] < run[1]) == [(0, 24, False), (96, 123, True)]
    # the late weight gradient finished and the thread was joined before train raised
    assert done == [True]
    assert threading.active_count() == threads


def train_cnn16():
    spec, sp = cnn_spec(16, 3), image_split(16, 3, 48, seed=11)
    train(init(spec, 5), [CrossEntropy()], sp, TrainConfig(epochs=1, batch_size=16))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_trains_after_its_parent(monkeypatch):
    # a worker that outlived its training would pass to the child without its
    # thread, and the child's first task would wait for it forever
    monkeypatch.setattr(network, "OVERLAP_WORK", 1)
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    threads = threading.active_count()
    train_cnn16()
    child = multiprocessing.get_context("fork").Process(target=train_cnn16)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's training hung")
    assert child.exitcode == 0
    assert threading.active_count() == threads


def test_diverging_cnn_member_overflows_quietly_on_the_worker(monkeypatch):
    # member 1's conv1 weights scaled up and conv2's down by one factor leave
    # its logits as they were, but put conv2's input near 1e306, so under a
    # mis-scaled loss its weight gradient overflows on the worker. numpy's error
    # handling does not carry over to another thread and the suite turns
    # warnings into errors: a task outside the trainer's would raise the overflow
    # instead of leaving the member to the finiteness check
    monkeypatch.setattr(network, "OVERLAP_WORK", 1)
    monkeypatch.setattr(network, "_spare_cpu", lambda: True)
    spec, sp = cnn_spec(16, 3), image_split(16, 3, 48, seed=11)
    net = init(spec, 5, 2)
    net._theta_views[0]["w"][1] *= 1e306
    net._theta_views[3]["w"][1] /= 1e306
    losses = [CrossEntropy(), normalized_member(15, eta=1e8)]
    _, fail_epoch, _ = train(net, losses, sp, TrainConfig(epochs=2, batch_size=16))
    assert fail_epoch.tolist() == [0, 1]


def test_diverging_cnn28_stack_keeps_every_bit_on_the_worker(monkeypatch):
    # member 1 rescaled as above overflows at the second step, after one finite
    # update, and member 0 trains on alone; the dense layer's update spans 32
    # SGD_BLOCKs that start off the block grid when it runs on the worker
    spec, sp = cnn_spec(28, 10), image_split(28, 10, 96, seed=28)
    losses = [CrossEntropy(), normalized_member(15, eta=1e8, num_classes=10)]
    cfg = TrainConfig(learning_rate=0.01, momentum=0.9, epochs=2, batch_size=32, seed=6)
    assert spec.param_counts[7] > 32 * SGD_BLOCK and sum(spec.param_counts[:7]) % SGD_BLOCK
    runs = []
    for overlap_work in (1, 2**62):
        monkeypatch.setattr(network, "OVERLAP_WORK", overlap_work)
        monkeypatch.setattr(network, "_spare_cpu", lambda: True)
        net = init(spec, 5, 2)
        net._theta_views[0]["w"][1] *= 1e300
        net._theta_views[3]["w"][1] /= 1e300
        scores, fail_epoch, _ = train(net, losses, sp, cfg)
        runs.append((net.theta.tobytes(), net.momentum.tobytes(), scores.tolist(),
                     fail_epoch.tolist()))
    assert runs[0] == runs[1]
    assert runs[0][3] == [0, 1]
