"""Network engine: init, forward oracles, end-to-end gradients, training."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslearn.bench import curve_to_csv, loss_from_selector
from losslearn.datasets import DatasetSplit, noisy_split, split, synth_blobs
from losslearn.network import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool,
    NetworkSpec,
    ReLU,
    TrainConfig,
    accuracy,
    arch_from_selector,
    cnn_spec,
    fit_many,
    init,
    mlp_spec,
    prepare_features,
    train,
    _buffer,
    _class_fold,
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
    coefficient_keys,
    mse_embedding,
    normalize,
)


def tiny_mlp():
    return NetworkSpec("t", (Dense(4, 6), ReLU(), Dense(6, 3)), 4, 3)


def tiny_cnn():
    layers = (Conv2D(1, 2, 3), ReLU(), MaxPool(2), Flatten(), Dense(8, 3))
    return NetworkSpec("tc", layers, (6, 6, 1), 3)


def tiny_cnn_relu_after_pool():
    # the ReLU clamps the pool's cached output in place
    layers = (Conv2D(1, 2, 3), MaxPool(2), ReLU(), Flatten(), Dense(8, 3))
    return NetworkSpec("tcp", layers, (6, 6, 1), 3)


def random_taylor(seed):
    rng = np.random.default_rng(seed)
    return TaylorLossParams(
        expansion_point=tuple(rng.uniform(-0.5, 0.5, 2)),
        coefficients={k: rng.uniform(-1, 1) for k in coefficient_keys(4)},
    )


def train_one(net, loss, data, cfg):
    """train for a stack of one under one loss."""
    (result,) = train(net, [loss], data, cfg)
    return result


def fit(spec, loss, data, init_seed, cfg):
    """fit_many for one loss."""
    (scored,) = fit_many(spec, [loss], data, init_seed, cfg)
    return scored


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
        NetworkSpec("bad", (Dense(4, 6), Dense(5, 3)), 4, 3)


def test_spec_rejects_wrong_final_width():
    with pytest.raises(ValueError, match="expected 3 classes"):
        NetworkSpec("bad", (Dense(4, 5),), 4, 3)


def test_spec_rejects_bad_pool():
    with pytest.raises(ValueError, match="divisible"):
        NetworkSpec(
            "bad",
            (Conv2D(1, 2, 3), MaxPool(3), Flatten(), Dense(2, 2)),
            (6, 6, 1),
            2,
        )


def test_spec_rejects_conv_on_flat_input():
    with pytest.raises(ValueError, match="H, W, ch"):
        NetworkSpec("bad", (Conv2D(1, 2, 3),), 16, 2)


@pytest.mark.parametrize(
    "layers, input_shape, message",
    [
        ((Conv2D(1, 2, 3), Conv2D(3, 2, 3)), (8, 8, 1), "expects 3 channels"),
        ((Conv2D(1, 2, 3), Conv2D(2, 2, 5)), (6, 6, 1), "kernel 5 too large"),
        ((Dense(4, 4), Flatten()), 4, "input is already flat"),
        ((Conv2D(1, 2, 3), Dense(32, 2)), (6, 6, 1), "needs a flat input"),
    ],
)
def test_spec_names_the_failing_layer(layers, input_shape, message):
    name = type(layers[1]).__name__
    with pytest.raises(ValueError, match=rf"^layer 1 \({name}\): {message}"):
        NetworkSpec("bad", layers, input_shape, 2)


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
    spec = NetworkSpec("m", (Dense(784, 256), ReLU(), Dense(256, 10)), 784, 10)
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
    spec = NetworkSpec(
        "c", (Conv2D(2, 3, 3), Flatten(), Dense(2 * 2 * 3, 2)), (4, 4, 2), 2
    )
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
    images = rng.random((40, 8, 8))
    sp = make_split(images[:30], np.arange(30) % 3, images[30:], np.arange(10) % 3, 3)

    def run(pool):
        block = (pool, ReLU()) if relu_after_pool else (ReLU(), pool)
        spec = NetworkSpec("c", (Conv2D(1, 3, 3), *block, Flatten(), Dense(27, 3)), (8, 8, 1), 3)
        losses = [CrossEntropy(), normalized_member(8, eta=8.0)]
        return train(init(spec, init_seed, 2), losses, sp, TrainConfig(epochs=2, batch_size=8))

    for got, want in zip(run(MaxPool(2)), run(ArgmaxPool(2))):
        assert got.curve == want.curve
        assert np.array_equal(got.network.theta, want.network.theta)


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
    shape = (5, spec.input_shape) if isinstance(spec.input_shape, int) else (
        (5,) + tuple(spec.input_shape)
    )
    x = rng.random(shape)
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
    result = train_one(net, CrossEntropy(), sp, TrainConfig(learning_rate=0.0, epochs=3, seed=1))
    np.testing.assert_array_equal(net.theta, before)
    assert not result.diverged
    assert result.final_accuracy == base_acc


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
    r1 = train_one(init(mlp_spec(2, [16], 3), seed=20), CrossEntropy(), sp, cfg)
    r2 = train_one(init(mlp_spec(2, [16], 3), seed=20), CrossEntropy(), sp, cfg)
    assert r1.curve == r2.curve
    np.testing.assert_array_equal(r1.network.theta, r2.network.theta)


def test_separable_blobs_reach_high_accuracy():
    ds = synth_blobs(2, 250, spread=0.15, seed=11)
    sp = split(ds, val_fraction=0.2, seed=11)
    net = init(mlp_spec(2, [32], 2), seed=12)
    result = train_one(net, CrossEntropy(), sp, TrainConfig(epochs=20, batch_size=32, seed=13))
    assert not result.diverged
    assert result.final_accuracy > 0.95


def test_three_class_blobs_regression():
    ds = synth_blobs(3, 500, spread=0.5, seed=12)
    sp = split(ds, val_fraction=0.2, seed=12)
    net = init(mlp_spec(2, [32], 3), seed=14)
    result = train_one(net, CrossEntropy(), sp, TrainConfig(epochs=20, batch_size=32, seed=15))
    assert result.final_accuracy >= 0.9


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
    base = train_one(
        init(mlp_spec(2, [8], 3), seed=30),
        CrossEntropy(),
        sp,
        TrainConfig(learning_rate=0.01, epochs=5, batch_size=8, seed=31),
    )
    scaled = train_one(
        init(mlp_spec(2, [8], 3), seed=30),
        Scaled(CrossEntropy(), k),
        sp,
        TrainConfig(learning_rate=0.01 / k, epochs=5, batch_size=8, seed=31),
    )
    np.testing.assert_array_equal(base.network.theta, scaled.network.theta)
    for (e1, _, a1), (e2, _, a2) in zip(base.curve, scaled.curve):
        assert (e1, a1) == (e2, a2)


def test_divergence_flagged_not_thrown():
    ds = synth_blobs(2, 20, seed=14)
    sp = split(ds, val_fraction=0.2, seed=14)
    net = init(mlp_spec(2, [8], 2), seed=15)
    result = train_one(
        net, CrossEntropy(), sp, TrainConfig(learning_rate=1e160, epochs=5, seed=16)
    )
    assert result.diverged
    assert result.fail_epoch is not None


def fit_problem():
    sp = split(synth_blobs(3, 40, seed=18), val_fraction=0.25, seed=18)
    return mlp_spec(2, [8], 3), sp


def test_fit_scores_the_trained_network():
    spec, sp = fit_problem()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=19)
    acc, diverged, curve = fit(spec, CrossEntropy(), sp, 20, cfg)
    net = init(spec, 20)
    result = train_one(net, CrossEntropy(), sp, cfg)
    assert (diverged, curve) == (False, result.curve)
    assert [acc] == accuracy(net, sp.val_features, sp.val_labels)


def test_fit_without_epochs_scores_the_initial_network():
    spec, sp = fit_problem()
    acc, diverged, curve = fit(spec, CrossEntropy(), sp, 20, TrainConfig(epochs=0))
    assert [acc] == accuracy(init(spec, 20), sp.val_features, sp.val_labels)
    assert (diverged, curve) == (False, [])


def test_fit_scores_a_diverged_network_zero():
    class Exploding:
        def indexed(self, yhat, labels):
            grads = np.zeros(yhat.shape)
            grads[np.arange(len(labels)), labels] = -np.inf
            return np.zeros(len(labels)), grads

    spec, sp = fit_problem()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=19)
    acc, diverged, curve = fit(spec, Exploding(), sp, 20, cfg)
    assert (acc, diverged) == (0.0, True)
    assert curve == train_one(init(spec, 20), Exploding(), sp, cfg).curve


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
    assert scores == [accuracy(net.member(k), x, labels)[0] for k in range(members)]


def test_accuracy_rejects_empty():
    net = init(tiny_mlp(), seed=20)
    with pytest.raises(ValueError, match="empty"):
        accuracy(net, np.zeros((0, 4)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# Feature preparation and selectors
# ---------------------------------------------------------------------------


def test_prepare_features_flattens_images():
    x = np.zeros((5, 3, 3))
    flat = prepare_features(x, 9)
    assert flat.shape == (5, 9)
    with pytest.raises(ValueError, match="network wants 4"):
        prepare_features(x, 4)


def test_prepare_features_adds_channel():
    x = np.zeros((5, 6, 6))
    spatial = prepare_features(x, (6, 6, 1))
    assert spatial.shape == (5, 6, 6, 1)
    with pytest.raises(ValueError, match="does not match"):
        prepare_features(np.zeros((5, 4, 4)), (6, 6, 1))


def test_arch_selectors():
    spec = arch_from_selector("mlp:256,256", 784, 10)
    assert [l for l in spec.layers if isinstance(l, Dense)][0].out_dim == 256
    assert spec.num_classes == 10
    spec = arch_from_selector("linear", (8, 8, 1), 5)
    assert spec.layers == (Dense(64, 5),)
    spec = arch_from_selector("cnn", (28, 28, 1), 10)
    dense = [l for l in spec.layers if isinstance(l, Dense)]
    assert dense[0] == Dense(1024, 1024)
    with pytest.raises(ValueError, match="unknown architecture"):
        arch_from_selector("transformer", 4, 2)
    with pytest.raises(ValueError, match="square image"):
        arch_from_selector("cnn", 784, 10)
    for text in ("mlp:", "mlp:8,0", "mlp:-1"):
        with pytest.raises(ValueError, match="hidden widths of at least 1"):
            arch_from_selector(text, 4, 2)


def test_cnn_trains_on_quadrant_brightness():
    rng = np.random.default_rng(22)
    n = 80
    images = rng.random((n, 16, 16)) * 0.2
    labels = rng.integers(0, 2, n)
    for i in range(n):
        if labels[i] == 0:
            images[i, :8, :8] += 0.8
        else:
            images[i, 8:, 8:] += 0.8
    sp = make_split(images[:60], labels[:60], images[60:], labels[60:], 2)
    net = init(cnn_spec(16, 2), seed=23)
    result = train_one(net, CrossEntropy(), sp, TrainConfig(epochs=3, batch_size=16, seed=24))
    assert not result.diverged
    assert result.final_accuracy >= 0.8


# ---------------------------------------------------------------------------
# Stacked training: m networks in one loop equal m serial trainings
# ---------------------------------------------------------------------------


def assert_stack_equals_serial(spec, losses, sp, init_seed, cfg):
    """fit_many and a stacked train against one serial fit and train per loss."""
    assert fit_many(spec, losses, sp, init_seed, cfg) == [
        fit(spec, loss, sp, init_seed, cfg) for loss in losses
    ]
    stacked = train(init(spec, init_seed, len(losses)), losses, sp, cfg)
    for loss, got in zip(losses, stacked):
        want = train_one(init(spec, init_seed), loss, sp, cfg)
        assert (got.diverged, got.fail_epoch, got.curve) == (
            want.diverged, want.fail_epoch, want.curve
        )
        assert np.array_equal(got.network.theta, want.network.theta, equal_nan=True)
    return stacked


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
    results = assert_stack_equals_serial(spec, losses, sp, 20, cfg)
    assert [r.diverged for r in results] == [False, False, False, True, False, False]
    assert results[3].fail_epoch == 1 and results[3].curve == []
    assert all(len(r.curve) == 3 for i, r in enumerate(results) if i != 3)


def test_stacked_grid_mix_equals_serial_fits():
    sp = noisy_split("blobs:10:12:0.5:dim=8", "sym:0.4", data_seed=1, split_seed=2,
                     val_fraction=0.25, pairing=None)
    spec = arch_from_selector("mlp:64,64", 8, 10)
    losses = [loss_from_selector(s) for s in (
        "ce", "mae", "gce:q=0.7", "sce", "ls:epsilon=0.1", "bootstrap:weight=0.8:mode=hard"
    )] + [normalized_member(7, eta=8.0, num_classes=10)]
    cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=32, seed=3)
    assert_stack_equals_serial(spec, losses, sp, 4, cfg)


def test_stacked_mixed_orders_equal_serial_fits():
    # two polynomial orders and reference losses stack as no population, so
    # every member runs through its own indexed call, the polynomial ones too
    spec, sp = fit_problem()
    losses = [
        normalized_member(10, eta=8.0, order=3), CrossEntropy(), normalized_member(11, eta=8.0),
        GeneralizedCrossEntropy(), mse_embedding(), normalized_member(12, eta=1e300, order=3),
    ]
    cfg = TrainConfig(epochs=3, batch_size=16, seed=19)
    results = assert_stack_equals_serial(spec, losses, sp, 20, cfg)
    assert [r.diverged for r in results] == [False] * 5 + [True]


def test_mixed_stack_builds_the_polynomial_call_once(monkeypatch):
    built, stacked = [], NormalizedLoss.stacked

    def counted(losses):
        built.append(len(losses))
        return stacked(losses)

    monkeypatch.setattr(NormalizedLoss, "stacked", staticmethod(counted))
    spec, sp = fit_problem()
    losses = [CrossEntropy(), normalized_member(9, eta=8.0)]
    for seed in (3, 4):  # the loss keeps its call from one training to the next
        train(init(spec, 20, 2), losses, sp, TrainConfig(epochs=2, batch_size=16, seed=seed))
    assert built == [1]


def assert_stacked_cnn_equals_serial(layers):
    rng = np.random.default_rng(25)
    images = rng.random((40, 8, 8))
    labels = np.arange(40) % 3
    sp = make_split(images[:30], labels[:30], images[30:], labels[30:], 3)
    spec = NetworkSpec("c2", layers, (8, 8, 1), 3)
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
    scored = fit_many(spec, losses, sp, 20, TrainConfig(epochs=0))
    assert scored == [fit(spec, loss, sp, 20, TrainConfig(epochs=0)) for loss in losses]
    (acc,) = accuracy(init(spec, 20), sp.val_features, sp.val_labels)
    assert scored == [(acc, False, [])] * 2
    assert fit_many(spec, [], sp, 20, TrainConfig(epochs=0)) == []


def test_stacked_members_are_views_of_one_stack():
    net = init(tiny_mlp(), seed=5, members=3)
    single = init(tiny_mlp(), seed=5)
    assert net.theta.shape == (3, single.num_parameters)
    for k in range(3):
        member = net.member(k)
        np.testing.assert_array_equal(member.theta, single.theta)
        assert np.shares_memory(member.theta, net.theta)
        for views, own in zip(net._theta_views, member._theta_views):
            for name in own:
                assert np.shares_memory(views[name], net.theta)
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
    # the epoch-end accuracy runs member by member: a stacked pass over 4500
    # validation rows would hold (m, 4500, 64) activations at once
    sp = noisy_split("blobs:3:6000:0.5", "none", data_seed=1, split_seed=2,
                     val_fraction=0.25, pairing=None)
    assert len(sp.val_labels) == 4500
    spec = arch_from_selector("mlp:64", 2, 3)
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
    x, y = rng.random((500, 16, 16)), rng.integers(0, 3, 500)
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
    spec = arch_from_selector("mlp:256,256", 2, 3)
    losses = [normalized_member(s, eta=8.0) for s in range(8)]
    cfg = TrainConfig(epochs=1, batch_size=500, seed=3)

    def run(n):
        sp = make_split(x[:n], y[:n], x[800:], y[800:], 3)
        return traced_peak(lambda: train(init(spec, 4, 8), losses, sp, cfg))

    assert run(800) <= 1.01 * run(500)


@pytest.mark.parametrize(
    "layers, input_shape",
    [((ReLU(), Dense(4, 3)), 4), ((Flatten(), ReLU(), Dense(16, 3)), (4, 4, 1))],
)
def test_spec_rejects_a_relu_on_the_input_batch(layers, input_shape):
    # ReLU runs in place, which must never reach the caller's batch
    with pytest.raises(ValueError, match="would overwrite the batch"):
        NetworkSpec("bad", layers, input_shape, 3)
