"""Network engine: init, forward oracles, end-to-end gradients, training."""

import numpy as np
import pytest

from losslearn.datasets import DatasetSplit, split, synth_blobs
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
    curve_to_csv,
    init,
    linear_spec,
    mlp_spec,
    prepare_features,
    train,
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
from losslearn.taylor import NormalizedLoss, TaylorLossParams, coefficient_keys, mse_embedding


def tiny_mlp():
    return NetworkSpec("t", (Dense(4, 6), ReLU(), Dense(6, 3)), 4, 3)


def tiny_cnn():
    layers = (Conv2D(1, 2, 3), ReLU(), MaxPool(2), Flatten(), Dense(8, 3))
    return NetworkSpec("tc", layers, (6, 6, 1), 3)


def random_taylor(seed):
    rng = np.random.default_rng(seed)
    return TaylorLossParams(
        expansion_point=tuple(rng.uniform(-0.5, 0.5, 2)),
        coefficients={k: rng.uniform(-1, 1) for k in coefficient_keys(4)},
    )


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
    probs = net.forward(np.random.default_rng(1).random((20, 4)))
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_forward_matches_matrix_oracle():
    net = init(tiny_mlp(), seed=5)
    x = np.random.default_rng(2).random((7, 4))
    v = net._views(net.theta)
    # straight-line arithmetic, no shared code paths
    z1 = x @ v[0]["w"] + v[0]["b"]
    a1 = np.where(z1 > 0, z1, 0.0)
    z2 = a1 @ v[2]["w"] + v[2]["b"]
    e = np.exp(z2 - z2.max(axis=1, keepdims=True))
    oracle = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(net.forward(x), oracle, atol=1e-6)


def test_conv_matches_loop_oracle():
    spec = NetworkSpec(
        "c", (Conv2D(2, 3, 3), Flatten(), Dense(2 * 2 * 3, 2)), (4, 4, 2), 2
    )
    net = init(spec, seed=6)
    rng = np.random.default_rng(3)
    net.theta[:] = rng.uniform(-1, 1, net.theta.size)
    x = rng.random((2, 4, 4, 2))
    w = net._views(net.theta)[0]["w"]  # (3, 3, 2, 3)
    b = net._views(net.theta)[0]["b"]
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
    from losslearn.network import _conv_forward

    out, _ = _conv_forward(spec.layers[0], net._views(net.theta)[0], x)
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_pool_matches_loop_oracle():
    from losslearn.network import _pool_forward

    rng = np.random.default_rng(4)
    x = rng.random((3, 4, 4, 2))
    out, _ = _pool_forward(MaxPool(2), x)
    for n in range(3):
        for i in range(2):
            for j in range(2):
                for c in range(2):
                    window = x[n, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c]
                    assert out[n, i, j, c] == window.max()


def test_forward_rejects_wrong_shape():
    net = init(tiny_mlp(), seed=7)
    with pytest.raises(ValueError, match="does not match"):
        net.forward(np.zeros((2, 5)))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    z = rng.normal(0, 3, (10, 6))
    shifted = z + rng.normal(0, 10, (10, 1))
    np.testing.assert_allclose(_softmax(z), _softmax(shifted), atol=1e-6)


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
    NormalizedLoss(inner=random_taylor(901), f_min=-0.7, f_max=1.3, eta=2.0),
]


def batch_objective(net, loss, x, onehot):
    return float(np.mean(loss.batch_value(net.forward(x), onehot)))


def fd_param_grad(net, loss, x, onehot, h=1e-6):
    g = np.zeros_like(net.theta)
    for i in range(net.theta.size):
        saved = net.theta[i]
        net.theta[i] = saved + h
        up = batch_objective(net, loss, x, onehot)
        net.theta[i] = saved - h
        dn = batch_objective(net, loss, x, onehot)
        net.theta[i] = saved
        g[i] = (up - dn) / (2 * h)
    return g


@pytest.mark.parametrize("loss", LOSSES, ids=lambda l: type(l).__name__)
@pytest.mark.parametrize("make_spec", [tiny_mlp, tiny_cnn], ids=["mlp", "cnn"])
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
    onehot = np.eye(spec.num_classes)[labels]

    probs, cache = net._forward_cache(x)
    analytic = net._backward(cache, loss.batch_grad(probs, onehot) / 5)
    fd = fd_param_grad(net, loss, x, onehot)
    denom = max(np.linalg.norm(fd), 1e-10)
    assert np.linalg.norm(analytic - fd) / denom < 1e-4


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_zero_learning_rate_changes_nothing():
    ds = synth_blobs(3, 30, seed=8)
    sp = split(ds, val_fraction=0.2, seed=8)
    net = init(mlp_spec(2, [8], 3), seed=9)
    before = net.theta.copy()
    base_acc = accuracy(net, sp.val_features, sp.val_labels)
    result = train(net, CrossEntropy(), sp, TrainConfig(learning_rate=0.0, epochs=3, seed=1))
    np.testing.assert_array_equal(net.theta, before)
    assert not result.diverged
    assert result.final_accuracy == base_acc


def test_one_step_matches_hand_backprop():
    spec = linear_spec(3, 2)
    net = init(spec, seed=13)
    w = net._views(net.theta)[0]["w"].copy()
    b = net._views(net.theta)[0]["b"].copy()
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

    train(net, loss, sp, TrainConfig(learning_rate=lr, momentum=mom, batch_size=1, epochs=2, seed=0))
    np.testing.assert_allclose(net._views(net.theta)[0]["w"], w, atol=1e-8)
    np.testing.assert_allclose(net._views(net.theta)[0]["b"], b, atol=1e-8)


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
    train(net, CrossEntropy(), sp, TrainConfig(learning_rate=0.1, batch_size=len(x4), epochs=1))
    assert np.any(net.theta != before)  # one batch, one epoch: a single SGD step
    for cached, fresh in zip(net._theta_views, net._views(net.theta)):
        assert cached.keys() == fresh.keys()
        for name in fresh:
            np.testing.assert_array_equal(cached[name], fresh[name])

    # each backward pass returns a new gradient, never a shared buffer
    probs, cache = net._forward_cache(x)
    dprobs = CrossEntropy().batch_grad(probs, np.eye(3)[[0, 1, 2, 0, 1]])
    first = net._backward(cache, dprobs)
    assert not np.shares_memory(first, net._backward(cache, dprobs))


def test_training_deterministic():
    ds = synth_blobs(3, 40, seed=10)
    sp = split(ds, val_fraction=0.25, seed=10)
    cfg = TrainConfig(epochs=4, batch_size=16, seed=21)
    r1 = train(init(mlp_spec(2, [16], 3), seed=20), CrossEntropy(), sp, cfg)
    r2 = train(init(mlp_spec(2, [16], 3), seed=20), CrossEntropy(), sp, cfg)
    assert r1.curve == r2.curve
    np.testing.assert_array_equal(r1.network.theta, r2.network.theta)


def test_separable_blobs_reach_high_accuracy():
    ds = synth_blobs(2, 250, spread=0.15, seed=11)
    sp = split(ds, val_fraction=0.2, seed=11)
    net = init(mlp_spec(2, [32], 2), seed=12)
    result = train(net, CrossEntropy(), sp, TrainConfig(epochs=20, batch_size=32, seed=13))
    assert not result.diverged
    assert result.final_accuracy > 0.95


def test_three_class_blobs_regression():
    ds = synth_blobs(3, 500, spread=0.5, seed=12)
    sp = split(ds, val_fraction=0.2, seed=12)
    net = init(mlp_spec(2, [32], 3), seed=14)
    result = train(net, CrossEntropy(), sp, TrainConfig(epochs=20, batch_size=32, seed=15))
    assert result.final_accuracy >= 0.9


def test_loss_scale_learning_rate_equivalence():
    class Scaled:
        def __init__(self, inner, k):
            self.inner = inner
            self.k = k

        def batch_value(self, yhat, y):
            return self.k * self.inner.batch_value(yhat, y)

        def batch_grad(self, yhat, y):
            return self.k * self.inner.batch_grad(yhat, y)

    ds = synth_blobs(3, 50, seed=13)
    sp = split(ds, val_fraction=0.2, seed=13)
    k = 4.0  # power of two so the float trajectories agree exactly
    base = train(
        init(mlp_spec(2, [8], 3), seed=30),
        CrossEntropy(),
        sp,
        TrainConfig(learning_rate=0.01, epochs=5, batch_size=8, seed=31),
    )
    scaled = train(
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
    result = train(
        net, CrossEntropy(), sp, TrainConfig(learning_rate=1e160, epochs=5, seed=16)
    )
    assert result.diverged
    assert result.fail_epoch is not None


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
    net = init(linear_spec(3, 3), seed=17)
    v = net._views(net.theta)[0]
    v["w"][...] = np.eye(3) * 10.0
    x = np.eye(3)
    assert accuracy(net, x, np.array([0, 1, 2])) == 1.0


def test_accuracy_tie_breaks_to_lowest_index():
    net = init(tiny_mlp(), seed=18)
    net.theta[:] = 0.0  # uniform predictions everywhere
    x = np.random.default_rng(6).random((8, 4))
    assert accuracy(net, x, np.zeros(8, dtype=int)) == 1.0
    assert accuracy(net, x, np.ones(8, dtype=int)) == 0.0


def test_accuracy_counts_matches():
    net = init(linear_spec(3, 3), seed=19)
    v = net._views(net.theta)[0]
    v["w"][...] = np.eye(3) * 10.0
    # 10 one-hot inputs; 7 labels match the argmax, 3 do not
    rows = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1, 2, 0]]
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 2, 0, 1])
    assert accuracy(net, rows, labels) == pytest.approx(0.7)


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
    result = train(net, CrossEntropy(), sp, TrainConfig(epochs=3, batch_size=16, seed=24))
    assert not result.diverged
    assert result.final_accuracy >= 0.8
