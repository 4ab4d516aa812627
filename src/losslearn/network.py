"""Small feed-forward network engine with a pluggable differentiable loss.

Dense and valid-convolution layers, ReLU, non-overlapping max pooling, a
softmax head, and mini-batch SGD with momentum. Everything is float64 numpy.
The loss plugs in through two methods, batch_value(probs, onehot) -> (n,)
and batch_grad(probs, onehot) -> (n, C); the gradient is pushed through the
full softmax Jacobian so losses that are not cross-entropy-shaped work too.
"""

from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Layer descriptors and the architecture spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Conv2D:
    in_ch: int
    out_ch: int
    kernel: int


@dataclass(frozen=True)
class MaxPool:
    size: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    layers: tuple
    input_shape: object  # int for flat inputs, (H, W, ch) for images
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            shape = _output_shape(layer, shape, i)
        if shape != self.num_classes:
            raise ValueError(
                f"final layer produces {shape}, expected {self.num_classes} classes"
            )


def _output_shape(layer, shape, index):
    def fail(msg):
        raise ValueError(f"layer {index} ({type(layer).__name__}): {msg}")

    if isinstance(layer, Dense):
        if not isinstance(shape, int):
            fail(f"needs a flat input, got {shape}")
        if shape != layer.in_dim:
            fail(f"expects {layer.in_dim} inputs, got {shape}")
        return layer.out_dim
    if isinstance(layer, ReLU):
        return shape
    if isinstance(layer, Conv2D):
        if isinstance(shape, int) or len(shape) != 3:
            fail(f"needs an (H, W, ch) input, got {shape}")
        h, w, ch = shape
        if ch != layer.in_ch:
            fail(f"expects {layer.in_ch} channels, got {ch}")
        if h < layer.kernel or w < layer.kernel:
            fail(f"kernel {layer.kernel} too large for {h}x{w}")
        return (h - layer.kernel + 1, w - layer.kernel + 1, layer.out_ch)
    if isinstance(layer, MaxPool):
        if isinstance(shape, int) or len(shape) != 3:
            fail(f"needs an (H, W, ch) input, got {shape}")
        h, w, ch = shape
        if h % layer.size or w % layer.size:
            fail(f"{h}x{w} not divisible by pool size {layer.size}")
        return (h // layer.size, w // layer.size, ch)
    if isinstance(layer, Flatten):
        if isinstance(shape, int):
            fail("input is already flat")
        return int(np.prod(shape))
    fail("unknown layer type")


def _param_shapes(layer):
    if isinstance(layer, Dense):
        return [("w", (layer.in_dim, layer.out_dim)), ("b", (layer.out_dim,))]
    if isinstance(layer, Conv2D):
        k = layer.kernel
        return [
            ("w", (k, k, layer.in_ch, layer.out_ch)),
            ("b", (layer.out_ch,)),
        ]
    return []


def _fan_in(layer):
    if isinstance(layer, Dense):
        return layer.in_dim
    return layer.kernel * layer.kernel * layer.in_ch


# ---------------------------------------------------------------------------
# Network state
# ---------------------------------------------------------------------------


class Network:
    """Mutable parameter state for one training job. Not thread-shared."""

    def __init__(self, spec):
        self.spec = spec
        self._layout = []  # (layer, [(name, offset, shape)])
        offset = 0
        for layer in spec.layers:
            entries = []
            for name, shape in _param_shapes(layer):
                entries.append((name, offset, shape))
                offset += int(np.prod(shape))
            self._layout.append((layer, entries))
        self.theta = np.zeros(offset)
        self.momentum = np.zeros(offset)
        # theta is only ever updated in place, so these views stay valid
        self._theta_views = self._views(self.theta)

    @property
    def num_parameters(self):
        return self.theta.size

    def _views(self, vector):
        out = []
        for layer, entries in self._layout:
            views = {
                name: vector[off : off + int(np.prod(shape))].reshape(shape)
                for name, off, shape in entries
            }
            out.append(views)
        return out

    def forward(self, batch):
        probs, _ = self._forward_cache(batch)
        return probs

    def _forward_cache(self, batch):
        x = np.asarray(batch, dtype=float)
        expected = self.spec.input_shape
        expected = (expected,) if isinstance(expected, int) else tuple(expected)
        if x.shape[1:] != expected:
            raise ValueError(f"batch shape {x.shape[1:]} does not match {expected}")
        caches = []
        for (layer, _), views in zip(self._layout, self._theta_views):
            x, cache = _layer_forward(layer, views, x)
            caches.append(cache)
        probs = _softmax(x)
        return probs, (caches, probs)

    def _backward(self, cache, dprobs):
        caches, probs = cache
        # dL/dlogits through the softmax Jacobian, row by row
        dot = np.sum(dprobs * probs, axis=1, keepdims=True)
        dx = probs * (dprobs - dot)
        grad = np.zeros_like(self.theta)
        for (layer, _), views, gviews, lcache in zip(
            reversed(self._layout),
            reversed(self._theta_views),
            reversed(self._views(grad)),
            reversed(caches),
        ):
            dx = _layer_backward(layer, views, gviews, lcache, dx)
        return grad


def init(spec, seed):
    """Deterministic He-style uniform init; zero biases."""
    net = Network(spec)
    rng = np.random.default_rng(seed)
    for views, (layer, _) in zip(net._theta_views, net._layout):
        if "w" in views:
            limit = np.sqrt(6.0 / _fan_in(layer))
            views["w"][...] = rng.uniform(-limit, limit, views["w"].shape)
    return net


# ---------------------------------------------------------------------------
# Layer forward/backward
# ---------------------------------------------------------------------------


def _layer_forward(layer, views, x):
    if isinstance(layer, Dense):
        return x @ views["w"] + views["b"], x
    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0), x
    if isinstance(layer, Conv2D):
        return _conv_forward(layer, views, x)
    if isinstance(layer, MaxPool):
        return _pool_forward(layer, x)
    if isinstance(layer, Flatten):
        return x.reshape(x.shape[0], -1), x.shape
    raise ValueError(f"unknown layer {layer!r}")


def _layer_backward(layer, views, gviews, cache, dy):
    if isinstance(layer, Dense):
        x = cache
        gviews["w"][...] = x.T @ dy
        gviews["b"][...] = dy.sum(axis=0)
        return dy @ views["w"].T
    if isinstance(layer, ReLU):
        return dy * (cache > 0.0)
    if isinstance(layer, Conv2D):
        return _conv_backward(layer, views, gviews, cache, dy)
    if isinstance(layer, MaxPool):
        return _pool_backward(layer, cache, dy)
    if isinstance(layer, Flatten):
        return dy.reshape(cache)
    raise ValueError(f"unknown layer {layer!r}")


def _conv_forward(layer, views, x):
    k = layer.kernel
    n, h, w, _ = x.shape
    oh, ow = h - k + 1, w - k + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    # windows: (n, oh, ow, in_ch, k, k) -> columns (n*oh*ow, k*k*in_ch)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, -1)
    wmat = views["w"].reshape(-1, layer.out_ch)
    out = cols @ wmat + views["b"]
    return out.reshape(n, oh, ow, layer.out_ch), (x.shape, cols)


def _conv_backward(layer, views, gviews, cache, dy):
    k = layer.kernel
    x_shape, cols = cache
    n, h, w, in_ch = x_shape
    oh, ow = h - k + 1, w - k + 1
    dy_flat = dy.reshape(n * oh * ow, layer.out_ch)
    wmat = views["w"].reshape(-1, layer.out_ch)
    gviews["w"][...] = (cols.T @ dy_flat).reshape(gviews["w"].shape)
    gviews["b"][...] = dy_flat.sum(axis=0)
    dcols = (dy_flat @ wmat.T).reshape(n, oh, ow, k, k, in_ch)
    dx = np.zeros(x_shape)
    for i in range(k):
        for j in range(k):
            dx[:, i : i + oh, j : j + ow, :] += dcols[:, :, :, i, j, :]
    return dx


def _pool_forward(layer, x):
    s = layer.size
    n, h, w, ch = x.shape
    oh, ow = h // s, w // s
    tiles = x.reshape(n, oh, s, ow, s, ch).transpose(0, 1, 3, 2, 4, 5)
    tiles = tiles.reshape(n, oh, ow, s * s, ch)
    best = np.argmax(tiles, axis=3)  # first max wins, deterministic
    out = np.take_along_axis(tiles, best[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, (x.shape, best)


def _pool_backward(layer, cache, dy):
    s = layer.size
    x_shape, best = cache
    n, h, w, ch = x_shape
    oh, ow = h // s, w // s
    dtiles = np.zeros((n, oh, ow, s * s, ch))
    np.put_along_axis(dtiles, best[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    dtiles = dtiles.reshape(n, oh, ow, s, s, ch).transpose(0, 1, 3, 2, 4, 5)
    return dtiles.reshape(x_shape)


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass
class TrainResult:
    network: Network
    diverged: bool = False
    fail_epoch: int = None
    curve: list = field(default_factory=list)  # (epoch, train_loss, val_accuracy)

    @property
    def final_accuracy(self):
        return self.curve[-1][2] if self.curve else None


def prepare_features(features, input_shape):
    """Reshape dataset features to the network's input layout."""
    x = np.asarray(features, dtype=float)
    if isinstance(input_shape, int):
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != input_shape:
            raise ValueError(
                f"features flatten to {flat.shape[1]}, network wants {input_shape}"
            )
        return flat
    expected = tuple(input_shape)
    if x.ndim == 3 and expected[2] == 1 and x.shape[1:] == expected[:2]:
        x = x[..., None]
    if x.shape[1:] != expected:
        raise ValueError(f"feature shape {x.shape[1:]} does not match {expected}")
    return x


def accuracy(net, features, labels):
    """Fraction of argmax-correct predictions; ties go to the lowest index."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    x = prepare_features(features, net.spec.input_shape)
    preds = np.argmax(net.forward(x), axis=1)
    return float(np.mean(preds == labels))


def train(net, loss, data, cfg):
    """Mini-batch SGD with momentum; aborts on the first non-finite parameter."""
    x = prepare_features(data.train_features, net.spec.input_shape)
    y = np.asarray(data.train_labels)
    if len(y) == 0:
        raise ValueError("empty training set")
    onehot_all = np.eye(net.spec.num_classes)[y]
    result = TrainResult(network=net)
    rng = np.random.default_rng(cfg.seed)
    n = len(y)
    # mis-scaled candidate losses overflow before the finiteness check below
    # catches them; that path is expected, not an error, and the end-of-epoch
    # evaluation must stay quiet about it too
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                take = order[start : start + cfg.batch_size]
                xb = x[take]
                yb = onehot_all[take]
                probs, cache = net._forward_cache(xb)
                values = loss.batch_value(probs, yb)
                loss_sum += float(np.sum(values))
                # objective is the batch mean, so scale per-sample gradients
                dprobs = loss.batch_grad(probs, yb) / len(take)
                grad = net._backward(cache, dprobs)
                net.momentum *= cfg.momentum
                net.momentum += grad
                net.theta -= cfg.learning_rate * net.momentum
                if not np.all(np.isfinite(net.theta)):
                    result.diverged = True
                    result.fail_epoch = epoch
                    return result
            val_acc = accuracy(net, data.val_features, data.val_labels)
            result.curve.append((epoch, loss_sum / n, val_acc))
    return result


def curve_to_csv(curve):
    lines = ["epoch,train_loss,val_accuracy"]
    for epoch, train_loss, val_acc in curve:
        lines.append(f"{epoch},{train_loss:.6f},{val_acc:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Architecture builders and selectors
# ---------------------------------------------------------------------------


def mlp_spec(input_dim, hidden, num_classes, name=None):
    layers = []
    prev = input_dim
    for width in hidden:
        layers += [Dense(prev, width), ReLU()]
        prev = width
    layers.append(Dense(prev, num_classes))
    label = name or ("mlp:" + ",".join(str(h) for h in hidden))
    return NetworkSpec(label, tuple(layers), input_dim, num_classes)


def linear_spec(input_dim, num_classes):
    return NetworkSpec(
        "linear", (Dense(input_dim, num_classes),), input_dim, num_classes
    )


def cnn_spec(side, num_classes, in_ch=1, name="cnn"):
    """Two 5x5 conv blocks with 2x2 pooling, then a 1024-wide dense layer."""
    shape = (side, side, in_ch)
    h = side
    layers = [Conv2D(in_ch, 32, 5), ReLU(), MaxPool(2)]
    h = (h - 4) // 2
    layers += [Conv2D(32, 64, 5), ReLU(), MaxPool(2)]
    h = (h - 4) // 2
    flat = h * h * 64
    layers += [Flatten(), Dense(flat, 1024), ReLU(), Dense(1024, num_classes)]
    return NetworkSpec(name, tuple(layers), shape, num_classes)


def arch_from_selector(text, input_shape, num_classes):
    """Build a NetworkSpec from a CLI selector.

    mlp:<w1,w2,...>  dense stack with the given hidden widths
    linear           single dense layer
    cnn              two conv blocks + dense head (needs square image input)
    """
    if isinstance(input_shape, tuple):
        flat_dim = int(np.prod(input_shape))
    else:
        flat_dim = int(input_shape)
    if text == "linear":
        return linear_spec(flat_dim, num_classes)
    if text == "cnn":
        if not isinstance(input_shape, tuple) or input_shape[0] != input_shape[1]:
            raise ValueError("cnn needs square image input")
        side = input_shape[0]
        ch = input_shape[2] if len(input_shape) > 2 else 1
        return cnn_spec(side, num_classes, in_ch=ch)
    if text.startswith("mlp:"):
        hidden = [int(p) for p in text[4:].split(",") if p]
        if not hidden:
            raise ValueError("mlp selector needs at least one hidden width")
        return mlp_spec(flat_dim, hidden, num_classes, name=text)
    raise ValueError(f"unknown architecture {text!r} (known: mlp:<widths>, linear, cnn)")
