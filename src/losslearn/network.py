"""Small feed-forward network engine with a pluggable differentiable loss.

Dense and valid-convolution layers, ReLU, non-overlapping max pooling, a
softmax head, and mini-batch SGD with momentum. Everything is float64 numpy.
The loss plugs in through two methods, batch_value(probs, onehot) -> (n,)
and batch_grad(probs, onehot) -> (n, C); the gradient is pushed through the
full softmax Jacobian so losses that are not cross-entropy-shaped work too.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Layers: each knows its output shape, parameters, forward and backward pass
# ---------------------------------------------------------------------------


class _Layer:
    """Defaults for a layer without parameters.

    forward(params, x) returns (y, cache); param_grad(grads, cache, dy) fills
    the layer's gradient views in place; input_grad(params, cache, dy) returns
    dL/dx. output_shape raises a plain ValueError for an input the layer
    cannot take.
    """

    def param_shapes(self):
        return {}

    def param_grad(self, grads, cache, dy):
        pass


def _image_shape(shape):
    if isinstance(shape, int) or len(shape) != 3:
        raise ValueError(f"needs an (H, W, ch) input, got {shape}")
    return shape


@dataclass(frozen=True)
class Dense(_Layer):
    in_dim: int
    out_dim: int

    def output_shape(self, shape):
        if not isinstance(shape, int):
            raise ValueError(f"needs a flat input, got {shape}")
        if shape != self.in_dim:
            raise ValueError(f"expects {self.in_dim} inputs, got {shape}")
        return self.out_dim

    def param_shapes(self):
        return {"w": (self.in_dim, self.out_dim), "b": (self.out_dim,)}

    def forward(self, params, x):
        return x @ params["w"] + params["b"], x

    def param_grad(self, grads, x, dy):
        grads["w"][...] = x.T @ dy
        grads["b"][...] = dy.sum(axis=0)

    def input_grad(self, params, x, dy):
        return dy @ params["w"].T


@dataclass(frozen=True)
class ReLU(_Layer):
    def output_shape(self, shape):
        return shape

    def forward(self, params, x):
        return np.maximum(x, 0.0), x

    def input_grad(self, params, x, dy):
        return dy * (x > 0.0)


@dataclass(frozen=True)
class Conv2D(_Layer):
    """Valid convolution by im2col: one matmul over all k x k windows."""

    in_ch: int
    out_ch: int
    kernel: int

    def output_shape(self, shape):
        h, w, ch = _image_shape(shape)
        if ch != self.in_ch:
            raise ValueError(f"expects {self.in_ch} channels, got {ch}")
        if h < self.kernel or w < self.kernel:
            raise ValueError(f"kernel {self.kernel} too large for {h}x{w}")
        return (h - self.kernel + 1, w - self.kernel + 1, self.out_ch)

    def param_shapes(self):
        k = self.kernel
        return {"w": (k, k, self.in_ch, self.out_ch), "b": (self.out_ch,)}

    def forward(self, params, x):
        k = self.kernel
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
        # windows: (n, oh, ow, in_ch, k, k) -> columns (n*oh*ow, k*k*in_ch)
        n, oh, ow = windows.shape[:3]
        cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, -1)
        wmat = params["w"].reshape(-1, self.out_ch)
        out = cols @ wmat + params["b"]
        return out.reshape(n, oh, ow, self.out_ch), (x.shape, cols)

    def param_grad(self, grads, cache, dy):
        _, cols = cache
        dy_flat = dy.reshape(-1, self.out_ch)
        grads["w"][...] = (cols.T @ dy_flat).reshape(grads["w"].shape)
        grads["b"][...] = dy_flat.sum(axis=0)

    def input_grad(self, params, cache, dy):
        k = self.kernel
        x_shape, _ = cache
        n, oh, ow, _ = dy.shape
        wmat = params["w"].reshape(-1, self.out_ch)
        dcols = (dy.reshape(-1, self.out_ch) @ wmat.T).reshape(n, oh, ow, k, k, -1)
        dx = np.zeros(x_shape)
        for i in range(k):
            for j in range(k):
                dx[:, i : i + oh, j : j + ow, :] += dcols[:, :, :, i, j, :]
        return dx


@dataclass(frozen=True)
class MaxPool(_Layer):
    """Non-overlapping size x size max pooling; the first max in a tile wins."""

    size: int

    def output_shape(self, shape):
        h, w, ch = _image_shape(shape)
        if h % self.size or w % self.size:
            raise ValueError(f"{h}x{w} not divisible by pool size {self.size}")
        return (h // self.size, w // self.size, ch)

    def forward(self, params, x):
        s = self.size
        n, h, w, ch = x.shape
        oh, ow = h // s, w // s
        tiles = x.reshape(n, oh, s, ow, s, ch).transpose(0, 1, 3, 2, 4, 5)
        tiles = tiles.reshape(n, oh, ow, s * s, ch)
        best = np.argmax(tiles, axis=3)
        out = np.take_along_axis(tiles, best[:, :, :, None, :], axis=3)[:, :, :, 0, :]
        return out, (x.shape, best)

    def input_grad(self, params, cache, dy):
        s = self.size
        x_shape, best = cache
        n, oh, ow, ch = dy.shape
        dtiles = np.zeros((n, oh, ow, s * s, ch))
        np.put_along_axis(dtiles, best[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
        dtiles = dtiles.reshape(n, oh, ow, s, s, ch).transpose(0, 1, 3, 2, 4, 5)
        return dtiles.reshape(x_shape)


@dataclass(frozen=True)
class Flatten(_Layer):
    def output_shape(self, shape):
        if isinstance(shape, int):
            raise ValueError("input is already flat")
        return math.prod(shape)

    def forward(self, params, x):
        return x.reshape(x.shape[0], -1), x.shape

    def input_grad(self, params, x_shape, dy):
        return dy.reshape(x_shape)


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
            try:
                shape = layer.output_shape(shape)
            except ValueError as exc:
                raise ValueError(f"layer {i} ({type(layer).__name__}): {exc}") from None
        if shape != self.num_classes:
            raise ValueError(
                f"final layer produces {shape}, expected {self.num_classes} classes"
            )


# ---------------------------------------------------------------------------
# Network state
# ---------------------------------------------------------------------------


class Network:
    """Mutable parameter state for one training job. Not thread-shared."""

    def __init__(self, spec):
        self.spec = spec
        shapes = [s for layer in spec.layers for s in layer.param_shapes().values()]
        size = sum(math.prod(shape) for shape in shapes)
        self.theta = np.zeros(size)
        self.momentum = np.zeros(size)
        # theta is only ever updated in place, so these views stay valid
        self._theta_views = self._views(self.theta)

    @property
    def num_parameters(self):
        return self.theta.size

    def _views(self, vector):
        """Per layer, its named parameters as views into a flat vector."""
        out, offset = [], 0
        for layer in self.spec.layers:
            views = {}
            for name, shape in layer.param_shapes().items():
                size = math.prod(shape)
                views[name] = vector[offset : offset + size].reshape(shape)
                offset += size
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
        for layer, params in zip(self.spec.layers, self._theta_views):
            x, cache = layer.forward(params, x)
            caches.append(cache)
        probs = _softmax(x)
        return probs, (caches, probs)

    def _backward(self, cache, dprobs):
        caches, probs = cache
        # dL/dlogits through the softmax Jacobian, row by row
        dot = np.sum(dprobs * probs, axis=1, keepdims=True)
        dx = probs * (dprobs - dot)
        grad = np.zeros_like(self.theta)
        grads = self._views(grad)
        for i in reversed(range(len(caches))):
            layer, params = self.spec.layers[i], self._theta_views[i]
            layer.param_grad(grads[i], caches[i], dx)
            if i:  # nothing uses the gradient with respect to the input batch
                dx = layer.input_grad(params, caches[i], dx)
        return grad


def init(spec, seed):
    """Deterministic He-style uniform init; zero biases."""
    net = Network(spec)
    rng = np.random.default_rng(seed)
    for views in net._theta_views:
        if "w" in views:
            limit = np.sqrt(6.0 / math.prod(views["w"].shape[:-1]))  # fan-in
            views["w"][...] = rng.uniform(-limit, limit, views["w"].shape)
    return net


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
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValueError(f"batch_size must be an integer >= 1, got {self.batch_size!r}")
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ValueError(f"epochs must be an integer >= 0, got {self.epochs!r}")


@dataclass
class TrainResult:
    network: Network
    diverged: bool = False
    fail_epoch: int = None
    curve: list = field(default_factory=list)  # (epoch, train_loss, val_accuracy)

    @property
    def final_accuracy(self):
        return self.curve[-1][2] if self.curve else None


def input_shape_of(features):
    """Network input shape for a feature array: the row width, or (H, W, 1)."""
    shape = features.shape[1:]
    return int(shape[0]) if len(shape) == 1 else (shape[0], shape[1], 1)


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


def fit(spec, loss, data, init_seed, cfg):
    """Initialize, train and score one network: the job behind every command.

    Returns (clean validation accuracy, diverged, curve); a diverged job
    scores 0.
    """
    net = init(spec, init_seed)
    result = train(net, loss, data, cfg)
    if result.diverged:
        return 0.0, True, result.curve
    acc = result.final_accuracy
    if acc is None:  # no epochs ran
        acc = accuracy(net, data.val_features, data.val_labels)
    return acc, False, result.curve


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
