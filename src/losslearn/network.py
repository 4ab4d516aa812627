"""Small feed-forward network engine with a pluggable differentiable loss.

Dense and valid-convolution layers, ReLU, non-overlapping max pooling, a
softmax head, and mini-batch SGD with momentum. Everything is float64 numpy.

A Network is a stack of m networks with one spec; one network is m = 1. Its
parameters carry a leading member axis, (m, P), and so do its activations,
(m, n, ...); the shared input batch broadcasts over the members in the first
layer. One training loop advances every member on one batch stream, each
under its own loss; a member that diverges leaves the stack.

A loss plugs in through one method, indexed(probs, labels): (n, C)
predictions and (n,) class indices in, (n,) values and (n, C) gradients out.
The gradient is pushed through the full softmax Jacobian, so losses that are
not cross-entropy-shaped work too. A stack makes one loss call per step: a
population whose loss class offers stacked(losses) (the normalized polynomial
losses) runs in one pass over (m, n, C) predictions, any other member by
member through indexed, where a polynomial loss runs the population-of-one
call that it keeps itself; no one-hot label matrix is built. Validation scores
the whole stack in row chunks of ceil(n / m), so it holds about one network's
activations over the validation set, and never more than VALIDATION_BUDGET
entries of the widest layer output.
"""

import copy
import math
import sys
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin

import numpy as np

# ---------------------------------------------------------------------------
# Layers: each knows its output shape, parameters, forward and backward pass
# ---------------------------------------------------------------------------


class _Layer:
    """Defaults for a layer without parameters.

    forward(params, x, buf) returns (y, cache); param_grad(grads, cache, dy)
    fills the layer's gradient views in place; input_grad(params, cache, dy,
    buf) returns dL/dx. buf is the layer's own dict of arrays that it may
    reuse from call to call. output_shape raises a plain ValueError for an
    input the layer cannot take.

    Parameters carry a leading member axis, (m, *shape), and activations are
    (m, n, ...), except the shared input batch, which broadcasts over the
    members in the first layer.
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

    def forward(self, params, x, buf):
        shape = params["b"].shape[:-1] + (x.shape[-2], self.out_dim)
        out = np.matmul(x, params["w"], out=_buffer(buf, "y", shape))
        out += params["b"][..., None, :]
        return out, x

    def param_grad(self, grads, x, dy):
        np.matmul(x.swapaxes(-1, -2), dy, out=grads["w"])
        grads["b"][...] = dy.sum(axis=-2)

    def input_grad(self, params, x, dy, buf):
        return np.matmul(dy, params["w"].swapaxes(-1, -2), out=_buffer(buf, "dx", x.shape))


@dataclass(frozen=True)
class ReLU(_Layer):
    """max(x, 0) in place on the fresh output of the layer before.

    It caches its output, whose positive entries are where x's were (NaN
    included), so the input is not kept alive.
    """

    def output_shape(self, shape):
        return shape

    def forward(self, params, x, buf):
        np.maximum(x, 0.0, out=x)
        return x, x

    def input_grad(self, params, out, dy, buf):
        dy *= out > 0.0  # dy is the fresh input gradient of the layer above
        return dy


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

    def _wmat(self, params):
        w = params["w"]
        return w.reshape(w.shape[:-4] + (-1, self.out_ch))

    def forward(self, params, x, buf):
        k = self.kernel
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(-3, -2))
        # windows: (..., n, oh, ow, in_ch, k, k) -> columns (..., n*oh*ow, k*k*in_ch)
        lead = windows.shape[:-6]
        n, oh, ow = windows.shape[-6:-3]
        cols = np.moveaxis(windows, -3, -1).reshape(lead + (n * oh * ow, -1))
        out = cols @ self._wmat(params)
        out += params["b"][..., None, :]
        return out.reshape(out.shape[:-2] + (n, oh, ow, self.out_ch)), (x.shape, cols)

    def param_grad(self, grads, cache, dy):
        _, cols = cache
        dy_flat = dy.reshape(dy.shape[:-4] + (-1, self.out_ch))
        grads["w"][...] = (cols.swapaxes(-1, -2) @ dy_flat).reshape(grads["w"].shape)
        grads["b"][...] = dy_flat.sum(axis=-2)

    def input_grad(self, params, cache, dy, buf):
        k = self.kernel
        x_shape, _ = cache
        *lead, n, oh, ow, _ = dy.shape
        dy_flat = dy.reshape(tuple(lead) + (-1, self.out_ch))
        dcols = dy_flat @ self._wmat(params).swapaxes(-1, -2)
        dcols = dcols.reshape(tuple(lead) + (n, oh, ow, k, k, -1))
        dx = np.zeros(x_shape)
        for i in range(k):
            for j in range(k):
                dx[..., i : i + oh, j : j + ow, :] += dcols[..., i, j, :]
        return dx


@dataclass(frozen=True)
class MaxPool(_Layer):
    """Non-overlapping size x size max pooling; the first max in a tile wins.

    The forward folds the tile positions' strided views with np.maximum, last
    to first; on a tie np.maximum returns its second argument, the earlier
    position, so the bits are argmax's, signed zeros included. The backward
    gives each tile's gradient to the first position equal to its max. A ReLU
    right after the pool rewrites the cached output in place, but only in
    tiles whose max is <= 0, and its backward zeroes exactly their gradients.
    """

    size: int

    def output_shape(self, shape):
        h, w, ch = _image_shape(shape)
        if h % self.size or w % self.size:
            raise ValueError(f"{h}x{w} not divisible by pool size {self.size}")
        return (h // self.size, w // self.size, ch)

    def _tiles(self, x):
        """The strided view of each tile position over x, first to last."""
        s = self.size
        return [x[..., i::s, j::s, :] for i in range(s) for j in range(s)]

    def forward(self, params, x, buf):
        *earlier, last = self._tiles(x)
        out = last.copy()
        for view in reversed(earlier):
            np.maximum(out, view, out=out)
        return out, (x, out)

    def input_grad(self, params, cache, dy, buf):
        x, out = cache
        dx = np.empty(x.shape)
        free = np.ones(out.shape, dtype=bool)  # tiles whose max is not found yet
        hit = np.empty(out.shape, dtype=bool)
        for view, dview in zip(self._tiles(x), self._tiles(dx)):
            np.equal(view, out, out=hit)
            hit &= free
            free ^= hit
            np.multiply(dy, hit, out=dview)
        return dx


@dataclass(frozen=True)
class Flatten(_Layer):
    def output_shape(self, shape):
        if isinstance(shape, int):
            raise ValueError("input is already flat")
        return math.prod(_image_shape(shape))

    def forward(self, params, x, buf):
        return x.reshape(x.shape[:-3] + (-1,)), x.shape

    def input_grad(self, params, x_shape, dy, buf):
        return dy.reshape(x_shape)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    layers: tuple
    input_shape: object  # int for flat inputs, (H, W, ch) for images
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        first = next((layer for layer in self.layers if not isinstance(layer, Flatten)), None)
        if isinstance(first, ReLU):
            raise ValueError(
                "a ReLU before any Dense, Conv2D or MaxPool would overwrite the batch"
            )
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

    @property
    def row_width(self):
        """Entries in the widest of one row's input and layer outputs, at least 1."""
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.output_shape(shapes[-1]))
        return max(1, *(int(np.prod(shape)) for shape in shapes))


# ---------------------------------------------------------------------------
# Network state
# ---------------------------------------------------------------------------


class Network:
    """Mutable parameter state of a stack of m networks; one network is m = 1.

    theta, momentum and the one gradient buffer are (m, P). They are only
    ever updated in place, so the cached per-layer views of theta and of the
    gradient stay valid. Not thread-shared.
    """

    def __init__(self, spec, members=1):
        self.spec = spec
        shapes = [s for layer in spec.layers for s in layer.param_shapes().values()]
        shape = (members, sum(map(math.prod, shapes)))
        self._bind(np.zeros(shape), np.zeros(shape), np.empty(shape))

    def _bind(self, theta, momentum, grad):
        self.theta, self.momentum, self._grad = theta, momentum, grad
        self._theta_views = self._views(theta)
        self._grad_views = self._views(grad)

    @property
    def num_parameters(self):
        return self.theta.shape[-1]

    def member(self, k):
        """Member k as a stack of one on views of row k."""
        net = copy.copy(self)
        rows = slice(k, k + 1)
        net._bind(self.theta[rows], self.momentum[rows], self._grad[rows])
        return net

    def _keep(self, rows):
        """Keep only the given members; networks from member() keep the old rows."""
        self._bind(self.theta[rows], self.momentum[rows], self._grad[rows])

    def _views(self, vector):
        """Per layer, its named parameters as views into a (P,) or (m, P) vector."""
        out, offset, lead = [], 0, vector.shape[:-1]
        for layer in self.spec.layers:
            views = {}
            for name, shape in layer.param_shapes().items():
                size = math.prod(shape)
                views[name] = vector[..., offset : offset + size].reshape(lead + shape)
                offset += size
            out.append(views)
        return out

    def forward(self, batch):
        """(m, n, C) class probabilities of every member."""
        probs, _ = self._forward_cache(batch, [{} for _ in self.spec.layers])
        return probs

    def _forward_cache(self, batch, bufs):
        """Probabilities and the backward pass's cache; layer i keeps its arrays in bufs[i]."""
        x = np.asarray(batch, dtype=float)
        expected = self.spec.input_shape
        expected = (expected,) if isinstance(expected, int) else tuple(expected)
        if x.shape[1:] != expected:
            raise ValueError(f"batch shape {x.shape[1:]} does not match {expected}")
        caches = []
        for layer, params, buf in zip(self.spec.layers, self._theta_views, bufs):
            x, cache = layer.forward(params, x, buf)
            caches.append(cache)
        probs = _softmax(x)
        return probs, (caches, probs)

    def _gradient(self, cache, dprobs, bufs):
        """The parameter gradient in the gradient buffer, which the next call
        overwrites; layer i takes its arrays from bufs[i]."""
        caches, probs = cache
        # dL/dlogits through the softmax Jacobian, row by row
        dot = _class_fold(np.add, dprobs * probs)[..., None]
        dx = probs * (dprobs - dot)
        for i in reversed(range(len(caches))):
            layer, params = self.spec.layers[i], self._theta_views[i]
            layer.param_grad(self._grad_views[i], caches[i], dx)
            if not i:  # nothing uses the gradient with respect to the input batch
                break
            dx = layer.input_grad(params, caches[i], dx, bufs[i])
        return self._grad


def init(spec, seed, members=1):
    """Deterministic He-style uniform init, zero biases; a stack of ``members``
    networks starts as that many copies of the one init."""
    net = Network(spec, members)
    rng = np.random.default_rng(seed)
    for layer, views in zip(spec.layers, net._theta_views):
        shape = layer.param_shapes().get("w")
        if shape:
            limit = np.sqrt(6.0 / math.prod(shape[:-1]))  # fan-in
            views["w"][...] = rng.uniform(-limit, limit, shape)
    return net


def _softmax(logits):
    e = np.exp(logits - _class_fold(np.maximum, logits)[..., None])
    e /= _class_fold(np.add, e)[..., None]
    return e


def _class_fold(ufunc, x):
    """ufunc.reduce(x, axis=-1) bit for bit, folded column by column.

    A maximum is exact in any order. numpy adds an axis shorter than 8 left to
    right at the cost of one reduction per row, which the fold saves; from 8
    on numpy sums pairwise, so its sum is kept there.
    """
    if ufunc is np.add and x.shape[-1] >= 8:
        return x.sum(axis=-1)
    out = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        ufunc(out, x[..., j], out=out)
    return out


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


# annotation -> (what one value must be, what array elements must be, a test of
# one value); a bool is no integer, and NaN, Infinity or 10**400 fits no float
_FIELD_TYPES = {
    int: ("an integer", "integers", lambda v: type(v) is int),
    float: ("a finite number", "finite numbers",
            lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    str: ("a string", "strings", lambda v: isinstance(v, str)),
    bool: ("true or false", "booleans", lambda v: type(v) is bool),
    tuple: ("an array", "arrays", lambda v: isinstance(v, (list, tuple))),
}


def check_fields(config):
    """ValueError unless each field of dataclass config fits its annotation
    (None too where the default is None); a tuple[T, ...] field needs a list of
    T, and an array field is stored as a tuple."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.default is None and value is None:
            continue
        base = get_origin(f.type) or f.type
        kind, _, fits = _FIELD_TYPES[base]
        if not fits(value):
            null = " or null" if f.default is None else ""
            raise ValueError(f"{f.name} must be {kind}{null}, got {value!r}")
        if get_args(f.type):  # tuple[T, ...]
            _, kinds, fits = _FIELD_TYPES[get_args(f.type)[0]]
            if not all(fits(v) for v in value):
                raise ValueError(f"{f.name} must be {kinds}, got {value!r}")
        if base is tuple:
            object.__setattr__(config, f.name, tuple(value))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0

    @classmethod
    def of(cls, config, seed=0):
        """The training fields of a search or grid config, at this seed."""
        return cls(config.learning_rate, config.momentum, config.batch_size, config.epochs, seed)

    def __post_init__(self):
        check_fields(self)
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs!r}")


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


VALIDATION_BUDGET = 2**20  # 8 MiB of float64


def accuracy(net, features, labels):
    """Each member's fraction of argmax-correct predictions, as a list; ties go
    to the lowest index. Rows go through in chunks of ceil(n / m), so a stack
    of m holds about one network's activations over the whole set, and of at
    most VALIDATION_BUDGET entries of the widest layer output over the stack."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    x = prepare_features(features, net.spec.input_shape)
    m = len(net.theta)
    chunk = min(-(-len(labels) // m), max(1, VALIDATION_BUDGET // (m * net.spec.row_width)))
    correct = np.zeros(m, dtype=np.int64)
    for start in range(0, len(labels), chunk):
        probs = net.forward(x[start : start + chunk])
        correct += np.sum(np.argmax(probs, axis=-1) == labels[start : start + chunk], axis=-1)
    return [float(c / len(labels)) for c in correct]


def _loss_call(losses):
    """The one loss call per step for m members: (m, n, C) predictions and
    (n,) label indices in, (m, n) values and (m, n, C) gradients out.

    A population whose class stacks it runs in one pass; any other runs member
    by member through each loss's indexed call, into arrays kept from call to
    call. A polynomial member's indexed call is its own population of one,
    built once by the loss itself.
    """
    stacked = getattr(losses[0], "stacked", None)
    fused = stacked(losses) if stacked else None
    if fused is not None:
        return fused
    work = {}

    def member_by_member(probs, labels):
        values, grads = _buffer(work, "v", probs.shape[:-1]), _buffer(work, "g", probs.shape)
        for k, loss in enumerate(losses):
            values[k], grads[k] = loss.indexed(probs[k], labels)
        return values, grads

    return member_by_member


def _buffer(buf, key, shape):
    """The array of this shape kept in buf under key, reused from step to step.

    Allocated afresh, a stack's large activations made the heap grow and
    shrink by them every step; the page faults cost a search-mlp pass about a
    sixth of its time. The old array goes before the new one is allocated, so
    a change of shape never holds both.
    """
    if key not in buf or buf[key].shape != shape:
        buf[key] = None
        buf[key] = np.empty(shape)
    return buf[key]


def _sgd_step(net, loss_call, xb, yb, cfg, bufs):
    """One SGD step of every member on one batch; returns each member's loss sum."""
    probs, cache = net._forward_cache(xb, bufs)
    values, grads = loss_call(probs, yb)
    # objective is the batch mean, so scale per-sample gradients
    grad = net._gradient(cache, grads / len(xb), bufs)
    net.momentum *= cfg.momentum
    net.momentum += grad
    # the gradient is spent, so its buffer takes the step instead of a new array
    net.theta -= np.multiply(cfg.learning_rate, net.momentum, out=grad)
    return values.sum(axis=-1)


def train(net, losses, data, cfg):
    """Mini-batch SGD with momentum.

    A stack of m trains under a sequence of m losses, member k under loss k,
    on one batch stream, and gives m TrainResults. A member whose parameters
    turn non-finite leaves the stack at that step, flagged diverged, with its
    curve so far.
    """
    losses = list(losses)
    if len(losses) != len(net.theta):
        raise ValueError(f"{len(losses)} losses for a stack of {len(net.theta)}")
    x = prepare_features(data.train_features, net.spec.input_shape)
    y = np.asarray(data.train_labels)
    if len(y) == 0:
        raise ValueError("empty training set")
    results = [TrainResult(network=None) for _ in losses]
    alive = list(range(len(losses)))  # the result behind each member of the stack
    loss_call = _loss_call(losses)
    bufs = [{} for _ in net.spec.layers]  # each layer's arrays, kept across steps
    rng = np.random.default_rng(cfg.seed)
    n = len(y)
    # mis-scaled candidate losses overflow before the finiteness check below
    # catches them; that path is expected, not an error, and the end-of-epoch
    # evaluation must stay quiet about it too
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            loss_sums = np.zeros(len(alive))
            for start in range(0, n, cfg.batch_size):
                take = order[start : start + cfg.batch_size]
                loss_sums += _sgd_step(net, loss_call, x[take], y[take], cfg, bufs)
                finite = np.isfinite(net.theta).all(axis=-1)
                if finite.all():
                    continue
                for k in np.flatnonzero(~finite):
                    results[alive[k]].diverged = True
                    results[alive[k]].fail_epoch = epoch
                    results[alive[k]].network = net.member(k)
                alive = [j for j, ok in zip(alive, finite) if ok]
                if not alive:
                    return results
                net._keep(finite)
                loss_sums = loss_sums[finite]
                loss_call = _loss_call([losses[j] for j in alive])
            val_accs = accuracy(net, data.val_features, data.val_labels)
            for j, loss_sum, val_acc in zip(alive, loss_sums, val_accs):
                results[j].curve.append((epoch, float(loss_sum / n), val_acc))
    for k, j in enumerate(alive):
        results[j].network = net.member(k)
    return results


def fit_many(spec, losses, data, init_seed, cfg):
    """Initialize, train and score one network per loss: the job behind every command.

    The networks share the init and every batch; only the loss differs.
    Returns one (clean validation accuracy, diverged, curve) per loss; a
    diverged network scores 0.
    """
    if not losses:
        return []
    scored = []
    for result in train(init(spec, init_seed, len(losses)), losses, data, cfg):
        acc = result.final_accuracy
        if result.diverged:
            acc = 0.0
        elif acc is None:  # no epochs ran
            (acc,) = accuracy(result.network, data.val_features, data.val_labels)
        scored.append((acc, result.diverged, result.curve))
    return scored


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


def cnn_spec(side, num_classes, in_ch=1, name="cnn"):
    """Two 5x5 conv blocks with 2x2 pooling, then a 1024-wide dense layer."""
    h = ((side - 4) // 2 - 4) // 2  # each block: a valid 5x5 conv, then 2x2 pooling
    layers = (
        Conv2D(in_ch, 32, 5), ReLU(), MaxPool(2), Conv2D(32, 64, 5), ReLU(), MaxPool(2),
        Flatten(), Dense(h * h * 64, 1024), ReLU(), Dense(1024, num_classes),
    )
    return NetworkSpec(name, layers, (side, side, in_ch), num_classes)


def arch_from_selector(text, input_shape, num_classes):
    """Build a NetworkSpec from a CLI selector.

    mlp:<w1,w2,...>  dense stack with the given hidden widths
    linear           single dense layer
    cnn              two conv blocks + dense head (needs square image input)
    """
    flat_dim = int(math.prod(input_shape) if isinstance(input_shape, tuple) else input_shape)
    if text == "linear":
        return mlp_spec(flat_dim, [], num_classes, name="linear")
    if text == "cnn":
        if not isinstance(input_shape, tuple) or input_shape[0] != input_shape[1]:
            raise ValueError("cnn needs square image input")
        side = input_shape[0]
        ch = input_shape[2] if len(input_shape) > 2 else 1
        return cnn_spec(side, num_classes, in_ch=ch)
    if text.startswith("mlp:"):
        hidden = [int(p) for p in text[4:].split(",") if p]
        if not hidden or min(hidden) < 1:
            raise ValueError(f"mlp selector needs hidden widths of at least 1, got {text!r}")
        return mlp_spec(flat_dim, hidden, num_classes, name=text)
    raise ValueError(f"unknown architecture {text!r} (known: mlp:<widths>, linear, cnn)")
