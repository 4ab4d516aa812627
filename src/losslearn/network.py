"""Small feed-forward network engine with a pluggable differentiable loss.

Dense and valid-convolution layers, ReLU, non-overlapping max pooling, a
softmax head, and momentum SGD updated in column blocks. All float64 numpy.
When the process has more CPUs than BLAS has threads (BLAS capped at one
thread on two CPUs, say), the backward pass hands a layer's weight gradient of
at least OVERLAP_WORK multiply-adds to one worker thread while the input
gradient goes on down the stack; the two run the same BLAS calls on the same
operands either way, so the bits do not depend on the worker. Each training
makes its own worker, whose thread starts at its first task and is joined
before train returns or raises, so no thread outlives a training (a process
forked after one inherits none). Processes splits a command's independent
items across forked processes, one per CPU at one BLAS thread, each pinned
to its CPU while it computes; while a sibling process is busy with its
share, it holds the spare CPU, so a step sends nothing to the worker.
A shape is a tuple: (d,) for flat rows, (H, W, ch) for images; a network takes
rows of exactly its input shape, and a dense one on images starts with Flatten.

A Network is a stack of m networks with one spec; one network is m = 1. Its
parameters carry a leading member axis, (m, P), and so do its activations,
(m, n, ...); the shared input batch broadcasts over the members in the first
layer. One training loop advances every member on one batch stream, each
under its own loss; a member that diverges leaves the stack. A training
returns columns, one entry per loss: the clean validation accuracy (0 for a
diverged member), the epoch it diverged in (0 for a survivor) and, if asked,
its curve; the stack it trained holds the survivors afterwards.

A loss plugs in through one method, indexed(probs, labels): (n, C)
predictions and (n,) class indices in, (n,) values and (n, C) gradients out.
The gradient is pushed through the full softmax Jacobian, so losses that are
not cross-entropy-shaped work too. A stack makes one loss call per step: a
population whose loss class offers stacked(losses) (the polynomial losses,
raw or normalized) runs in one pass over (m, n, C) predictions, any other
member by member through indexed, where a polynomial loss runs the
population-of-one call that it keeps itself; no one-hot label matrix is built. A
training validates once, after its last epoch, unless its caller asks for
per-epoch curves; only then do its steps want values, and without them a package
loss is called with values=False, which skips their work (a plug-in loss's are
dropped). Validation scores the whole stack in row chunks of ceil(n / m), so it
holds about one network's activations over the validation set, and never more
than VALIDATION_BUDGET entries of the widest layer output.
"""

import contextlib
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import check_fields
from .reference import _Loss

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
    if len(shape) != 3:
        raise ValueError(f"needs an (H, W, ch) input, got {shape}")
    return shape


@dataclass(frozen=True)
class Dense(_Layer):
    in_dim: int
    out_dim: int

    def output_shape(self, shape):
        if len(shape) != 1:
            raise ValueError(f"needs a flat input, got {shape}")
        if shape[0] != self.in_dim:
            raise ValueError(f"expects {self.in_dim} inputs, got {shape[0]}")
        return (self.out_dim,)

    def param_shapes(self):
        return {"w": (self.in_dim, self.out_dim), "b": (self.out_dim,)}

    def forward(self, params, x, buf):
        shape = params["b"].shape[:-1] + (x.shape[-2], self.out_dim)
        out = np.matmul(x, params["w"], out=_buffer(buf, "y", shape))
        out += params["b"][..., None, :]
        return out, x

    def param_grad(self, grads, x, dy):
        np.matmul(x.swapaxes(-1, -2), dy, out=grads["w"])
        np.add.reduce(dy, axis=-2, out=grads["b"])

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
    """Valid convolution: forward by im2col, one matmul; backward one product per kernel tap."""

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
        np.add.reduce(dy_flat, axis=-2, out=grads["b"])

    def input_grad(self, params, cache, dy, buf):
        x_shape, _ = cache
        *lead, n, oh, ow, _ = dy.shape
        dy_flat = dy.reshape(tuple(lead) + (-1, self.out_ch))
        tap = _buffer(buf, "tap", dy_flat.shape[:-1] + (self.in_ch,))
        dx = np.zeros(x_shape)
        for i in range(self.kernel):
            for j in range(self.kernel):
                np.matmul(dy_flat, params["w"][..., i, j, :, :].swapaxes(-1, -2), out=tap)
                dx[..., i : i + oh, j : j + ow, :] += tap.reshape(tuple(lead) + (n, oh, ow, -1))
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
        if len(shape) == 1:
            raise ValueError("input is already flat")
        return (math.prod(_image_shape(shape)),)

    def forward(self, params, x, buf):
        return x.reshape(x.shape[:-3] + (-1,)), x.shape

    def input_grad(self, params, x_shape, dy, buf):
        return dy.reshape(x_shape)


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple
    input_shape: tuple  # (d,) for flat inputs, (H, W, ch) for images
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if type(self.input_shape) is not tuple:
            raise ValueError(f"input_shape must be (d,) or (H, W, ch), got {self.input_shape!r}")
        first = next((layer for layer in self.layers if not isinstance(layer, Flatten)), None)
        if isinstance(first, ReLU):
            raise ValueError(
                "a ReLU before any Dense, Conv2D or MaxPool would overwrite the batch"
            )
        shape, width = self.input_shape, math.prod(self.input_shape)
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.output_shape(shape)
            except ValueError as exc:
                raise ValueError(f"layer {i} ({type(layer).__name__}): {exc}") from None
            width = max(width, math.prod(shape))
        if shape != (self.num_classes,):
            raise ValueError(
                f"final layer produces {shape}, expected {self.num_classes} classes"
            )
        object.__setattr__(self, "row_width", max(1, width))  # entries in the widest row
        # each layer's parameter count per member, for the backward pass's overlap choice
        sizes = tuple(sum(map(math.prod, layer.param_shapes().values())) for layer in self.layers)
        object.__setattr__(self, "param_counts", sizes)
        # the backward pass needs no input gradient below the lowest layer with parameters
        trained = [i for i, size in enumerate(sizes) if size]
        object.__setattr__(self, "lowest_trained", min(trained, default=len(self.layers)))


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
        shape = (members, sum(spec.param_counts))
        self._bind(np.zeros(shape), np.zeros(shape), np.empty(shape))

    def _bind(self, theta, momentum, grad):
        self.theta, self.momentum, self._grad = theta, momentum, grad
        self._theta_views = self._views(theta)
        self._grad_views = self._views(grad)

    @property
    def num_parameters(self):
        return self.theta.shape[-1]

    def _keep(self, rows):
        """Keep only the given members (a boolean mask over the stack)."""
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
        if x.shape[1:] != self.spec.input_shape:
            raise ValueError(f"batch shape {x.shape[1:]} does not match {self.spec.input_shape}")
        caches = []
        for layer, params, buf in zip(self.spec.layers, self._theta_views, bufs):
            x, cache = layer.forward(params, x, buf)
            caches.append(cache)
        probs = _softmax(x)
        return probs, (caches, probs)

    def _gradient(self, cache, dprobs, bufs, worker=None):
        """The parameter gradient in the gradient buffer, which the next call
        overwrites; layer i takes its arrays from bufs[i], and dprobs is spent.

        Given a worker (train's executor), a layer above the lowest trained one
        whose weight gradient takes at least OVERLAP_WORK multiply-adds (rows of
        dy times its parameter count) runs param_grad on it while this thread
        goes on with input_grad, unless a sibling process of a Processes map
        is still busy on the CPU the worker would take. That holds because a param_grad reads only its
        cache and its dy, and no later input_grad writes into either: ReLU
        writes its dy in place and Flatten returns a view of it, but neither has
        parameters, so neither goes to the worker. Every task's result is taken
        before the call returns, so a task's error is raised here; when an
        error leaves early, the executor's shutdown in train waits out a task
        still running before train raises.
        """
        caches, probs = cache
        # dL/dlogits through the softmax Jacobian, in dprobs: (m, n, C), or (n, C) at m = 1
        dx = dprobs.reshape(probs.shape)
        dx -= _class_fold(np.add, dx * probs)[..., None]
        dx *= probs
        lowest, sizes = self.spec.lowest_trained, self.spec.param_counts
        pending = []
        for i in reversed(range(lowest, len(caches))):
            layer, grads = self.spec.layers[i], self._grad_views[i]
            work = dx.size // dx.shape[-1] * sizes[i]  # the weight gradient's multiply-adds
            if worker and i > lowest and work >= OVERLAP_WORK and _worker_cpu():
                pending.append(worker.submit(layer.param_grad, grads, caches[i], dx))
            else:
                layer.param_grad(grads, caches[i], dx)
            if i > lowest:
                dx = layer.input_grad(self._theta_views[i], caches[i], dx, bufs[i])
        for task in pending:
            task.result()
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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0

    @classmethod
    def of(cls, config):
        """The training fields of a search or grid config, at seed 0."""
        return cls(config.learning_rate, config.momentum, config.batch_size, config.epochs)

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


VALIDATION_BUDGET = 2**20  # 8 MiB of float64
SGD_BLOCK = 2**15  # parameter columns per SGD update pass
OVERLAP_WORK = 2**23  # multiply-adds from which a weight gradient goes to the worker thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


_split = None  # in a Processes map: (the Processes, this process's index in it)


def _cpus():
    """The number of CPUs this process may run on; in a Processes map, which
    pins each process to its own share of them while it computes, the
    command's."""
    if _split is not None:
        return len(_split[0].cpus)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pin(cpus):
    """Run this thread, and threads it starts from now on, on these CPUs only."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def _sibling_busy():
    """Whether another process of the Processes map this one computes in is
    still busy with its units; such a sibling holds the CPU a worker thread
    would take."""
    if _split is None:
        return False
    busy, me = _split[0].busy, _split[1]
    return sum(busy) > busy[me]


def _worker_cpu():
    """Whether the backward pass's worker thread has a CPU now: outside a
    Processes map, always; inside one, once no sibling still computes, and
    then this process, pinned to its share of the CPUs until now, may run
    on all of the command's again."""
    if _sibling_busy():
        return False
    if _split is not None:
        _pin(_split[0].cpus)
    return True


class Processes:
    """Processes for a command's independent items: as many as the CPUs of
    the affinity mask hold with BLAS's threads for each (_blas_threads), so
    one per CPU at one BLAS thread, and just this one at the default of one
    BLAS thread per CPU, where two processes' products made a grid with a CNN
    cell 1.7 times slower.

    map(fn, items, *args) returns the lists that fn(chunk, *args) gives, one
    entry per item, joined in item order. The items go out in units: one
    contiguous chunk per process (the first the largest), or with each=True
    one item per unit, for items of uneven cost. Process i (this one is 0)
    computes unit i, then takes the next unclaimed unit until none is left,
    so one that finishes early takes more; which process computes a unit
    never changes its entries. While it computes, a process keeps to its own
    share of the CPUs. The children get the units over a Pipe, sent
    from this thread: fn goes by name, so it must be a module-level
    function, and units, args and results are pickled. They are forked at
    the first map with two units or more and serve every later one, so one
    CPU, a single unit or a platform without fork forks nothing. A child's
    exception is raised again here once every process is done. Leaving the
    with block, or an error in a map, ends the children by SIGKILL and reaps
    them, so none outlives it; a child whose parent died ends at its pipe's
    end.
    """

    def __init__(self):
        self.children = []  # (pid, connection)
        self.next = self.busy = None  # shared with the children, made at the first fork
        self.cpus = []  # the command's CPUs, read at the first fork
        self.ran = 1  # processes that computed the last map

    def __enter__(self):
        return self

    def __exit__(self, *_):
        self._end()

    def map(self, fn, items, *args, each=False):
        global _split
        n = min(_cpus() // _blas_threads(), len(items)) if hasattr(os, "fork") else 1
        if n < 2:
            self.ran = 1
            return fn(items, *args)
        if each:
            units = [items[i : i + 1] for i in range(len(items))]
        else:
            size, extra = divmod(len(items), n)
            edges = [i * size + min(i, extra) for i in range(n + 1)]
            units = [items[a:b] for a, b in zip(edges, edges[1:])]
        while len(self.children) < n - 1:
            self._fork()
        self.next.value = n  # the first unit left over
        self.busy[:n] = [1] * n  # until each process runs out of units
        for _, conn in self.children[: n - 1]:
            conn.send((fn, units, args, n))
        self.ran, _split = n, (self, 0)
        try:
            done = self._take(fn, units, args, 0, n)
            replies = [conn.recv() for _, conn in self.children[: n - 1]]
        except EOFError:
            self._end()
            raise RuntimeError("a child process ended without sending its results") from None
        except BaseException:
            self._end()  # a child may be busy, or its reply unread
            raise
        finally:
            _split = None
        for ok, part in replies:
            if not ok:
                raise part
            done += part
        entries = dict(done)
        return [entry for i in range(len(units)) for entry in entries[i]]

    def _take(self, fn, units, args, me, n):
        """(index, entries) for unit me and each unit this process claims after
        it, until none is left, computed on process me's share of the CPUs,
        every n-th from the me-th: the kernel was seen to keep two processes
        of a map on one CPU with the other idle. When it stops, however it
        stops, its busy flag is cleared and it may run on every CPU again."""
        done, i = [], me
        _pin(self.cpus[me::n] or self.cpus)
        try:
            while i < len(units):
                done.append((i, fn(units[i], *args)))
                with self.next.get_lock():
                    i = self.next.value
                    self.next.value = i + 1
            return done
        finally:
            self.busy[me] = 0
            _pin(self.cpus)

    def _fork(self):
        from multiprocessing import get_context  # some 15 ms: only once a map forks
        from multiprocessing.connection import Pipe

        if self.next is None:
            context = get_context("fork")
            self.next = context.Value("q", 0)  # the next unclaimed unit, under its lock
            # per process, whether it still computes units; room for any later map's
            self.busy = context.Array("b", max(_cpus(), os.cpu_count() or 1), lock=False)
            self.cpus = sorted(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                               else range(_cpus()))
        here, there = Pipe()
        me = len(self.children) + 1
        with warnings.catch_warnings():
            # Python 3.12+ warns at a fork beside other threads. The only ones are
            # OpenBLAS's, which its own fork handler stops and the child starts
            # anew; train joins its worker thread before it returns
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            here.close()
            self._serve(there, me)
        there.close()
        self.children.append((pid, here))

    def _serve(self, conn, me):
        """A child's life: take units of each map it is sent and send back
        (True, [(index, entries), ...]) or (False, exception), until it is
        killed or its pipe ends; it exits without the parent's exit handlers
        or buffered output."""
        global _split
        _split = (self, me)
        try:
            # a sibling sees its pipe end only once every copy of the parent's end is closed
            for _, sibling in self.children:
                sibling.close()
            while True:
                try:
                    fn, units, args, n = conn.recv()
                except EOFError:
                    break
                try:
                    reply = (True, self._take(fn, units, args, me, n))
                except Exception as exc:  # noqa: BLE001 - raised again in the parent
                    reply = (False, exc)
                try:
                    conn.send(reply)
                except Exception as exc:  # noqa: BLE001 - a reply that does not pickle
                    conn.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        finally:
            os._exit(0)

    def _end(self):
        import signal  # some 1.5 ms: kept off the package import

        children, self.children = self.children, []
        for pid, conn in children:
            conn.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)
        # a child killed while it held the lock would hold it for good
        self.next = self.busy = None


def _blas_threads():
    """The threads OpenBLAS runs a product on: the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set above 0, else one per CPU."""
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return _cpus()


def _spare_cpu():
    """Whether a CPU is left over beside BLAS's threads. Without one, a product
    on the worker thread only competes with the calling thread's: at the
    default of one BLAS thread per CPU, the worker made a 2-CPU CNN run slower."""
    return _cpus() > _blas_threads()


def _backward_worker():
    """One training's worker thread for the backward pass, if a CPU is spare:
    an executor whose thread starts at the first task under the caller's numpy
    error handling (it does not carry over to another thread) and is joined
    when the training's with block exits; else a context holding None."""
    if not _spare_cpu():
        return contextlib.nullcontext()
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="losslearn-grad",
                              initializer=partial(np.seterr, **np.geterr()))


def accuracy(net, features, labels):
    """Each member's fraction of argmax-correct predictions, as a list; ties go
    to the lowest index. Rows go through in chunks of ceil(n / m), so a stack
    of m holds about one network's activations over the whole set, and of at
    most VALIDATION_BUDGET entries of the widest layer output over the stack."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    m = len(net.theta)
    chunk = min(-(-len(labels) // m), max(1, VALIDATION_BUDGET // (m * net.spec.row_width)))
    correct = np.zeros(m, dtype=np.int64)
    for start in range(0, len(labels), chunk):
        probs = net.forward(features[start : start + chunk])
        correct += np.sum(np.argmax(probs, axis=-1) == labels[start : start + chunk], axis=-1)
    return [float(c / len(labels)) for c in correct]


def _loss_call(losses):
    """The one loss call per step for m members: (m, n, C) predictions, (n,)
    label indices and whether values are wanted in; (m, n) values, or None
    when they are not, and (m, n, C) gradients out.

    A population whose class stacks it runs in one pass; any other runs
    member by member through indexed, into arrays kept from call to call,
    where a package loss (decided once, by type) takes the values flag and a
    plug-in's indexed(probs, labels) gives values, dropped when unwanted.
    """
    stacked = getattr(losses[0], "stacked", None)
    fused = stacked(losses) if stacked else None
    if fused is not None:
        return fused
    flagged = [isinstance(loss, _Loss) for loss in losses]
    work = {}

    def member_by_member(probs, labels, values=True):
        out, grads = _buffer(work, "v", probs.shape[:-1]), _buffer(work, "g", probs.shape)
        for k, (loss, flag) in enumerate(zip(losses, flagged)):
            kwargs = {"values": values} if flag else {}
            value, grads[k] = loss.indexed(probs[k], labels, **kwargs)
            if values:
                out[k] = value
        return out if values else None, grads

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


def _sgd_step(net, loss_call, xb, yb, cfg, bufs, values, worker=None):
    """One SGD step of every member on one batch; returns each member's loss
    sum if values, else None. worker, if given, takes large weight gradients."""
    probs, cache = net._forward_cache(xb, bufs)
    loss_values, grads = loss_call(probs, yb, values)
    grads /= len(xb)  # objective is the batch mean, so scale per-sample gradients
    grad = net._gradient(cache, grads, bufs, worker)
    for s in range(0, net.num_parameters, SGD_BLOCK):  # column blocks, each updated while in cache
        theta, momentum, g = (a[:, s : s + SGD_BLOCK] for a in (net.theta, net.momentum, grad))
        momentum *= cfg.momentum
        momentum += g
        # the gradient is spent, so its buffer takes the step instead of a new array
        theta -= np.multiply(cfg.learning_rate, momentum, out=g)
    return loss_values.sum(axis=-1) if values else None


def train(net, losses, data, cfg, curves=False):
    """Mini-batch SGD with momentum; returns (accuracy, fail_epoch, curves).

    A stack of m trains under a sequence of m losses, member k under loss k,
    on one batch stream. Each column holds one entry per loss: accuracy is
    an (m,) float array of clean validation accuracies, fail_epoch an (m,)
    int array, and curves a list of m lists. A member whose parameters turn
    non-finite leaves the stack at that step: its fail_epoch is that epoch
    and it scores 0. A member that survives has fail_epoch 0 and is
    validated once, after the last epoch (at init if no epochs run). With
    curves, the survivors are validated after every epoch instead, and each
    member keeps its (epoch, train_loss, val_accuracy) curve, whose last
    point is a survivor's accuracy; without, every curve is empty.
    Afterwards net holds the surviving members, in order.
    """
    losses = list(losses)
    if len(losses) != len(net.theta):
        raise ValueError(f"{len(losses)} losses for a stack of {len(net.theta)}")
    x = np.asarray(data.train_features, dtype=float)
    y = np.asarray(data.train_labels)
    if len(y) == 0:
        raise ValueError("empty training set")
    scores = np.zeros(len(losses))
    fail_epoch = np.zeros(len(losses), dtype=int)
    member_curves = [[] for _ in losses]
    alive = np.arange(len(losses))  # the loss behind each member of the stack
    loss_call = _loss_call(losses)
    bufs = [{} for _ in net.spec.layers]  # each layer's arrays, kept across steps
    rng = np.random.default_rng(cfg.seed)
    n = len(y)
    val_accs = None
    # mis-scaled candidate losses overflow before the finiteness check below
    # catches them; that path is expected, not an error, and the validation
    # must stay quiet about it too. The worker copies this error handling, and
    # its thread is joined before train returns or raises
    with np.errstate(over="ignore", invalid="ignore"), _backward_worker() as worker:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            loss_sums = np.zeros(len(alive))
            for start in range(0, n, cfg.batch_size):
                take = order[start : start + cfg.batch_size]
                sums = _sgd_step(net, loss_call, x[take], y[take], cfg, bufs, curves, worker)
                if curves:
                    loss_sums += sums
                finite = np.isfinite(net.theta).all(axis=-1)
                if finite.all():
                    continue
                fail_epoch[alive[~finite]] = epoch
                alive = alive[finite]
                net._keep(finite)
                if not len(alive):
                    return scores, fail_epoch, member_curves
                loss_sums = loss_sums[finite]
                loss_call = _loss_call([losses[j] for j in alive])
            if curves:
                val_accs = accuracy(net, data.val_features, data.val_labels)
                for j, loss_sum, val_acc in zip(alive, loss_sums, val_accs):
                    member_curves[j].append((epoch, float(loss_sum / n), val_acc))
        if val_accs is None:  # no curves, or no epochs
            val_accs = accuracy(net, data.val_features, data.val_labels)
    scores[alive] = val_accs
    return scores, fail_epoch, member_curves


def fit_many(spec, losses, data, init_seed, cfg, curves=False):
    """Initialize and train one network per loss: the job behind every command.

    The networks share the init and every batch; only the loss differs.
    Returns train's (accuracy, fail_epoch, curves) columns, one entry per
    loss: a diverged network scores 0 and has the epoch it failed in, a
    survivor fail_epoch 0. Each network is validated once, after its last
    epoch; with curves, after every epoch, else every curve is [].
    """
    if not losses:
        return np.zeros(0), np.zeros(0, dtype=int), []
    return train(init(spec, init_seed, len(losses)), losses, data, cfg, curves)


# ---------------------------------------------------------------------------
# Architecture builders and selectors
# ---------------------------------------------------------------------------


def mlp_spec(input_dim, hidden, num_classes):
    layers = []
    prev = input_dim
    for width in hidden:
        layers += [Dense(prev, width), ReLU()]
        prev = width
    layers.append(Dense(prev, num_classes))
    return NetworkSpec(tuple(layers), (input_dim,), num_classes)


def cnn_spec(side, num_classes, in_ch=1):
    """Two 5x5 conv blocks with 2x2 pooling, then a 1024-wide dense layer. A block pools
    before its ReLU: max pooling commutes with ReLU, bit for bit, and the ReLU does a quarter."""
    h = ((side - 4) // 2 - 4) // 2  # each block: a valid 5x5 conv, then 2x2 pooling
    layers = (
        Conv2D(in_ch, 32, 5), MaxPool(2), ReLU(), Conv2D(32, 64, 5), MaxPool(2), ReLU(),
        Flatten(), Dense(h * h * 64, 1024), ReLU(), Dense(1024, num_classes),
    )
    return NetworkSpec(layers, (side, side, in_ch), num_classes)


def arch_from_selector(text, input_shape, num_classes):
    """Build a NetworkSpec from a CLI selector for rows of input_shape, a
    dataset's features.shape[1:]: (d,) flat or (H, W, ch) images.

    mlp:<w1,w2,...>  dense stack with the given hidden widths, after Flatten on images
    linear           single dense layer, after Flatten on images
    cnn              two conv blocks + dense head (needs square image input)
    """
    if text == "cnn":
        if len(input_shape) != 3 or input_shape[0] != input_shape[1]:
            raise ValueError("cnn needs square image input")
        return cnn_spec(input_shape[0], num_classes, in_ch=input_shape[2])
    if text == "linear":
        hidden = []
    elif text.startswith("mlp:"):
        hidden = [int(p) for p in text[4:].split(",") if p]
        if not hidden or min(hidden) < 1:
            raise ValueError(f"mlp selector needs hidden widths of at least 1, got {text!r}")
    else:
        raise ValueError(f"unknown architecture {text!r} (known: mlp:<widths>, linear, cnn)")
    flatten = (Flatten(),) if len(input_shape) > 1 else ()
    layers = mlp_spec(math.prod(input_shape), hidden, num_classes).layers
    return NetworkSpec(flatten + layers, input_shape, num_classes)
