"""Dense NCHW tensors, primitive layer operations and reverse-mode differentiation.

Every value flowing through the network is a 4-D ``Tensor`` of 32-bit floats
(64-bit in oracle mode).  The primitive operations below are pure functions;
when a :class:`Tape` is active they additionally record enough state to replay
the computation backwards and accumulate gradients into leaves.

Conventions, fixed once for the whole stack:

* convolution is cross-correlation (no kernel flip), zero padding;
* max pooling pads with ``-inf`` so padding never wins a window;
* reductions use numpy's summation order, which is deterministic for a fixed
  shape and thread count.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf, expit

__all__ = [
    "Tensor", "Parameter", "Tape", "ShapeError", "DomainError", "TapeError",
    "tensor", "zeros", "conv2d", "depthwise_conv2d", "batch_norm",
    "layer_norm", "activation", "silu", "gelu", "sigmoid", "relu",
    "elementwise", "add", "mul", "broadcast_mul", "scale",
    "concat_channels", "split_channels", "upsample_nearest2x", "max_pool",
    "space_to_depth_2x2", "global_avg_pool", "global_max_pool",
    "channel_mean", "channel_max", "grad_check", "mac_counter",
]

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327


class ShapeError(ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class DomainError(ValueError):
    """A numeric argument is outside its valid domain."""


class TapeError(RuntimeError):
    """Invalid use of an autodiff tape (e.g. consumed twice)."""


class Tensor:
    """Immutable dense 4-D (batch, channel, height, width) float array.

    ``copy=False`` freezes the given array in place; it is reserved for
    freshly computed arrays nothing else references.
    """

    __slots__ = ("data", "_param")

    def __init__(self, data, copy=True):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are 4-D NCHW, got ndim={arr.ndim}")
        copied = False
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
            copied = True
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
            copied = True
        if arr.flags.writeable:
            if copy and not copied:
                arr = arr.copy()
            arr.flags.writeable = False
        self.data = arr
        self._param = None  # weak back-reference set by Parameter

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def numpy(self):
        """Read-only view of the underlying array."""
        return self.data

    def astype(self, dtype):
        return Tensor(self.data.astype(dtype), copy=False)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def tensor(data, dtype=None):
    """Build a Tensor from array-like data.

    Float inputs keep their precision; everything else becomes float32.
    Arrays of rank < 4 gain leading unit dimensions.
    """
    arr = np.asarray(data)
    if dtype is None:
        dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
    arr = np.asarray(arr, dtype=dtype)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr)


def zeros(shape, dtype=np.float32):
    return Tensor(np.zeros(shape, dtype=dtype), copy=False)


class Parameter:
    """Named trainable value (or buffer) of a layer.

    Values of rank 1-3 are stored as 4-D tensors with unit dimensions; the
    logical shape is kept for serialization.  ``grad`` is populated by
    :meth:`Tape.backward` and is ``None`` until then.
    """

    def __init__(self, logical_shape, init=("const", 0.0), trainable=True):
        self.logical_shape = tuple(int(d) for d in logical_shape)
        if not 1 <= len(self.logical_shape) <= 4:
            raise ShapeError("parameter rank must be 1..4")
        self.init = init
        self.trainable = trainable
        self.name = None          # assigned when the owning tree is finalized
        self._value = None
        self.grad = None

    @property
    def storage_shape(self):
        s = self.logical_shape
        if len(s) == 4:
            return s
        if len(s) == 1:
            return (1, s[0], 1, 1)
        return (1,) * (4 - len(s)) + s

    @property
    def value(self):
        if self._value is None:
            raise RuntimeError(f"parameter {self.name!r} not materialized")
        return self._value

    def set(self, array):
        """Replace the value; shape must match (logical or storage)."""
        arr = np.asarray(array, dtype=np.float32)
        if arr.shape == self.logical_shape:
            arr = arr.reshape(self.storage_shape)
        if arr.shape != self.storage_shape:
            raise ShapeError(
                f"parameter {self.name!r} expects {self.logical_shape}, got {arr.shape}")
        self._assign(Tensor(arr))

    def materialize(self, seed, name):
        self.name = name
        kind = self.init[0]
        if kind == "const":
            arr = np.full(self.storage_shape, self.init[1], dtype=np.float32)
        elif kind == "kaiming":
            # unit-gain Kaiming-uniform: bound sqrt(3/fan_in) keeps activation
            # variance flat through the multiplicative interaction stack; the
            # relu-gain bound sqrt(6/fan_in) overflows float32 at full depth
            fan_in = self.init[1]
            bound = float(np.sqrt(3.0 / fan_in))
            u = _named_uniform(seed, name, self.storage_shape)
            arr = ((2.0 * u - 1.0) * bound).astype(np.float32)
        else:
            raise ValueError(f"unknown init kind {kind!r}")
        self._assign(Tensor(arr, copy=False))

    def _assign(self, t):
        # weak, so a dropped layer tree is freed by reference counting alone
        t._param = weakref.ref(self)
        self._value = t

    def count(self):
        n = 1
        for d in self.logical_shape:
            n *= d
        return n


_MASK64 = (1 << 64) - 1


def _splitmix64_stream(state, count):
    """Deterministic 64-bit stream; the one RNG used for weight init.

    The i-th draw mixes ``state + (i+1) * golden``; uint64 arithmetic wraps
    modulo 2**64 by construction.
    """
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(state & _MASK64) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _fnv1a64(text):
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _named_uniform(seed, name, shape):
    """Uniform [0,1) values keyed by (seed, name); independent of build order."""
    state = (int(seed) & _MASK64) ^ _fnv1a64(name)
    bits = _splitmix64_stream(state, int(np.prod(shape)))
    return ((bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))).reshape(shape)


# ---------------------------------------------------------------------------
# autodiff tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE = None
_MAC_COUNTER = None


class _Node:
    __slots__ = ("output", "parents", "fn")

    def __init__(self, output, parents, fn):
        self.output = output
        self.parents = parents
        self.fn = fn


class Tape:
    """Ordered record of primitive operations for one reverse replay.

    Use as a context manager around the forward; then call :meth:`backward`
    once.  Gradients of parameters are written to ``Parameter.grad``;
    gradients of plain input tensors are read back with :meth:`grad_for`.
    """

    def __init__(self):
        self._nodes = []
        self._consumed = False
        self._grads = None

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _record(self, output, parents, fn):
        self._nodes.append(_Node(output, parents, fn))

    def backward(self, output_grad, output=None):
        """Accumulate gradients of sum(output * output_grad) into all leaves."""
        if self._consumed:
            raise TapeError("tape already consumed; record a new forward")
        if not self._nodes:
            raise TapeError("empty tape")
        self._consumed = True
        root = output if output is not None else self._nodes[-1].output
        if output_grad.shape != root.shape:
            raise ShapeError(
                f"output_grad shape {output_grad.shape} != traced output {root.shape}")
        grads = {id(root): np.asarray(output_grad.data, dtype=root.dtype)}
        produced = {id(n.output) for n in self._nodes}
        for node in reversed(self._nodes):
            g = grads.pop(id(node.output), None)
            if g is None:
                continue
            for parent, pg in zip(node.parents, node.fn(g)):
                if pg is None:
                    continue
                key = id(parent)
                prev = grads.get(key)
                grads[key] = pg if prev is None else prev + pg
        # whatever is left belongs to leaves (inputs and parameters)
        leaves = {}
        for node in self._nodes:
            for parent in node.parents:
                if id(parent) not in produced:
                    leaves[id(parent)] = parent
        self._grads = {}
        for key, leaf in leaves.items():
            g = grads.get(key)
            if g is None:
                g = np.zeros(leaf.shape, dtype=leaf.dtype)
            self._grads[key] = g
            param = leaf._param() if leaf._param is not None else None
            if param is not None:
                param.grad = Tensor(np.asarray(g, dtype=np.float32)
                                    if leaf.dtype == np.float32 else g)

    def grad_for(self, x):
        """Gradient of the traced reduction w.r.t. leaf tensor ``x``."""
        if self._grads is None:
            raise TapeError("backward has not run")
        g = self._grads.get(id(x))
        if g is None:
            g = np.zeros(x.shape, dtype=x.dtype)
        return Tensor(g)


def _tape():
    return _ACTIVE_TAPE


class mac_counter:
    """Context manager counting the multiply-accumulates of executed primitives.

    Counts are per image: each operation charges the MACs of one image of the
    shape it actually produced, by the README convention, so a batch-0
    forward counts what one image costs without computing anything.  Every
    layer called inside the context opens a scope named by its dotted path
    (the path ``named_parameters`` uses).  A charge adds to ``macs`` and to
    the innermost open scope in ``scope_macs``; ``outputs`` keeps each
    layer's first output shape, in the order the layers first return.
    """

    def __init__(self):
        self.macs = 0
        self.scope_macs = {}    # dotted layer name -> MACs of ops run directly in it
        self.outputs = {}       # dotted layer name -> output shape(s), by first return
        self.scopes = []        # names of the layers being called, innermost last
        self.layer_names = {}   # id(layer) -> dotted name under the top-level call

    def __enter__(self):
        global _MAC_COUNTER
        if _MAC_COUNTER is not None:
            raise RuntimeError("a MAC counter is already active")
        _MAC_COUNTER = self
        return self

    def __exit__(self, *exc):
        global _MAC_COUNTER
        _MAC_COUNTER = None
        return False

    def _charge(self, macs):
        self.macs += macs
        if self.scopes:
            scope = self.scopes[-1]
            self.scope_macs[scope] = self.scope_macs.get(scope, 0) + macs


def _count_macs(shape, per_element=1):
    """Charge ``per_element`` MACs per element of one image of ``shape``."""
    if _MAC_COUNTER is not None:
        _MAC_COUNTER._charge(math.prod(shape[1:]) * per_element)


# ---------------------------------------------------------------------------
# convolution family
# ---------------------------------------------------------------------------

def _check_conv_args(k, stride, padding):
    if k < 1:
        raise DomainError(f"kernel size must be >= 1, got {k}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DomainError(f"padding must be >= 0, got {padding}")


def _pad_nchw(x, padding, value=0.0):
    if padding == 0:
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * padding, w + 2 * padding), value, dtype=x.dtype)
    out[:, :, padding:padding + h, padding:padding + w] = x
    return out


def _out_hw(h, w, k, stride, padding):
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {k} does not fit input {h}x{w} with padding {padding}")
    return ho, wo


def _windows(xp, k, stride):
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _scatter_windows(dwin, xp_shape, k, stride, padding, out_shape):
    """Adjoint of window extraction: accumulate (n,c,Ho,Wo,k,k) into NCHW."""
    n, c, h, w = out_shape
    dxp = np.zeros(xp_shape, dtype=dwin.dtype)
    ho, wo = dwin.shape[2], dwin.shape[3]
    for u in range(k):
        for v in range(k):
            dxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += dwin[:, :, :, :, u, v]
    if padding:
        dxp = dxp[:, :, padding:padding + h, padding:padding + w]
    return dxp


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Standard 2-D cross-correlation, weight (c_out, c_in, k, k)."""
    co, ci, k, k2 = weight.shape
    if k != k2:
        raise ShapeError("only square kernels are supported")
    _check_conv_args(k, stride, padding)
    n, c, h, w = x.shape
    if c != ci:
        raise ShapeError(f"conv2d expects {ci} input channels, got {c}")
    ho, wo = _out_hw(h, w, k, stride, padding)
    xp = _pad_nchw(x.data, padding)
    win = _windows(xp, k, stride)
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n, ho * wo, ci * k * k)
    w2 = weight.data.reshape(co, ci * k * k)
    out = (cols @ w2.T).transpose(0, 2, 1).reshape(n, co, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(1, co, 1, 1)
    _count_macs(out.shape, ci * k * k)
    y = Tensor(out, copy=False)
    t = _tape()
    if t is not None:
        parents = [x, weight] + ([bias] if bias is not None else [])

        def backward(g):
            g2 = g.reshape(n, co, ho * wo).transpose(0, 2, 1)
            dw = np.einsum("npo,npq->oq", g2, cols).reshape(weight.shape)
            dcols = (g2 @ w2).reshape(n, ho, wo, ci, k, k).transpose(0, 3, 1, 2, 4, 5)
            dx = _scatter_windows(dcols, xp.shape, k, stride, padding, x.shape)
            grads = [dx, dw]
            if bias is not None:
                grads.append(g.sum(axis=(0, 2, 3)).reshape(bias.shape))
            return grads

        t._record(y, parents, backward)
    return y


def depthwise_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Per-channel 2-D cross-correlation, weight (c, 1, k, k)."""
    c_w, one, k, k2 = weight.shape
    if one != 1 or k != k2:
        raise ShapeError("depthwise weight must have shape (c, 1, k, k)")
    _check_conv_args(k, stride, padding)
    n, c, h, w = x.shape
    if c != c_w:
        raise ShapeError(f"depthwise_conv2d expects {c_w} channels, got {c}")
    ho, wo = _out_hw(h, w, k, stride, padding)
    xp = _pad_nchw(x.data, padding)
    win = _windows(xp, k, stride)
    w3 = weight.data.reshape(c, k, k)
    out = np.einsum("nchwuv,cuv->nchw", win, w3)
    if bias is not None:
        out = out + bias.data.reshape(1, c, 1, 1)
    _count_macs(out.shape, k * k)
    y = Tensor(out, copy=False)
    t = _tape()
    if t is not None:
        parents = [x, weight] + ([bias] if bias is not None else [])

        def backward(g):
            dw = np.einsum("nchwuv,nchw->cuv", win, g).reshape(weight.shape)
            dwin = np.einsum("nchw,cuv->nchwuv", g, w3)
            dx = _scatter_windows(dwin, xp.shape, k, stride, padding, x.shape)
            grads = [dx, dw]
            if bias is not None:
                grads.append(g.sum(axis=(0, 2, 3)).reshape(bias.shape))
            return grads

        t._record(y, parents, backward)
    return y


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _vec(v, c, name):
    arr = v.data if isinstance(v, Tensor) else np.asarray(v)
    flat = arr.reshape(-1)
    if flat.shape[0] != c:
        raise ShapeError(f"{name} must have length {c}, got {flat.shape[0]}")
    return flat


def batch_norm(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """Channel-wise batch normalization with the running statistics."""
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    n, c, h, w = x.shape
    ga = _vec(gamma, c, "gamma")
    be = _vec(beta, c, "beta")
    rm = _vec(running_mean, c, "running_mean")
    rv = _vec(running_var, c, "running_var")
    inv = 1.0 / np.sqrt(rv + eps)
    xhat = (x.data - rm.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
    out = xhat * ga.reshape(1, c, 1, 1) + be.reshape(1, c, 1, 1)
    _count_macs(out.shape)
    y = Tensor(out, copy=False)
    t = _tape()
    if t is not None:
        parents = [x]
        if isinstance(gamma, Tensor):
            parents.append(gamma)
        if isinstance(beta, Tensor):
            parents.append(beta)
        scale_ = (ga * inv).reshape(1, c, 1, 1)

        def backward(g):
            grads = [g * scale_]
            if isinstance(gamma, Tensor):
                grads.append((g * xhat).sum(axis=(0, 2, 3)).reshape(gamma.shape))
            if isinstance(beta, Tensor):
                grads.append(g.sum(axis=(0, 2, 3)).reshape(beta.shape))
            return grads

        t._record(y, parents, backward)
    return y


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize over the channel dimension independently at each location."""
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    n, c, h, w = x.shape
    ga = _vec(gamma, c, "gamma").reshape(1, c, 1, 1)
    be = _vec(beta, c, "beta").reshape(1, c, 1, 1)
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = xhat * ga + be
    _count_macs(out.shape)
    y = Tensor(out, copy=False)
    t = _tape()
    if t is not None:
        parents = [x]
        if isinstance(gamma, Tensor):
            parents.append(gamma)
        if isinstance(beta, Tensor):
            parents.append(beta)

        def backward(g):
            dxhat = g * ga
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            dx = (dxhat - m1 - xhat * m2) * inv
            grads = [dx]
            if isinstance(gamma, Tensor):
                grads.append((g * xhat).sum(axis=(0, 2, 3)).reshape(gamma.shape))
            if isinstance(beta, Tensor):
                grads.append(g.sum(axis=(0, 2, 3)).reshape(beta.shape))
            return grads

        t._record(y, parents, backward)
    return y


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def activation(x, kind):
    """Element-wise nonlinearity: silu, gelu (exact erf form), sigmoid or relu."""
    v = x.data
    if kind == "silu":
        s = expit(v)
        out = v * s
        deriv = lambda: s * (1.0 + v * (1.0 - s))
    elif kind == "gelu":
        cdf = 0.5 * (1.0 + erf(v * _INV_SQRT2))
        out = v * cdf
        deriv = lambda: cdf + v * np.exp(-0.5 * v * v) * _INV_SQRT2PI
    elif kind == "sigmoid":
        out = expit(v)
        deriv = lambda: out * (1.0 - out)
    elif kind == "relu":
        out = np.maximum(v, 0.0)
        deriv = lambda: (v > 0).astype(v.dtype)
    else:
        raise DomainError(f"unknown activation {kind!r}")
    _count_macs(out.shape)
    y = Tensor(out, copy=False)
    t = _tape()
    if t is not None:
        t._record(y, [x], lambda g, d=deriv: [g * d()])
    return y


def silu(x):
    return activation(x, "silu")


def gelu(x):
    return activation(x, "gelu")


def sigmoid(x):
    return activation(x, "sigmoid")


def relu(x):
    return activation(x, "relu")


# ---------------------------------------------------------------------------
# element-wise arithmetic
# ---------------------------------------------------------------------------

def elementwise(x, y, op):
    """Strict same-shape element-wise 'mul' or 'add'."""
    if x.shape != y.shape:
        raise ShapeError(f"elementwise shapes differ: {x.shape} vs {y.shape}")
    if op == "add":
        out = Tensor(x.data + y.data, copy=False)
        bw = lambda g: [g, g]
    elif op == "mul":
        out = Tensor(x.data * y.data, copy=False)
        bw = lambda g: [g * y.data, g * x.data]
    else:
        raise DomainError(f"op must be 'mul' or 'add', got {op!r}")
    _count_macs(out.shape)
    t = _tape()
    if t is not None:
        t._record(out, [x, y], bw)
    return out


def add(x, y):
    return elementwise(x, y, "add")


def mul(x, y):
    return elementwise(x, y, "mul")


def broadcast_mul(x, a):
    """Multiply by an attention map broadcast over singleton dims of ``a``."""
    for dx, da in zip(x.shape, a.shape):
        if da != dx and da != 1:
            raise ShapeError(f"cannot broadcast {a.shape} over {x.shape}")
    out = Tensor(x.data * a.data, copy=False)
    _count_macs(out.shape)
    t = _tape()
    if t is not None:
        axes = tuple(i for i, (dx, da) in enumerate(zip(x.shape, a.shape))
                     if da == 1 and dx != 1)

        def backward(g):
            da = (g * x.data).sum(axis=axes, keepdims=True) if axes else g * x.data
            return [g * a.data, da]

        t._record(out, [x, a], backward)
    return out


def scale(x, factor):
    """Multiply by a Python scalar constant."""
    f = float(factor)
    out = Tensor(x.data * f, copy=False)
    _count_macs(out.shape)
    t = _tape()
    if t is not None:
        t._record(out, [x], lambda g: [g * f])
    return out


# ---------------------------------------------------------------------------
# reshape family
# ---------------------------------------------------------------------------

def concat_channels(xs):
    """Concatenate along the channel dimension; (n, h, w) must agree."""
    if not xs:
        raise ShapeError("concat_channels needs at least one tensor")
    n, _, h, w = xs[0].shape
    for x in xs[1:]:
        if (x.shape[0], x.shape[2], x.shape[3]) != (n, h, w):
            raise ShapeError(f"concat shapes disagree: {[x.shape for x in xs]}")
    out = Tensor(np.concatenate([x.data for x in xs], axis=1), copy=False)
    t = _tape()
    if t is not None:
        sizes = [x.shape[1] for x in xs]
        offsets = np.cumsum([0] + sizes)

        def backward(g):
            return [g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes))]

        t._record(out, list(xs), backward)
    return out


def split_channels(x, sizes):
    """Split along channels into chunks of the given sizes."""
    if sum(sizes) != x.shape[1]:
        raise ShapeError(f"split sizes {sizes} do not sum to {x.shape[1]} channels")
    if any(s <= 0 for s in sizes):
        raise ShapeError("split sizes must be positive")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    t = _tape()
    for i in range(len(sizes)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        y = Tensor(x.data[:, lo:hi])
        if t is not None:
            def backward(g, lo=lo, hi=hi):
                full = np.zeros(x.shape, dtype=g.dtype)
                full[:, lo:hi] = g
                return [full]
            t._record(y, [x], backward)
        outs.append(y)
    return outs


def upsample_nearest2x(x):
    """Double h and w by nearest-neighbor replication."""
    out = Tensor(x.data.repeat(2, axis=2).repeat(2, axis=3), copy=False)
    t = _tape()
    if t is not None:
        n, c, h, w = x.shape

        def backward(g):
            return [g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))]

        t._record(out, [x], backward)
    return out


def max_pool(x, k, stride=1, padding=0):
    """Max pooling; padding uses -inf so it never wins a window."""
    _check_conv_args(k, stride, padding)
    n, c, h, w = x.shape
    ho, wo = _out_hw(h, w, k, stride, padding)
    xp = _pad_nchw(x.data, padding, value=-np.inf)
    win = _windows(xp, k, stride).reshape(n, c, ho, wo, k * k)
    idx = win.argmax(axis=4)
    out = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
    y = Tensor(out, copy=False)
    t = _tape()
    if t is not None:
        def backward(g):
            dxp = np.zeros(xp.shape, dtype=g.dtype)
            u, v = idx // k, idx % k
            ii, jj = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
            rows = ii * stride + u
            cols_ = jj * stride + v
            nn = np.arange(n)[:, None, None, None]
            cc = np.arange(c)[None, :, None, None]
            np.add.at(dxp, (np.broadcast_to(nn, rows.shape),
                            np.broadcast_to(cc, rows.shape), rows, cols_), g)
            if padding:
                dxp = dxp[:, :, padding:padding + h, padding:padding + w]
            return [dxp]

        t._record(y, [x], backward)
    return y


def space_to_depth_2x2(x):
    """2x2 space-to-depth: (n, c, h, w) -> (n, 4c, h/2, w/2)."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"space_to_depth needs even spatial dims, got {h}x{w}")
    phases = [(0, 0), (1, 0), (0, 1), (1, 1)]
    out = Tensor(np.concatenate(
        [x.data[:, :, ph::2, pw::2] for ph, pw in phases], axis=1), copy=False)
    t = _tape()
    if t is not None:
        def backward(g):
            dx = np.zeros(x.shape, dtype=g.dtype)
            for i, (ph, pw) in enumerate(phases):
                dx[:, :, ph::2, pw::2] = g[:, i * c:(i + 1) * c]
            return [dx]

        t._record(out, [x], backward)
    return out


# ---------------------------------------------------------------------------
# pooling reductions used by attention
# ---------------------------------------------------------------------------

def global_avg_pool(x):
    """Mean over (h, w) -> (n, c, 1, 1)."""
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True), copy=False)
    _count_macs(x.shape)
    t = _tape()
    if t is not None:
        n, c, h, w = x.shape

        def backward(g):
            return [np.broadcast_to(g / (h * w), x.shape).copy()]

        t._record(out, [x], backward)
    return out


def global_max_pool(x):
    """Max over (h, w) -> (n, c, 1, 1)."""
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    out = Tensor(np.take_along_axis(flat, idx[..., None], axis=2).reshape(n, c, 1, 1), copy=False)
    t = _tape()
    if t is not None:
        def backward(g):
            dflat = np.zeros(flat.shape, dtype=g.dtype)
            np.put_along_axis(dflat, idx[..., None], g.reshape(n, c, 1), axis=2)
            return [dflat.reshape(x.shape)]

        t._record(out, [x], backward)
    return out


def channel_mean(x):
    """Mean over channels -> (n, 1, h, w)."""
    out = Tensor(x.data.mean(axis=1, keepdims=True), copy=False)
    _count_macs(x.shape)
    t = _tape()
    if t is not None:
        c = x.shape[1]

        def backward(g):
            return [np.broadcast_to(g / c, x.shape).copy()]

        t._record(out, [x], backward)
    return out


def channel_max(x):
    """Max over channels -> (n, 1, h, w)."""
    idx = x.data.argmax(axis=1, keepdims=True)
    out = Tensor(np.take_along_axis(x.data, idx, axis=1), copy=False)
    t = _tape()
    if t is not None:
        def backward(g):
            dx = np.zeros(x.shape, dtype=g.dtype)
            np.put_along_axis(dx, idx, g, axis=1)
            return [dx]

        t._record(out, [x], backward)
    return out


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(fn, x, seed=0, step=1e-5, sample=None):
    """Compare reverse-mode gradients of ``fn`` against central differences.

    Runs in 64-bit mode.  Returns the max over checked coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.  ``sample``
    limits the check to a seeded random subset of input coordinates (the
    analytic side always covers all of them).
    """
    x64 = Tensor(x.data.astype(np.float64))
    y1 = fn(x64)
    y2 = fn(x64)
    if y1.data.tobytes() != y2.data.tobytes():
        raise RuntimeError("fn is not deterministic under a fixed seed")
    rng = np.random.default_rng(seed)
    g_out = rng.uniform(-1.0, 1.0, size=y1.shape)
    with Tape() as tape:
        y = fn(x64)
    tape.backward(Tensor(g_out), output=y)
    analytic = tape.grad_for(x64).data.reshape(-1)

    coords = np.arange(x64.size)
    if sample is not None and sample < coords.size:
        coords = np.sort(rng.choice(coords, size=sample, replace=False))
    base = x64.data.copy()
    flat = base.reshape(-1)
    max_err = 0.0
    for i in coords:
        v = flat[i]
        h = step * max(1.0, abs(v))
        flat[i] = v + h
        vp = flat[i]
        yp = fn(Tensor(base)).data
        flat[i] = v - h
        vm = flat[i]
        ym = fn(Tensor(base)).data
        flat[i] = v
        # difference-then-dot keeps untouched outputs exactly zero, and the
        # realized step vp - vm absorbs the rounding of v +/- h
        numeric = float(np.sum((yp - ym) * g_out)) / (vp - vm)
        a = analytic[i]
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        if err > max_err:
            max_err = err
    return max_err
