"""Dense NCHW tensors, primitive layer operations and reverse-mode differentiation.

Every value flowing through the network is a 4-D ``Tensor`` of 32-bit floats
(64-bit in oracle mode).  The primitive operations below are pure functions;
when a :class:`Tape` is active they additionally record enough state to replay
the computation backwards and accumulate gradients into leaves.

Conventions, fixed once for the whole stack:

* convolution is cross-correlation (no kernel flip), zero padding;
* max pooling pads with ``-inf`` so padding never wins a window;
* reductions use numpy's summation order, which is deterministic for a fixed
  shape and thread count;
* the output does not depend on the worker count: the heavy kernels split
  fixed blocks of work across the CPUs the process may run on, and every
  block is the same numpy call at any count.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

__all__ = [
    "Tensor", "Parameter", "Tape", "ShapeError", "DomainError", "TapeError",
    "tensor", "zeros", "conv2d", "depthwise_conv2d", "batch_norm",
    "layer_norm", "activation", "silu", "gelu", "sigmoid", "relu",
    "elementwise", "add", "mul", "broadcast_mul", "scale", "residual_interaction",
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

    __slots__ = ("data",)

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


def tensor(data):
    """Build a Tensor from array-like data.

    Float inputs keep their precision; everything else becomes float32.
    Arrays of rank < 4 gain leading unit dimensions.
    """
    arr = np.asarray(data)
    while arr.ndim < 4:
        arr = arr[None]
    return Tensor(arr)


def zeros(shape, dtype=np.float32):
    return Tensor(np.zeros(shape, dtype=dtype), copy=False)


class Parameter:
    """Named trainable value (or buffer) of a layer.

    Values of rank 1-3 are stored as 4-D tensors with unit dimensions; the
    logical shape is kept for serialization.  A gradient is read from the
    tape that recorded the forward: ``tape.grad_for(p.value)``.
    """

    def __init__(self, logical_shape, init=("const", 0.0), trainable=True):
        self.logical_shape = tuple(int(d) for d in logical_shape)
        if not 1 <= len(self.logical_shape) <= 4:
            raise ShapeError("parameter rank must be 1..4")
        self.init = init
        self.trainable = trainable
        self.name = None          # written by the walk from its tree's root
        self._value = None

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
        """Replace the value with an array of the logical shape."""
        arr = np.asarray(array, dtype=np.float32)
        if arr.shape != self.logical_shape:
            raise ShapeError(
                f"parameter {self.name!r} expects {self.logical_shape}, got {arr.shape}")
        self._value = Tensor(arr.reshape(self.storage_shape))

    def clear(self):
        """Drop the value; reading it raises until it is set again."""
        self._value = None

    def materialize(self, seed):
        if self.name is None:
            raise RuntimeError("parameter has no name to key its seeded init; "
                               "walk its tree from the root first")
        kind = self.init[0]
        if kind == "const":
            arr = np.full(self.storage_shape, self.init[1], dtype=np.float32)
        elif kind == "kaiming":
            # unit-gain Kaiming-uniform: bound sqrt(3/fan_in) keeps activation
            # variance flat through the multiplicative interaction stack; the
            # relu-gain bound sqrt(6/fan_in) overflows float32 at full depth
            fan_in = self.init[1]
            arr = _seeded_uniform(seed, self.name, self.storage_shape, float(np.sqrt(3.0 / fan_in)))
        else:
            raise ValueError(f"unknown init kind {kind!r}")
        self._value = Tensor(arr, copy=False)

    def count(self):
        n = 1
        for d in self.logical_shape:
            n *= d
        return n


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# splitmix64's xor-shift and multiply rounds, then the shift to 53 bits
_SPLITMIX = tuple(np.uint64(c) for c in (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, 11))

# Draws per block of the seeded init: the block's two 2^18-byte scratch
# buffers and its output stay in a core's cache through its 13 passes.
_INIT_BLOCK = 1 << 15


def _fnv1a64(text):
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _seeded_uniform(seed, name, shape, bound):
    """float32 values ``(2u - 1) * bound``, ``u`` uniform on [0, 1), keyed by
    (seed, name) and so independent of build order; the one weight init.

    Draw ``i`` is splitmix64 of ``state + (i+1) * golden`` (uint64 wraps)
    and ``u`` is its top 53 bits times 2^-53.  A draw depends on its index
    alone, so blocks of ``_INIT_BLOCK`` draws are split across workers, each
    in place in a worker's scratch, and the bytes do not depend on the
    worker count.  The value is the float64 ``(2u - 1) * bound`` rounded to
    float32, computed exactly that way (see ``run``).
    """
    state = (int(seed) & _MASK64) ^ _fnv1a64(name)
    out = np.empty(shape, np.float32)
    dst = out.reshape(-1)
    n = dst.size
    step = max(1, min(n, _INIT_BLOCK))
    # per call and one block long at most: a module-level ramp would stay
    # resident in every process that imports the package
    ramp = np.arange(1, step + 1, dtype=np.uint64)
    ramp *= np.uint64(_GOLDEN)
    s1, m1, s2, m2, s3, s53 = _SPLITMIX
    scale = bound * 2.0 ** -52

    def run(first, last, scratch):
        for i in range(first * step, min(last * step, n), step):
            z, t = scratch[:, :min(step, n - i)]
            np.add(ramp[:z.size], np.uint64((state + i * _GOLDEN) & _MASK64), out=z)
            z ^= np.right_shift(z, s1, out=t)
            z *= m1
            z ^= np.right_shift(z, s2, out=t)
            z *= m2
            z ^= np.right_shift(z, s3, out=t)
            np.right_shift(z, s53, out=t)
            # 2u - 1 is exactly x * 2^-52 for the integer x = t - 2^52, so
            # (2u - 1) * bound rounds once, as x * (bound * 2^-52) does;
            # |x| <= 2^52 converts exactly, and from int64 faster than from
            # uint64
            x = t.view(np.int64)
            x -= 1 << 52
            v = np.multiply(x, scale, out=z.view(np.float64))
            dst[i:i + v.size] = v

    _parallel_for(-(-n // step), run, 1, scratch=((2, step), np.uint64))
    return out


# ---------------------------------------------------------------------------
# autodiff tape and MAC counter
# ---------------------------------------------------------------------------

# The open tape and counter of the running thread; a thread starts with none,
# so a tape or counter never sees work another thread runs.
_ACTIVE_TAPE = ContextVar("drsinet_tape", default=None)
_MAC_COUNTER = ContextVar("drsinet_mac_counter", default=None)


class _Active:
    """Context manager that makes ``self`` the one open instance of its kind
    in the current thread; opening a second one raises ``_busy``."""

    def __enter__(self):
        if self._slot.get() is not None:
            error, message = self._busy
            raise error(message)
        self._token = self._slot.set(self)
        return self

    def __exit__(self, *exc):
        self._slot.reset(self._token)
        return False


class Tape(_Active):
    """Ordered record of primitive operations for one reverse replay.

    Use as a context manager around the forward; then call :meth:`backward`
    once.  The gradient of every leaf, an input or a parameter's value, is
    read back with :meth:`grad_for`.
    Parents that are not tensors (a ``None`` bias, a plain-array gamma) get
    no gradient.
    """

    _slot = _ACTIVE_TAPE
    _busy = (TapeError, "a tape is already active")

    def __init__(self):
        self._nodes = []        # (output, parents, backward) per primitive call
        self._consumed = False
        self._grads = None

    def backward(self, output_grad, output=None):
        """Accumulate gradients of sum(output * output_grad) into all leaves."""
        if self._consumed:
            raise TapeError("tape already consumed; record a new forward")
        if not self._nodes:
            raise TapeError("empty tape")
        self._consumed = True
        root = output if output is not None else self._nodes[-1][0]
        if output_grad.shape != root.shape:
            raise ShapeError(
                f"output_grad shape {output_grad.shape} != traced output {root.shape}")
        grads = {id(root): np.asarray(output_grad.data, dtype=root.dtype)}
        for out, parents, fn in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for parent, pg in zip(parents, fn(g)):
                if pg is None or not isinstance(parent, Tensor):
                    continue
                key = id(parent)
                prev = grads.get(key)
                grads[key] = pg if prev is None else prev + pg
        # a node pops its output's entry, so what is left belongs to leaves
        self._grads = grads

    def grad_for(self, x):
        """Gradient of the traced reduction w.r.t. leaf tensor ``x``."""
        if self._grads is None:
            raise TapeError("backward has not run")
        g = self._grads.get(id(x))
        if g is None:
            g = np.zeros(x.shape, dtype=x.dtype)
        return Tensor(g)


class mac_counter(_Active):
    """Context manager counting the multiply-accumulates of executed primitives.

    Counts are per image: each operation charges the MACs of one image of the
    shape it actually produced, by the README convention, so a batch-0
    forward counts what one image costs without computing anything.  Every
    layer called inside the context opens a scope named by the dotted path
    ``Layer.name_tree`` wrote.  A charge adds to ``macs`` and to the
    innermost open scope in ``scope_macs``; ``outputs`` keeps each layer's
    first output shape, in the order the layers first return.
    """

    _slot = _MAC_COUNTER
    _busy = (RuntimeError, "a MAC counter is already active")

    def __init__(self):
        self.macs = 0
        self.scope_macs = {}    # dotted layer name -> MACs of ops run directly in it
        self.outputs = {}       # dotted layer name -> output shape(s), by first return
        self.scopes = []        # names of the layers being called, innermost last

    def _charge(self, macs):
        self.macs += macs
        if self.scopes:
            scope = self.scopes[-1]
            self.scope_macs[scope] = self.scope_macs.get(scope, 0) + macs


def _emit(out, parents, backward, macs=0):
    """The one exit of every primitive.

    Freezes ``out`` (a fresh array, or a view of a frozen one) as the result
    tensor, charges ``macs`` MACs per element of one output image to the
    open counter, and records ``backward`` on the open tape.  ``backward(g)``
    returns one gradient per entry of ``parents``, positionally, ``None``
    where there is none.
    """
    y = Tensor(out, copy=False)
    if macs:
        counter = _MAC_COUNTER.get()
        if counter is not None:
            counter._charge(math.prod(y.shape[1:]) * macs)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape._nodes.append((y, parents, backward))
    return y


# ---------------------------------------------------------------------------
# intra-op worker pool
# ---------------------------------------------------------------------------

# The least work one range of a split kernel gets: multiply-accumulates for
# the GEMMs, elements for element-wise passes.  Smaller work runs inline.  At
# 2^23 MACs the miniature model's 4-block stem conv (0.75 ms on one worker)
# split and ran twice as long; drsinet-s@640 ran the same at 2^23 and 2^24.
_GEMM_GRAIN = 1 << 24
_ELEMENT_GRAIN = 1 << 18

# Chunks a split is cut into per worker, so that a worker whose CPU is busy
# with other work takes fewer of them: with a busy loop on one of 2 CPUs,
# one range per worker ran the drsinet-s@640 forward at 1.19 times the
# one-worker time, four chunks per worker at 1.01 times.
_CHUNKS_PER_WORKER = 4

_CPUS = None        # CPUs the pool may use; counted at the first split
_blas_query = None  # the loaded BLAS's thread-count function; found at the first split
_pool = []          # task queue of each started worker thread, by worker index
_pool_lock = threading.Lock()

# cgroup v2 CPU limit of the process's group: "max <period>" or "<quota> <period>"
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus():
    """The CPUs this process may run on, bounded by its cgroup's CPU quota:
    a 2-CPU quota on a larger host gives 2."""
    global _CPUS
    if _CPUS is None:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        try:
            with open(_CPU_MAX) as f:
                quota, period = f.read().split()
            if quota != "max":
                cpus = min(cpus, max(1, -(-int(quota) // int(period))))
        except (OSError, ValueError):
            pass
        _CPUS = cpus
    return _CPUS


def _find_blas_query():
    """The thread-count function of the BLAS numpy loaded, or None."""
    import ctypes
    import sys
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            # the lookup searches numpy's core extension and the libraries it loaded
            lib = ctypes.CDLL(sys.modules[name].__file__)
        except (KeyError, AttributeError, TypeError, OSError):
            continue        # not loaded, or a Python module of that name
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads", "bli_thread_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn
        return None
    return None


def _blas_threads():
    """Threads the BLAS numpy loaded runs per call, as it reports them now
    (so a limit set at run time counts); 0 where it cannot be asked."""
    global _blas_query
    if _blas_query is None:
        _blas_query = _find_blas_query() or (lambda: 0)
    return _blas_query()


def _worker_count():
    """The usable CPUs while the BLAS runs one thread per call, else 1.  A
    multi-threaded BLAS uses the CPUs itself: its threads spin between
    calls, and two workers calling it at once made a 1x1 conv 15 times as
    slow on 2 CPUs."""
    return _usable_cpus() if _blas_threads() == 1 else 1


def _run_chunks(fn, extra, bounds, claim, err, errors, i, done):
    """Worker ``i``'s part of a split: chunks claimed one at a time, so a
    worker slowed by other load leaves the rest to the others."""
    try:
        # a thread starts at numpy's default error state, not the caller's
        with np.errstate(**err):
            j = claim()
            while j < len(bounds) - 1:
                fn(bounds[j], bounds[j + 1], *extra)
                j = claim()
    except BaseException as exc:         # re-raised by the waiting caller
        errors[i] = exc
    done.put(i)


def _serve(tasks, cpu):
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})      # this thread only
        except OSError:
            pass
    while True:
        # no reference to a finished split's arrays outlives the call
        _run_chunks(*tasks.get())


def _pool_queues(k):
    """Task queues of the first ``k`` workers, started on first use; worker
    ``i`` is pinned to the ``i``-th CPU the process may run on."""
    from queue import SimpleQueue
    with _pool_lock:
        if len(_pool) < k:
            cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
            while len(_pool) < k:
                tasks = SimpleQueue()
                threading.Thread(target=_serve, args=(tasks, cpus[len(_pool) % len(cpus)]),
                                 daemon=True, name=f"drsinet-worker-{len(_pool)}").start()
                _pool.append(tasks)
        return _pool[:k]


def _forget_pool():
    global _pool_lock
    _pool.clear()
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads, nor its lock holders
    os.register_at_fork(after_in_child=_forget_pool)


def _parallel_for(n, fn, grain, scratch=None):
    """Run ``fn(a, b)`` over contiguous ranges that cover ``[0, n)``.

    The ranges are chunks of at least ``grain`` units, at most
    ``_CHUNKS_PER_WORKER`` per worker; with one worker, or fewer than
    ``2 * grain`` units, ``fn(0, n)`` runs inline.  Otherwise the workers
    claim chunks in turn, under the caller's numpy error state, while the
    caller waits: a worker woken by a caller that keeps running shares the
    caller's CPU, while pinned workers do not.  Every chunk has finished
    when this returns or raises; an error is raised after all workers are
    joined, the first by worker index.  ``fn`` may touch numpy arrays only,
    never the tape or the MAC counter.  With ``scratch``, the arguments of
    ``np.empty``, every worker passes a buffer of its own as a third
    argument; the caller allocates them, so no worker's heap keeps one.
    """
    units = n // max(1, grain)
    k = min(_worker_count(), units) if units > 1 else 1
    if k < 2:
        fn(0, n, *([np.empty(*scratch)] if scratch else []))
        return
    from queue import SimpleQueue
    buffers = [(np.empty(*scratch),) if scratch else () for _ in range(k)]
    chunks = min(units, _CHUNKS_PER_WORKER * k)
    bounds = [n * j // chunks for j in range(chunks + 1)]
    claim = itertools.count().__next__      # atomic under the GIL
    err, errors, done = np.geterr(), [None] * k, SimpleQueue()
    for i, tasks in enumerate(_pool_queues(k)):
        tasks.put((fn, buffers[i], bounds, claim, err, errors, i, done))
    for _ in range(k):
        done.get()
    for exc in errors:
        if exc is not None:
            raise exc


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


def _unpad(xp, padding):
    return xp[:, :, padding:xp.shape[2] - padding, padding:xp.shape[3] - padding]


def _channel_grad(g, v):
    """Gradient of a per-channel vector ``v`` (bias, gamma, beta) from ``g``
    summed over batch and space; ``None`` where there is no ``v``."""
    return None if v is None else g.sum(axis=(0, 2, 3)).reshape(v.shape)


# Working-set size of one block of the float32 normal CDF (``_phi``): the
# block stays in cache across its passes.
_BLOCK_BYTES = 1 << 18

# Bound on the column buffer of a k*k or depthwise conv forward: the window
# columns of one block are copied into it, then consumed by one GEMM.  1 MB
# was the fastest of 256 KB to 4 MB over the drsinet-s@640 call mix.
_COLUMN_BYTES = 1 << 20

# Copying one window column element into the buffer takes about as long as
# this many GEMM multiply-accumulates (over the drsinet-s@640 convs), so a
# block's work is its MACs plus this many per element it copies.
_COPY_MACS = 16

# The most GEMMs a 1x1 conv is cut into.  Each extra cut re-packs the operand
# the GEMMs share: four cost 4-8% more one-core time than one on the
# drsinet-s@640 shapes, eight 10-15%.
_GEMM_CUTS = 4


def _grouped_conv(x, wg, k, stride, padding, ho, wo):
    """Cross-correlation of ``x`` (n, g*ci, h, w), zero-padded by
    ``padding``, with grouped weight ``wg`` (g, co, ci*k*k), as (n, g*co,
    ho, wo).  Per block of groups, or of output rows of one group where a
    whole group does not fit: one copy of the (ci*k*k, rows*wo) window
    columns of each group into a buffer of at most ``_COLUMN_BYTES`` (one
    row if a row alone is larger), then one batched GEMM into the block's
    output.  The windows are read from a zero-bordered tile of the padded
    rows: those of a block's whole groups where they fit in as many bytes
    as the buffer, else those of the block alone, so no padded copy of the
    whole input is made.  The blocks are split across workers, each with a
    tile and a buffer of its own."""
    g, co, kk = wg.shape
    n, _, h, w = x.shape
    ci = kk // (k * k)
    wg = wg.astype(np.result_type(x, wg), copy=False)
    out = np.empty((n, g, co, ho * wo), dtype=wg.dtype)
    row_bytes = max(1, n * kk * wo * wg.itemsize)
    rows = min(ho, max(1, _COLUMN_BYTES // row_bytes))
    groups = max(1, _COLUMN_BYTES // (rows * row_bytes))
    blocks = [(g0, min(groups, g - g0), i0, min(rows, ho - i0))
              for g0 in range(0, g, groups) for i0 in range(0, ho, rows)]
    gmax = min(groups, g)
    col_size = n * gmax * kk * rows * wo
    # the tile's output rows, its padded rows and columns, and the columns
    # [cl, cr) of these that hold input
    tw = stride * (wo - 1) + k
    whole = n * gmax * ci * (stride * (ho - 1) + k) * tw * wg.itemsize <= _COLUMN_BYTES
    span = ho if whole else rows
    th = stride * (span - 1) + k
    cl, cr = min(padding, tw), min(padding + w, tw)

    views = {}      # id of a worker's buffer -> its tile and the tile's windows

    def run(a, b, buf):
        if id(buf) not in views:
            # the zero side columns are written once per worker
            tile = buf[col_size:].reshape(n, gmax * ci, th, tw)
            tile[..., :cl] = 0
            tile[..., cr:] = 0
            # the (ci, k, k, span, wo) window columns of each group, as a view
            sn, sc, sh, sw = tile.strides
            views[id(buf)] = tile, as_strided(
                tile, (n, gmax, ci, k, k, span, wo),
                (sn, ci * sc, sc, sh, sw, stride * sh, stride * sw), writeable=False)
        tile, win = views[id(buf)]
        held = zeroed = None
        for g0, gb, i0, r in blocks[a:b]:
            j0 = i0 - i0 % span
            if (g0, j0) != held:
                # tile rows [ra, rb) of the hb the span reads hold input
                # rows [top + ra, top + rb); the rest stay zero between
                # fills of one layout
                held, hb = (g0, j0), stride * (min(span, ho - j0) - 1) + k
                top, c0 = stride * j0 - padding, g0 * ci
                ra, rb = min(max(-top, 0), hb), min(max(h - top, 0), hb)
                if (ra, rb, hb) != zeroed:
                    zeroed = (ra, rb, hb)
                    tile[:, :gb * ci, :ra] = 0
                    tile[:, :gb * ci, rb:hb] = 0
                tile[:, :gb * ci, ra:rb, cl:cr] = x[:, c0:c0 + gb * ci, top + ra:top + rb, :cr - cl]
            cols = buf[:n * gb * kk * r * wo].reshape(n, gb, ci, k, k, r, wo)
            np.copyto(cols, win[:, :gb, ..., i0 - j0:i0 - j0 + r, :])
            np.matmul(wg[g0:g0 + gb], cols.reshape(n, gb, kk, r * wo),
                      out=out[:, g0:g0 + gb, :, i0 * wo:(i0 + r) * wo])

    block_work = col_size * (co + _COPY_MACS)
    _parallel_for(len(blocks), run, -(-_GEMM_GRAIN // max(1, block_work)),
                  scratch=(col_size + n * gmax * ci * th * tw, wg.dtype))
    return out.reshape(n, g * co, ho, wo)


def _gemm_1x1(w, x):
    """``w`` (co, ci) times every image of ``x`` (n, ci, hw), as (n, co, hw).

    One GEMM per cut, split across workers: 1, 2 or 4 cuts (a power of two,
    so that two workers balance; at most ``_GEMM_CUTS``) of at least a grain
    each, along the longer of co and hw, since each cut re-packs the other,
    shared operand.  The cuts follow the shape alone, so the bytes do not
    follow the worker count; a multi-threaded BLAS, under which the pool
    never engages, gets one uncut GEMM."""
    co, ci = w.shape
    n, _, hw = x.shape
    by_rows = co > hw
    length = co if by_rows else hw
    macs = n * co * ci * hw
    grains = min(length, _GEMM_CUTS, macs // max(1, _GEMM_GRAIN))
    if grains < 2 or _blas_threads() != 1:
        return np.matmul(w, x)
    cuts = 1 << (grains.bit_length() - 1)
    out = np.empty((n, co, hw), dtype=np.result_type(w, x))

    def run(a, b):
        for j in range(a, b):
            s = slice(length * j // cuts, length * (j + 1) // cuts)
            if by_rows:
                np.matmul(w[s], x, out=out[:, s])
            else:
                np.matmul(w, x[:, :, s], out=out[:, :, s])

    _parallel_for(cuts, run, 1)
    return out


def _conv(name, x, weight, bias, stride, padding, groups):
    """2-D cross-correlation of ``x`` in ``groups`` channel groups, weight
    (groups*co, ci, k, k).

    One group, 1x1, stride 1, unpadded is one GEMM over the flattened
    image; any other is ``_grouped_conv``.  The backward pads the input
    when it runs and is the forward's tap GEMMs transposed: per tap (u, v),
    ``dw[..., u, v]`` is one batched GEMM of the output gradient with the
    tap's strided input rows, and the tap's weights map the gradient back
    into the padded ``dx``.
    """
    c_out, ci, k, k2 = weight.shape
    if k != k2:
        raise ShapeError("only square kernels are supported")
    _check_conv_args(k, stride, padding)
    n, c, h, w = x.shape
    if c != ci * groups:
        raise ShapeError(f"{name} expects {ci * groups} input channels, got {c}")
    ho, wo = _out_hw(h, w, k, stride, padding)
    co = c_out // max(groups, 1)         # a depthwise conv of 0 channels has 0 groups
    wg = weight.data.reshape(groups, co, ci * k * k)
    if groups == 1 and k == 1 and stride == 1 and padding == 0:
        out = _gemm_1x1(wg[0], x.data.reshape(n, ci, h * w)).reshape(n, c_out, h, w)
    else:
        out = _grouped_conv(x.data, wg, k, stride, padding, ho, wo)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)

    def backward(g):
        xp = _pad_nchw(x.data, padding)
        gg = g.reshape(n, groups, co, ho * wo)
        # per tap, the (ci, co) weight of each group, contiguous for the GEMM
        wt = wg.reshape(groups, co, ci, k * k).transpose(3, 0, 2, 1).copy()
        dw = np.empty((k * k, groups, co, ci), dtype=np.result_type(g, xp))
        dxp = np.zeros(xp.shape, dtype=np.result_type(g, wt))
        for t in range(k * k):
            u, v = divmod(t, k)
            tap = (slice(None), slice(None), slice(u, u + stride * ho, stride),
                   slice(v, v + stride * wo, stride))
            rows = np.ascontiguousarray(xp[tap]).reshape(n, groups, ci, ho * wo)
            dw[t] = np.matmul(gg, rows.transpose(0, 1, 3, 2)).sum(axis=0)
            dxp[tap] += np.matmul(wt[t], gg).reshape(n, c, ho, wo)
        dw = dw.transpose(1, 2, 3, 0).reshape(weight.shape)
        return _unpad(dxp, padding), dw, _channel_grad(g, bias)

    return _emit(out, (x, weight, bias), backward, macs=ci * k * k)


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """Standard 2-D cross-correlation, weight (c_out, c_in, k, k)."""
    return _conv("conv2d", x, weight, bias, stride, padding, 1)


def depthwise_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Per-channel 2-D cross-correlation, weight (c, 1, k, k): one group per
    channel."""
    if weight.shape[1] != 1 or weight.shape[2] != weight.shape[3]:
        raise ShapeError("depthwise weight must have shape (c, 1, k, k)")
    return _conv("depthwise_conv2d", x, weight, bias, stride, padding, weight.shape[0])


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
    """Channel-wise batch normalization with the running statistics, applied
    as one per-channel affine ``x * a + b``."""
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    n, c, h, w = x.shape
    ga = _vec(gamma, c, "gamma")
    be = _vec(beta, c, "beta")
    rm = _vec(running_mean, c, "running_mean")
    rv = _vec(running_var, c, "running_var")
    inv = 1.0 / np.sqrt(rv + eps)
    a = ga * inv                  # out = (x - mean) * inv * gamma + beta = x * a + b
    a4, b4 = a.reshape(1, c, 1, 1), (be - rm * a).reshape(1, c, 1, 1)
    out = np.empty(x.shape, dtype=np.result_type(x.data, a4))

    def run(lo, hi):
        np.multiply(x.data[:, lo:hi], a4[:, lo:hi], out=out[:, lo:hi])
        out[:, lo:hi] += b4[:, lo:hi]

    _parallel_for(c, run, -(-_ELEMENT_GRAIN // max(1, n * h * w)))

    def backward(g):
        xhat = (x.data - rm.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
        dx = g * a.reshape(1, c, 1, 1)
        return dx, _channel_grad(g * xhat, gamma), _channel_grad(g, beta)

    return _emit(out, (x, gamma, beta), backward, macs=1)


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

    def backward(g):
        dxhat = g * ga
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = (dxhat - m1 - xhat * m2) * inv
        return dx, _channel_grad(g * xhat, gamma), _channel_grad(g, beta)

    return _emit(out, (x, gamma, beta), backward, macs=1)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# float32 Phi(x) - 1/2 = x P(x^2) / Q(x^2): minimax fit on [0, 5.5] by the
# differential-correction LP in float64 (fit error 3.6e-9; 2.3e-7 as float32).
_PHI_CLAMP = np.float32(5.5)
_PHI_P = tuple(np.float32(a) for a in (            # highest power first
    -4.026967e-05, 2.6938995e-02, 4.1413593e+00, 7.998439e+01,
    2.2901135e+03, 1.5403749e+04, 1.9012175e+05))
_PHI_Q = tuple(np.float32(a) for a in (    # after an implied leading 1, highest first
    3.9163727e+01, 9.180218e+02, 1.3499198e+04, 1.1803907e+05, 4.7656453e+05))
_erf = np.vectorize(math.erf, otypes=[np.float64])


def _sigmoid(v, silu=False):
    """``1 / (1 + exp(-v))``, times ``v`` if ``silu``, as a fresh array, in
    element ranges split across workers.  Where ``exp(-v)`` overflows to inf
    the sigmoid is the exact limit 0."""
    src = v.reshape(-1)
    s = np.empty(v.shape, v.dtype)
    dst = s.reshape(-1)

    def run(a, b):
        t = np.negative(src[a:b], out=dst[a:b])
        with np.errstate(over="ignore"):
            np.exp(t, out=t)
        t += 1.0
        np.divide(1.0, t, out=t)
        if silu:
            t *= src[a:b]

    _parallel_for(dst.size, run, _ELEMENT_GRAIN)
    return s


def _phi(v, gelu=False):
    """Standard normal CDF ``(1 + erf(v / sqrt 2)) / 2``, times ``v`` if
    ``gelu``, as a fresh array.

    float64 applies ``math.erf`` per element.  float32 evaluates the
    rational above on v clamped to the fit interval, in blocks of
    ``_BLOCK_BYTES`` with in-place ufuncs so its 27 passes stay in cache; the
    blocks are split across workers, each with scratch of its own.  The odd
    part is clipped to [-1/2, 1/2], so beyond the clamp Phi is exactly 0 or
    1.  Only the result is written, so ``v`` may be any view.
    """
    if v.dtype == np.float64:
        cdf = _erf(np.multiply(v, _INV_SQRT2))
        cdf += 1.0
        cdf *= 0.5
        if gelu:
            cdf *= v
        return cdf
    out = np.empty(v.shape, np.float32)
    src, dst = v.reshape(-1), out.reshape(-1)
    step = max(1, _BLOCK_BYTES // out.itemsize)

    def run(first, last, scratch):
        for i in range(first * step, min(last * step, src.size), step):
            x, q = src[i:i + step], dst[i:i + step]
            t, y, p = scratch[:, :x.size]
            np.clip(x, -_PHI_CLAMP, _PHI_CLAMP, out=t)
            np.multiply(t, t, out=y)
            np.multiply(y, _PHI_P[0], out=p)
            p += _PHI_P[1]
            for a in _PHI_P[2:]:
                p *= y
                p += a
            np.add(y, _PHI_Q[0], out=q)
            for b in _PHI_Q[1:]:
                q *= y
                q += b
            p *= t
            np.divide(p, q, out=p)
            np.clip(p, -0.5, 0.5, out=p)
            np.add(p, 0.5, out=q)
            if gelu:
                q *= x

    _parallel_for(-(-src.size // step), run, -(-_ELEMENT_GRAIN // step),
                  scratch=((3, min(step, src.size)), np.float32))
    return out


def activation(x, kind):
    """Element-wise nonlinearity: silu, gelu (exact erf form), sigmoid or relu.

    Sigmoid and silu run on ``exp``; gelu is ``x * Phi(x)`` (see ``_phi``).
    Silu and gelu write their result over their one intermediate; a backward
    recomputes the sigmoid or Phi from the input.
    """
    v = x.data
    if kind == "silu":
        out = _sigmoid(v, silu=True)

        def deriv():
            s = _sigmoid(v)
            return s * (1.0 + v * (1.0 - s))
    elif kind == "gelu":
        out = _phi(v, gelu=True)
        deriv = lambda: _phi(v) + v * np.exp(-0.5 * v * v) * _INV_SQRT2PI
    elif kind == "sigmoid":
        out = _sigmoid(v)
        deriv = lambda: out * (1.0 - out)
    elif kind == "relu":
        out = np.maximum(v, 0.0)
        deriv = lambda: (v > 0).astype(v.dtype)
    else:
        raise DomainError(f"unknown activation {kind!r}")
    return _emit(out, (x,), lambda g: (g * deriv(),), macs=1)


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
        out = x.data + y.data
        backward = lambda g: (g, g)
    elif op == "mul":
        out = x.data * y.data
        backward = lambda g: (g * y.data, g * x.data)
    else:
        raise DomainError(f"op must be 'mul' or 'add', got {op!r}")
    return _emit(out, (x, y), backward, macs=1)


def add(x, y):
    return elementwise(x, y, "add")


def mul(x, y):
    return elementwise(x, y, "mul")


def broadcast_mul(x, a):
    """Multiply by an attention map broadcast over singleton dims of ``a``."""
    for dx, da in zip(x.shape, a.shape):
        if da != dx and da != 1:
            raise ShapeError(f"cannot broadcast {a.shape} over {x.shape}")

    def backward(g):
        axes = tuple(i for i, (dx, da) in enumerate(zip(x.shape, a.shape))
                     if da == 1 and dx != 1)
        da = (g * x.data).sum(axis=axes, keepdims=True) if axes else g * x.data
        return g * a.data, da

    return _emit(x.data * a.data, (x, a), backward, macs=1)


def scale(x, factor):
    """Multiply by a Python scalar constant."""
    f = float(factor)
    return _emit(x.data * f, (x,), lambda g: (g * f,), macs=1)


def residual_interaction(s, f, factor):
    """``((s + f) + f * s) * factor``, one residual interaction order, as
    one output: the ops and rounding of ``scale(add(add(s, f), mul(f, s)),
    factor)`` without its three intermediate maps.  The four ops run per
    block of ``_BLOCK_BYTES`` with the product in a block of scratch, and
    the blocks are split across workers.  The backward is the
    composition's, and each element is charged its 4 MACs."""
    if s.shape != f.shape:
        raise ShapeError(f"interaction shapes differ: {s.shape} vs {f.shape}")
    c = float(factor)
    out = np.empty(s.shape, np.result_type(s.data, f.data))
    a, b, dst = s.data.reshape(-1), f.data.reshape(-1), out.reshape(-1)
    step = max(1, _BLOCK_BYTES // out.itemsize)

    def run(first, last, scratch):
        for i in range(first * step, min(last * step, dst.size), step):
            q = dst[i:i + step]
            t = np.multiply(b[i:i + step], a[i:i + step], out=scratch[:q.size])
            np.add(a[i:i + step], b[i:i + step], out=q)
            q += t
            np.multiply(q, c, out=q)

    _parallel_for(-(-dst.size // step), run, -(-_ELEMENT_GRAIN // step),
                  scratch=(min(step, dst.size), out.dtype))

    def backward(g):
        g1 = g * c
        return g1 + g1 * f.data, g1 + g1 * s.data

    return _emit(out, (s, f), backward, macs=4)


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

    def backward(g):
        offsets = np.cumsum([0] + [x.shape[1] for x in xs])
        return [g[:, lo:hi] for lo, hi in zip(offsets, offsets[1:])]

    return _emit(np.concatenate([x.data for x in xs], axis=1), tuple(xs), backward)


def split_channels(x, sizes):
    """Split along channels into chunks of the given sizes."""
    if sum(sizes) != x.shape[1]:
        raise ShapeError(f"split sizes {sizes} do not sum to {x.shape[1]} channels")
    if any(s <= 0 for s in sizes):
        raise ShapeError("split sizes must be positive")
    offsets = np.cumsum([0] + list(sizes))
    outs = []
    for i in range(len(sizes)):
        lo, hi = int(offsets[i]), int(offsets[i + 1])

        def backward(g, lo=lo, hi=hi):
            full = np.zeros(x.shape, dtype=g.dtype)
            full[:, lo:hi] = g
            return (full,)

        outs.append(_emit(x.data[:, lo:hi], (x,), backward))
    return outs


def upsample_nearest2x(x):
    """Double h and w by nearest-neighbor replication."""
    n, c, h, w = x.shape

    def backward(g):
        return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _emit(x.data.repeat(2, axis=2).repeat(2, axis=3), (x,), backward)


def max_pool(x, k, stride=1, padding=0):
    """Max pooling; padding uses -inf so it never wins a window.

    The forward is separable: the max over the k shifted rows, then over
    the k shifted columns, in place; a NaN wins its window.  A window whose
    max is a zero of both signs may give either sign, while the backward's
    argmax routes the gradient to the first in row-major order.
    """
    _check_conv_args(k, stride, padding)
    n, c, h, w = x.shape
    ho, wo = _out_hw(h, w, k, stride, padding)
    xp = _pad_nchw(x.data, padding, value=-np.inf)
    hs, ws = stride * (ho - 1) + 1, stride * (wo - 1) + 1
    rows = xp[:, :, :hs:stride].copy()
    for u in range(1, k):
        np.maximum(rows, xp[:, :, u:u + hs:stride], out=rows)
    out = rows[..., :ws:stride].copy()
    for v in range(1, k):
        np.maximum(out, rows[..., v:v + ws:stride], out=out)

    def backward(g):
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
        idx = win.reshape(n, c, ho, wo, k * k).argmax(axis=4)
        dxp = np.zeros(xp.shape, dtype=g.dtype)
        u, v = idx // k, idx % k
        ii, jj = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
        rows = ii * stride + u
        cols_ = jj * stride + v
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(dxp, (np.broadcast_to(nn, rows.shape),
                        np.broadcast_to(cc, rows.shape), rows, cols_), g)
        return (_unpad(dxp, padding),)

    return _emit(out, (x,), backward)


def space_to_depth_2x2(x):
    """2x2 space-to-depth: (n, c, h, w) -> (n, 4c, h/2, w/2)."""
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"space_to_depth needs even spatial dims, got {h}x{w}")
    phases = [(0, 0), (1, 0), (0, 1), (1, 1)]
    out = np.concatenate([x.data[:, :, ph::2, pw::2] for ph, pw in phases], axis=1)

    def backward(g):
        dx = np.zeros(x.shape, dtype=g.dtype)
        for i, (ph, pw) in enumerate(phases):
            dx[:, :, ph::2, pw::2] = g[:, i * c:(i + 1) * c]
        return (dx,)

    return _emit(out, (x,), backward)


# ---------------------------------------------------------------------------
# pooling reductions used by attention
# ---------------------------------------------------------------------------

def global_avg_pool(x):
    """Mean over (h, w) -> (n, c, 1, 1)."""
    n, c, h, w = x.shape

    def backward(g):
        return (np.broadcast_to(g / (h * w), x.shape).copy(),)

    # one MAC per input element: h * w per output element
    return _emit(x.data.mean(axis=(2, 3), keepdims=True), (x,), backward, macs=h * w)


def global_max_pool(x):
    """Max over (h, w) -> (n, c, 1, 1)."""
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    out = np.take_along_axis(flat, idx[..., None], axis=2).reshape(n, c, 1, 1)

    def backward(g):
        dflat = np.zeros(flat.shape, dtype=g.dtype)
        np.put_along_axis(dflat, idx[..., None], g.reshape(n, c, 1), axis=2)
        return (dflat.reshape(x.shape),)

    return _emit(out, (x,), backward)


def channel_mean(x):
    """Mean over channels -> (n, 1, h, w)."""
    c = x.shape[1]

    def backward(g):
        return (np.broadcast_to(g / c, x.shape).copy(),)

    # one MAC per input element: c per output element
    return _emit(x.data.mean(axis=1, keepdims=True), (x,), backward, macs=c)


def channel_max(x):
    """Max over channels -> (n, 1, h, w)."""
    idx = x.data.argmax(axis=1, keepdims=True)

    def backward(g):
        dx = np.zeros(x.shape, dtype=g.dtype)
        np.put_along_axis(dx, idx, g, axis=1)
        return (dx,)

    return _emit(np.take_along_axis(x.data, idx, axis=1), (x,), backward)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(fn, x, seed=0, sample=None):
    """Compare reverse-mode gradients of ``fn`` against central differences
    of step ``1e-5 * max(1, |x_i|)``.

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
        h = 1e-5 * max(1.0, abs(v))
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
