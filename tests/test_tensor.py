"""Tensor core: primitive operations against brute-force oracles and
finite-difference gradient checks."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from drsinet import tensor as T
from drsinet.layers import Conv2d
from drsinet.selftest import primitive_cases
from drsinet.tensor import (
    DomainError, ShapeError, Tape, TapeError, Tensor, grad_check, tensor,
)


def naive_conv2d(x, w, bias=None, stride=1, padding=0):
    """Reference convolution: explicit loops over every output element."""
    n, ci, h, wd = x.shape
    co, ci2, k, _ = w.shape
    assert ci == ci2
    xp = np.zeros((n, ci, h + 2 * padding, wd + 2 * padding), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, co, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for u in range(k):
                            for v in range(k):
                                acc += x_at(xp, b, c, i * stride + u, j * stride + v) * w[o, c, u, v]
                    out[b, o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def x_at(xp, b, c, i, j):
    return xp[b, c, i, j]


def rand_t(rng, shape, dtype=np.float32):
    return tensor(rng.normal(size=shape).astype(dtype))


class TestConv2d:
    def test_identity_1x1(self, rng):
        x = rand_t(rng, (2, 3, 4, 5))
        w = tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        y = T.conv2d(x, w)
        np.testing.assert_array_equal(y.numpy(), x.numpy())

    def test_all_ones_5x5(self):
        x = tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
        w = tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        y = T.conv2d(x, w, stride=1, padding=1).numpy()[0, 0]
        assert y[2, 2] == 9.0
        for corner in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            assert y[corner] == 4.0
        assert y[0, 2] == 6.0 and y[2, 0] == 6.0

    def test_matches_naive_oracle(self, rng):
        for _ in range(6):
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 3))
            k = int(rng.integers(1, 4))
            ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.normal(size=(2, ci, 7, 6))
            w = rng.normal(size=(co, ci, k, k))
            b = rng.normal(size=co)
            got = T.conv2d(tensor(x.astype(np.float64)), tensor(w.astype(np.float64)),
                           tensor(b.astype(np.float64)), stride, padding).numpy()
            want = naive_conv2d(x, w, b, stride, padding)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_mac_count_closed_form(self):
        # instrumented loop counter for the 3->16 channel 3x3 case at 64x64
        counted = 0
        for _ in range(16):
            for _ in range(3):
                for _ in range(3):
                    for _ in range(3):
                        counted += 64 * 64
        assert counted == 16 * 3 * 9 * 64 * 64 == 1_769_472
        x = tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        w = tensor(np.zeros((16, 3, 3, 3), dtype=np.float32))
        with T.mac_counter() as mc:
            T.conv2d(x, w, stride=1, padding=1)
        assert mc.macs == counted

    def test_zero_input_zero_bias_gives_zero(self, rng):
        x = tensor(np.zeros((1, 3, 6, 6), dtype=np.float32))
        w = rand_t(rng, (4, 3, 3, 3))
        y = T.conv2d(x, w, tensor(np.zeros(4, dtype=np.float32)), 1, 1)
        assert np.all(y.numpy() == 0.0)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.conv2d(rand_t(rng, (1, 2, 4, 4)), rand_t(rng, (4, 3, 1, 1)))

    def test_bad_stride(self, rng):
        with pytest.raises(DomainError):
            T.conv2d(rand_t(rng, (1, 2, 4, 4)), rand_t(rng, (4, 2, 1, 1)), stride=0)


class TestDepthwiseConv2d:
    def test_center_tap_identity(self, rng):
        x = rand_t(rng, (1, 3, 5, 5))
        w = np.zeros((3, 1, 3, 3), dtype=np.float32)
        w[:, 0, 1, 1] = 1.0
        y = T.depthwise_conv2d(x, tensor(w), stride=1, padding=1)
        np.testing.assert_array_equal(y.numpy(), x.numpy())

    def test_all_ones_3x3(self):
        x = tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        y = T.depthwise_conv2d(x, w, stride=1, padding=1).numpy()[0, 0]
        assert y[1, 1] == 9.0
        assert y[0, 0] == 4.0 and y[2, 2] == 4.0
        assert y[0, 1] == 6.0 and y[1, 0] == 6.0

    def test_channels_independent(self, rng):
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        w = rand_t(rng, (3, 1, 3, 3))
        base = T.depthwise_conv2d(tensor(x), w, stride=1, padding=1).numpy()
        x2 = x.copy()
        x2[:, 0] += 1.0
        moved = T.depthwise_conv2d(tensor(x2), w, stride=1, padding=1).numpy()
        np.testing.assert_array_equal(base[:, 1], moved[:, 1])
        np.testing.assert_array_equal(base[:, 2], moved[:, 2])
        assert not np.array_equal(base[:, 0], moved[:, 0])

    def test_depthwise_zero_input_zero_bias(self, rng):
        x = tensor(np.zeros((1, 3, 6, 6), np.float32))
        w = rand_t(rng, (3, 1, 3, 3))
        y = T.depthwise_conv2d(x, w, tensor(np.zeros(3, np.float32)), 1, 1)
        assert np.all(y.numpy() == 0.0)

    def test_equals_block_diagonal_conv(self, rng):
        """Forward and taped gradients: dx within 1e-6 of the full conv's,
        and the depthwise dw the diagonal of the full conv's dw to float32
        rounding."""
        for _ in range(10):
            c = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            x = tensor((0.5 * rng.normal(size=(1, c, 6, 6))).astype(np.float32))
            dw = (0.5 * rng.normal(size=(c, 1, k, k))).astype(np.float32)
            full = np.zeros((c, c, k, k), dtype=np.float32)
            for ch in range(c):
                full[ch, ch] = dw[ch, 0]
            side = 6 + 2 * (k // 2) - k + 1
            g = tensor(rng.normal(size=(1, c, side, side)).astype(np.float32))
            outs, grads = [], []
            for op, weight in ((T.depthwise_conv2d, tensor(dw)), (T.conv2d, tensor(full))):
                with Tape() as tape:
                    outs.append(op(x, weight, stride=1, padding=k // 2).numpy())
                tape.backward(g)
                grads.append((tape.grad_for(x).numpy(), tape.grad_for(weight).numpy()))
            (dx_d, dw_d), (dx_f, dw_f) = grads
            assert np.max(np.abs(outs[0] - outs[1])) <= 1e-6
            assert np.max(np.abs(dx_d - dx_f)) <= 1e-6
            # the same sums, as a dot product per channel against a GEMM
            np.testing.assert_allclose(dw_d[:, 0], dw_f[np.arange(c), np.arange(c)],
                                       rtol=1e-5, atol=1e-6)


def naive_depthwise(x, w, bias=None, stride=1, padding=0):
    """Reference depthwise convolution: ``naive_conv2d`` channel by channel."""
    outs = [naive_conv2d(x[:, ch:ch + 1], w[ch:ch + 1], None, stride, padding)
            + (bias[ch] if bias is not None else 0.0)
            for ch in range(x.shape[1])]
    return np.concatenate(outs, axis=1)


# kernel size x stride x padding in {0, k//2, k}; 1x1 with padding 1 or
# stride 2 is the easy bug in a 1x1 fast path
_GRID = sorted({(k, s, p) for k in (1, 3, 5, 7) for s in (1, 2) for p in (0, k // 2, k)})


class TestKernelOracleGrid:
    """Both convolution kernels against the loop oracles over kernel size,
    stride, padding, batch 0/1/2, odd h and w, both float widths and with and
    without bias, at the default column bound, at one output row (and one
    channel) per block, and at 20,000 bytes, where blocks of several rows or
    channels end in a partial one.  Inputs are float32 values, so one float64
    oracle run on batch 2 serves both widths; batches 0 and 1 are its leading
    slices."""

    @staticmethod
    def _check(run, oracle, shapes, seed, stride, padding, monkeypatch):
        rng = np.random.default_rng(seed)
        x, w, b = (None if s is None else rng.normal(size=s).astype(np.float32).astype(np.float64)
                   for s in shapes)
        want = oracle(x, w, b, stride, padding)
        for block, dtype, tol in ((T._COLUMN_BYTES, np.float64, 1e-12), (1, np.float64, 1e-12),
                                  (20_000, np.float64, 1e-12), (T._COLUMN_BYTES, np.float32, 2e-5)):
            monkeypatch.setattr(T, "_COLUMN_BYTES", block)
            for n in (0, 1, 2):
                got = run(tensor(x[:n].astype(dtype)), tensor(w.astype(dtype)),
                          None if b is None else tensor(b.astype(dtype)), stride, padding)
                assert got.dtype == dtype and got.shape == want[:n].shape
                np.testing.assert_allclose(got.numpy(), want[:n], rtol=tol, atol=tol)

    @pytest.mark.parametrize("k,stride,padding", _GRID)
    @pytest.mark.parametrize("bias", [False, True])
    def test_conv2d(self, k, stride, padding, bias, monkeypatch):
        shapes = ((2, 3, 9, 7), (2, 3, k, k), (2,) if bias else None)
        self._check(T.conv2d, naive_conv2d, shapes, 100 * k + 10 * stride + padding,
                    stride, padding, monkeypatch)

    @pytest.mark.parametrize("k,stride,padding", _GRID)
    @pytest.mark.parametrize("bias", [False, True])
    def test_depthwise_conv2d(self, k, stride, padding, bias, monkeypatch):
        shapes = ((2, 3, 9, 7), (3, 1, k, k), (3,) if bias else None)
        self._check(T.depthwise_conv2d, naive_depthwise, shapes, 100 * k + 10 * stride + padding,
                    stride, padding, monkeypatch)


def padded_grouped_conv(x, w, b, stride, padding, groups):
    """The grouped conv as ``_grouped_conv`` computed it before its tiles:
    the whole input zero-padded first, then per block of its blocks (same
    column bound) one copy of the window columns and one batched GEMM."""
    n, _, h, wd = x.shape
    c_out, ci, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    co, kk = c_out // groups, ci * k * k
    wg = w.reshape(groups, co, kk)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.reshape(n, groups, ci, ho, wo, k, k).transpose(0, 1, 2, 5, 6, 3, 4)
    out = np.empty((n, groups, co, ho * wo), x.dtype)
    row_bytes = max(1, n * kk * wo * x.itemsize)
    rows = min(ho, max(1, T._COLUMN_BYTES // row_bytes))
    per = max(1, T._COLUMN_BYTES // (rows * row_bytes))
    for g0 in range(0, groups, per):
        for i0 in range(0, ho, rows):
            gb, r = min(per, groups - g0), min(rows, ho - i0)
            cols = np.ascontiguousarray(win[:, g0:g0 + gb, ..., i0:i0 + r, :])
            np.matmul(wg[g0:g0 + gb], cols.reshape(n, gb, kk, r * wo),
                      out=out[:, g0:g0 + gb, :, i0 * wo:(i0 + r) * wo])
    return out.reshape(n, c_out, ho, wo) + b.reshape(1, c_out, 1, 1)


# kernel 1-7, stride 1-3, every padding from 0 to k
_PAD_GRID = [(k, s, p) for k in range(1, 8) for s in (1, 2, 3) for p in range(k + 1)]


class TestTiledConv:
    """Every conv but the one-GEMM 1x1 reads its windows from zero-bordered
    tiles of the input rows, never from a padded copy of the whole input:
    the bytes equal the pad-then-window reference at 1, 2 and 3 workers,
    with whole-group tiles (the default column bound), one-row tiles (1
    byte) and partial blocks (20,000 bytes), and the taped gradients equal
    those of the unpadded conv of the padded input."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_forward_equals_padded_reference(self, k, depthwise, dtype, monkeypatch):
        rng = np.random.default_rng(k)
        op, groups = (T.depthwise_conv2d, 3) if depthwise else (T.conv2d, 1)
        x = rng.normal(size=(2, 3, 9, 7)).astype(dtype)
        w = rng.normal(size=(3, 1, k, k) if depthwise else (2, 3, k, k)).astype(dtype)
        b = rng.normal(size=w.shape[0]).astype(dtype)
        default = T._COLUMN_BYTES
        for _, stride, padding in [c for c in _PAD_GRID if c[0] == k]:
            if (k, stride, padding, groups) == (1, 1, 0, 1):
                continue                    # the one-GEMM path, which pads nothing
            for column_bytes in (default, 1, 20_000):
                monkeypatch.setattr(T, "_COLUMN_BYTES", column_bytes)
                for n in (0, 1, 2):
                    want = padded_grouped_conv(x[:n], w, b, stride, padding, groups)
                    for workers in (1, 2, 3):
                        got = _at_workers(monkeypatch, workers, lambda: op(
                            tensor(x[:n]), tensor(w), tensor(b), stride, padding).numpy())
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes(), (stride, padding, column_bytes,
                                                                 n, workers)

    @pytest.mark.parametrize("depthwise", [False, True], ids=["conv2d", "depthwise"])
    def test_backward_equals_padded_input_gradient(self, depthwise):
        rng = np.random.default_rng(7)
        op = T.depthwise_conv2d if depthwise else T.conv2d
        for k, stride, padding in _PAD_GRID:
            for n in (0, 1, 2):
                x = tensor(rng.normal(size=(n, 3, 9, 7)))
                xp = tensor(np.pad(x.numpy(), ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2)))
                w = tensor(rng.normal(size=(3, 1, k, k) if depthwise else (2, 3, k, k)))
                b = tensor(rng.normal(size=w.shape[0]))
                grads = []
                for inp, pad in ((x, padding), (xp, 0)):
                    with Tape() as tape:
                        y = op(inp, w, b, stride, pad)
                    tape.backward(tensor(np.linspace(-1.0, 1.0, y.size).reshape(y.shape)))
                    grads.append([tape.grad_for(v).numpy() for v in (inp, w, b)])
                (dx, dw, db), (dxp, dwp, dbp) = grads
                inner = dxp[:, :, padding:padding + 9, padding:padding + 7]
                assert dx.tobytes() == inner.tobytes(), (k, stride, padding, n)
                assert dw.tobytes() == dwp.tobytes() and db.tobytes() == dbp.tobytes()


_CONV3X3 = (T.conv2d, ((1, 64, 64, 64), (64, 64, 3, 3)), 3)
_DEPTHWISE7X7 = (T.depthwise_conv2d, ((1, 96, 64, 64), (96, 1, 7, 7)), 7)


@pytest.mark.parametrize("op, shapes, k, workers", [
    _CONV3X3 + (1,), _DEPTHWISE7X7 + (1,), _CONV3X3 + (2,), _DEPTHWISE7X7 + (2,),
], ids=["conv3x3", "depthwise7x7", "conv3x3-2workers", "depthwise7x7-2workers"])
def test_forward_transient_is_bounded(op, shapes, k, workers, rng, monkeypatch):
    """The forward never holds the whole image's window columns, nor a
    padded copy of the whole input: its peak allocation is the output and,
    per worker, one column block and one tile of the padded input rows
    (here at most a quarter of a column block; both shapes split at
    two)."""
    monkeypatch.setattr(T, "_worker_count", lambda: workers)
    x, w = (tensor(rng.normal(size=s).astype(np.float32)) for s in shapes)
    n, c, h, wd = shapes[0]
    assert c * k * k * h * wd * 4 >= 8 * T._COLUMN_BYTES
    out_bytes = shapes[1][0] * h * wd * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = op(x, w, None, 1, k // 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert y.shape == (n, shapes[1][0], h, wd)
    assert peak <= out_bytes + workers * 5 * T._COLUMN_BYTES // 4 + (64 << 10)


class TestNorms:
    def test_batch_norm_eval_identity(self, rng):
        x = rand_t(rng, (2, 3, 4, 4))
        ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
        y = T.batch_norm(x, ones, zeros, zeros, ones, eps=1e-12)
        np.testing.assert_allclose(y.numpy(), x.numpy(), atol=1e-6)

    def test_batch_norm_affine(self):
        x = tensor(np.full((1, 1, 1, 1), 3.0, np.float32))
        y = T.batch_norm(x, np.array([2.0], np.float32), np.array([1.0], np.float32),
                         np.zeros(1, np.float32), np.ones(1, np.float32), eps=1e-12)
        assert abs(y.numpy().item() - 7.0) < 1e-5

    def test_batch_norm_matches_textbook_form(self, rng):
        x = rng.normal(size=(2, 3, 5, 4))
        ga, be = rng.normal(size=3), rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        got = T.batch_norm(tensor(x.astype(np.float64)), ga, be, rm, rv, eps=1e-5).numpy()
        c = lambda v: v.reshape(1, 3, 1, 1)
        want = (x - c(rm)) / np.sqrt(c(rv) + 1e-5) * c(ga) + c(be)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_batch_norm_bad_eps(self, rng):
        x = rand_t(rng, (1, 2, 2, 2))
        v = np.ones(2, np.float32)
        with pytest.raises(DomainError):
            T.batch_norm(x, v, v, v, v, eps=0.0)

    def test_layer_norm_constant_channels(self, rng):
        x = tensor(np.full((1, 4, 3, 3), 2.5, np.float32))
        beta = np.array([1.0, 2.0, 3.0, 4.0], np.float32)
        y = T.layer_norm(x, np.ones(4, np.float32), beta, eps=1e-5)
        want = np.broadcast_to(beta.reshape(1, 4, 1, 1), (1, 4, 3, 3))
        np.testing.assert_allclose(y.numpy(), want, atol=1e-5)

    def test_layer_norm_two_channel(self):
        x = tensor(np.array([1.0, 3.0], np.float32).reshape(1, 2, 1, 1))
        y = T.layer_norm(x, np.ones(2, np.float32), np.zeros(2, np.float32), eps=0.0)
        np.testing.assert_allclose(y.numpy().ravel(), [-1.0, 1.0], atol=1e-6)

    def test_layer_norm_zero_gamma(self, rng):
        x = rand_t(rng, (2, 3, 2, 2))
        beta = np.array([0.1, 0.2, 0.3], np.float32)
        y = T.layer_norm(x, np.zeros(3, np.float32), beta)
        want = np.broadcast_to(beta.reshape(1, 3, 1, 1), (2, 3, 2, 2))
        np.testing.assert_allclose(y.numpy(), want, atol=1e-6)


class TestActivations:
    def test_zeros(self):
        z = tensor(np.zeros((1, 1, 1, 1), np.float32))
        assert T.silu(z).numpy().item() == 0.0
        assert T.gelu(z).numpy().item() == 0.0
        assert T.sigmoid(z).numpy().item() == 0.5

    def test_silu_one(self):
        x = tensor(np.ones((1, 1, 1, 1), np.float64))
        want = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(T.silu(x).numpy().item() - want) < 1e-12
        assert abs(T.sigmoid(x).numpy().item() - want) < 1e-12

    def test_silu_negative_tail(self):
        x = tensor(np.full((1, 1, 1, 1), -20.0, np.float64))
        v = T.silu(x).numpy().item()
        assert -1e-7 < v < 0.0

    def test_gelu_matches_erf_form(self, rng):
        v = rng.normal(size=(1, 2, 3, 3))
        got = T.gelu(tensor(v.astype(np.float64))).numpy()
        want = 0.5 * v * (1.0 + np.vectorize(math.erf)(v / math.sqrt(2.0)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("kind", ["silu", "gelu", "sigmoid", "relu"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tape_free_equals_taped_bitwise(self, kind, dtype, rng):
        v = np.concatenate([rng.normal(scale=4.0, size=60),
                            [0.0, -0.0, 1e-30, -1e-30, 30.0, -30.0,
                             89.0, -89.0, 1e4, -1e4]])
        x = tensor(v.reshape(1, 7, 10, 1).astype(dtype))
        free = T.activation(x, kind).numpy()
        with Tape():
            taped = T.activation(x, kind).numpy()
        assert free.dtype == taped.dtype == dtype
        assert free.tobytes() == taped.tobytes()

    def test_unknown_kind(self, rng):
        with pytest.raises(DomainError):
            T.activation(rand_t(rng, (1, 1, 1, 1)), "tanh")

    def test_float32_accuracy_and_limits(self):
        """float32 against float64 references on a dense grid and at the
        extremes, where the saturated values are exact."""
        ends = [88.0, 89.0, 1e4, 3e38, 1e-30]
        x32 = np.concatenate([np.linspace(-12.0, 12.0, 1_000_001), ends,
                              np.negative(ends), [-0.0]]).astype(np.float32)
        x = x32.astype(np.float64)
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        refs = {"sigmoid": (sig, 3e-7), "silu": (x * sig, 3e-7), "gelu": (x * cdf, 5e-7)}
        got = {}
        for kind, (want, tol) in refs.items():
            got[kind] = T.activation(tensor(x32), kind).numpy().ravel()
            err = np.abs(got[kind] - want) / np.maximum(1.0, np.abs(x))
            assert err.max() <= tol, f"{kind} at x={x[err.argmax()]}: {err.max():.3e}"
        at = lambda kind, v: got[kind][x32 == np.float32(v)][0]
        assert at("silu", -1e4) == 0.0 and np.signbit(at("silu", -1e4))
        assert at("sigmoid", -1e4) == 0.0 and at("sigmoid", 1e4) == 1.0
        assert at("gelu", 1e4) == np.float32(1e4) and at("gelu", 3e38) == np.float32(3e38)
        tail = got["gelu"][x32 <= -8.0]
        assert tail.size > 1000 and not tail.any() and np.signbit(tail).all()

    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)],
                             ids=["0", "1", "block-1", "block", "block+1"])
    def test_gelu_block_boundaries(self, blocks, extra, rng, monkeypatch):
        n = blocks * (T._BLOCK_BYTES // 4) + extra
        v = rng.normal(scale=4.0, size=(n, 1, 1, 1)).astype(np.float32)
        got = T.gelu(tensor(v)).numpy()
        assert got.shape == v.shape
        x = v.astype(np.float64)
        want = 0.5 * x * (1.0 + np.vectorize(math.erf, otypes=[float])(x / math.sqrt(2.0)))
        assert np.all(np.abs(got - want) <= 5e-7 * np.maximum(1.0, np.abs(x)))
        monkeypatch.setattr(T, "_BLOCK_BYTES", 1 << 30)
        assert T.gelu(tensor(v)).numpy().tobytes() == got.tobytes()

    def test_gelu_one_element_blocks(self, rng, monkeypatch):
        x = tensor(rng.normal(scale=4.0, size=(1, 3, 5, 7)).astype(np.float32))
        want = T.gelu(x).numpy()
        monkeypatch.setattr(T, "_BLOCK_BYTES", 4)
        assert T.gelu(x).numpy().tobytes() == want.tobytes()

    def test_phi_of_a_strided_view(self, rng):
        """A channel slice of a batch of two, as ``split_channels`` takes it,
        is not contiguous: the kernel must still fill its fresh result."""
        x = rand_t(rng, (2, 5, 4, 3))
        view = x.numpy()[:, 2:]
        assert not view.flags.c_contiguous
        got = T._phi(view)
        np.testing.assert_array_equal(got, T._phi(np.ascontiguousarray(view)))
        want = 0.5 * (1.0 + np.vectorize(math.erf)(view.astype(np.float64) / math.sqrt(2.0)))
        np.testing.assert_allclose(got, want, rtol=0, atol=3e-7)
        _, tail = T.split_channels(x, [2, 3])
        np.testing.assert_array_equal(T.gelu(tail).numpy(), got * view)


class TestElementwise:
    def test_mul_identity(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        ones = tensor(np.ones((1, 2, 3, 3), np.float32))
        np.testing.assert_array_equal(T.mul(x, ones).numpy(), x.numpy())

    def test_add_identity(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        z = tensor(np.zeros((1, 2, 3, 3), np.float32))
        np.testing.assert_array_equal(T.add(x, z).numpy(), x.numpy())

    def test_square(self):
        x = tensor(np.array([2.0, -3.0], np.float32).reshape(1, 1, 1, 2))
        np.testing.assert_array_equal(T.mul(x, x).numpy().ravel(), [4.0, 9.0])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.add(rand_t(rng, (1, 2, 3, 3)), rand_t(rng, (1, 2, 3, 4)))


def _window_argmax_max_pool(v, k, stride, padding):
    """The max-pool forward as each k*k window's first argmax."""
    n, c, h, w = v.shape
    xp = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf, v.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = v
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.reshape(win.shape[:4] + (k * k,))
    idx = win.argmax(axis=4)
    return np.take_along_axis(win, idx[..., None], axis=4)[..., 0]


def composed_interaction(s, f, factor):
    return T.scale(T.add(T.add(s, f), T.mul(f, s)), factor)


# batch 0, one element, odd sizes, and more than one float32 and float64 block
_INTERACTION_SHAPES = [(0, 3, 5, 7), (1, 1, 1, 1), (2, 5, 9, 11), (1, 3, 131, 173)]


class TestResidualInteraction:
    """``residual_interaction`` is ``scale(add(add(s, f), mul(f, s)),
    factor)`` as one primitive: the same bytes, gradients and MACs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_composition(self, dtype, monkeypatch):
        rng = np.random.default_rng(5)
        default = T._BLOCK_BYTES
        for shape in _INTERACTION_SHAPES:
            s, f = (tensor(rng.normal(scale=3.0, size=shape).astype(dtype)) for _ in range(2))
            for factor in (1.0 / 3.0, -1.7, 1.0):
                want = composed_interaction(s, f, factor).numpy()
                for block_bytes, workers in ((default, 1), (64, 1), (64, 2), (64, 3)):
                    monkeypatch.setattr(T, "_BLOCK_BYTES", block_bytes)
                    got = _at_workers(monkeypatch, workers,
                                      lambda: T.residual_interaction(s, f, factor).numpy())
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (shape, factor, block_bytes, workers)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tape_gradients_equal_composition(self, dtype):
        rng = np.random.default_rng(6)
        for shape in _INTERACTION_SHAPES[:3]:
            s, f = (tensor(rng.normal(size=shape).astype(dtype)) for _ in range(2))
            g = tensor(rng.normal(size=shape).astype(dtype))
            grads = []
            for op in (T.residual_interaction, composed_interaction):
                with Tape() as tape:
                    op(s, f, 1.0 / 3.0)
                tape.backward(g)
                grads.append([tape.grad_for(v).numpy().tobytes() for v in (s, f)])
            assert grads[0] == grads[1], shape

    def test_macs_equal_composition(self, rng):
        s, f = rand_t(rng, (1, 4, 5, 6)), rand_t(rng, (1, 4, 5, 6))
        counts = []
        for op in (T.residual_interaction, composed_interaction):
            with T.mac_counter() as counter:
                op(s, f, 0.5)
            counts.append(counter.macs)
        assert counts == [4 * 4 * 5 * 6] * 2

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.residual_interaction(rand_t(rng, (1, 2, 3, 3)), rand_t(rng, (1, 3, 3, 3)), 0.5)


class TestReshapeFamily:
    def test_concat_split_round_trip(self, rng):
        a, b = rand_t(rng, (2, 3, 4, 4)), rand_t(rng, (2, 5, 4, 4))
        cat = T.concat_channels([a, b])
        a2, b2 = T.split_channels(cat, [3, 5])
        assert a2.numpy().tobytes() == a.numpy().tobytes()
        assert b2.numpy().tobytes() == b.numpy().tobytes()

    def test_split_size_sum_error(self, rng):
        with pytest.raises(ShapeError):
            T.split_channels(rand_t(rng, (1, 4, 2, 2)), [1, 2])

    def test_upsample_constant(self):
        x = tensor(np.full((1, 1, 1, 1), 5.0, np.float32))
        np.testing.assert_array_equal(T.upsample_nearest2x(x).numpy(),
                                      np.full((1, 1, 2, 2), 5.0, np.float32))

    def test_upsample_doubles_dims(self, rng):
        x = rand_t(rng, (2, 3, 4, 5))
        y = T.upsample_nearest2x(x)
        assert y.shape == (2, 3, 8, 10)
        np.testing.assert_array_equal(y.numpy()[:, :, ::2, ::2], x.numpy())

    def test_max_pool_center_max(self, rng):
        x = rng.normal(size=(1, 1, 7, 7)).astype(np.float32)
        x[0, 0, 3, 3] = 10.0
        y = T.max_pool(tensor(x), 5, stride=1, padding=2)
        assert y.numpy()[0, 0, 3, 3] == 10.0

    def test_max_pool_k1_idempotent(self, rng):
        x = rand_t(rng, (1, 2, 4, 4))
        y = T.max_pool(x, 1, stride=1, padding=0)
        np.testing.assert_array_equal(y.numpy(), x.numpy())

    def test_max_pool_negative_constant_padding_neutral(self):
        # -inf padding: a negative constant survives the pool at the borders
        x = tensor(np.full((1, 1, 4, 4), -2.0, np.float32))
        y = T.max_pool(x, 5, stride=1, padding=2)
        np.testing.assert_array_equal(y.numpy(), x.numpy())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9, 13])
    def test_max_pool_bytes_match_the_window_argmax(self, k, dtype):
        """The separable forward gives the bytes of the max taken as each
        k*k window's argmax, NaN and +-inf inputs included."""
        rng = np.random.default_rng(k)
        for stride in (1, 2, 3):
            for padding in range(k // 2 + 1):
                for shape in ((2, 3, 17, 14), (1, 2, 13, 13)):
                    v = rng.normal(size=shape).astype(dtype)
                    flat = v.reshape(-1)
                    at = rng.choice(flat.size, 30, replace=False)
                    flat[at[:10]], flat[at[10:20]], flat[at[20:]] = np.nan, np.inf, -np.inf
                    got = T.max_pool(tensor(v), k, stride, padding).numpy()
                    want = _window_argmax_max_pool(v, k, stride, padding)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (stride, padding, shape)

    def test_space_to_depth_multiset(self):
        x = tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        y = T.space_to_depth_2x2(x)
        assert y.shape == (1, 4, 2, 2)
        assert sorted(y.numpy().ravel()) == sorted(x.numpy().ravel())

    def test_space_to_depth_odd_error(self, rng):
        with pytest.raises(ShapeError):
            T.space_to_depth_2x2(rand_t(rng, (1, 1, 3, 4)))


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        with Tape() as tape:
            y = T.scale(x, 1.0)
        tape.backward(tensor(np.ones((1, 2, 3, 3), np.float32)))
        np.testing.assert_array_equal(tape.grad_for(x).numpy(),
                                      np.ones((1, 2, 3, 3), np.float32))

    def test_square_gradient(self):
        x = tensor(np.array([2.0, -3.0], np.float32).reshape(1, 1, 1, 2))
        with Tape() as tape:
            y = T.mul(x, x)
        tape.backward(tensor(np.ones((1, 1, 1, 2), np.float32)))
        np.testing.assert_array_equal(tape.grad_for(x).numpy().ravel(), [4.0, -6.0])

    def test_unused_leaf_gets_zero_grad(self, rng):
        x, other = rand_t(rng, (1, 1, 2, 2)), rand_t(rng, (1, 1, 2, 2))
        with Tape() as tape:
            y = T.mul(x, x)
            _ = T.scale(other, 2.0)  # dead branch, not part of y
        tape.backward(tensor(np.ones((1, 1, 2, 2), np.float32)), output=y)
        np.testing.assert_array_equal(tape.grad_for(other).numpy(),
                                      np.zeros((1, 1, 2, 2), np.float32))

    def test_tape_single_use(self, rng):
        x = rand_t(rng, (1, 1, 2, 2))
        with Tape() as tape:
            T.mul(x, x)
        g = tensor(np.ones((1, 1, 2, 2), np.float32))
        tape.backward(g)
        with pytest.raises(TapeError):
            tape.backward(g)

    def test_output_grad_shape_checked(self, rng):
        x = rand_t(rng, (1, 1, 2, 2))
        with Tape() as tape:
            T.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(tensor(np.ones((1, 1, 2, 3), np.float32)))

    def test_parameter_grad_populated(self, rng):
        # finalize names the weight through the walk, then seeds it
        p = Conv2d(2, 2, 1, bias=False).finalize(0).weight
        assert p.name == "weight"
        p.set(rng.normal(size=(2, 2, 1, 1)).astype(np.float32))
        x = rand_t(rng, (1, 2, 3, 3))
        with Tape() as tape:
            y = T.conv2d(x, p.value)
        tape.backward(tensor(np.ones(y.shape, np.float32)))
        g = tape.grad_for(p.value).numpy()
        assert g.shape == (2, 2, 1, 1)
        # d sum(W x) / dW[o, i] = sum of input channel i over the image
        want = np.broadcast_to(x.numpy().sum(axis=(0, 2, 3))[None, :], (2, 2))
        np.testing.assert_allclose(g[:, :, 0, 0], want, rtol=1e-6)



def _in_thread(fn):
    """Run ``fn`` in a fresh thread and return its result (or raise its error)."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=60)


class TestPerThreadState:
    def test_tape_ignores_other_threads(self, rng):
        x = rand_t(rng, (1, 1, 2, 2))
        g = tensor(np.ones((1, 1, 2, 2), np.float32))

        def other():
            # the other thread runs an op and opens a tape of its own
            T.add(x, x)
            with Tape() as own:
                T.mul(x, x)
            own.backward(g)
            return own.grad_for(x).numpy()

        with Tape() as tape:
            np.testing.assert_array_equal(_in_thread(other), 2 * x.numpy())
        with pytest.raises(TapeError, match="empty tape"):
            tape.backward(g)

    def test_counter_ignores_other_threads(self, rng):
        conv = Conv2d(3, 4, 3).finalize(0)
        x = rand_t(rng, (1, 3, 8, 8))
        with T.mac_counter() as mc:
            _in_thread(lambda: conv(x))
        assert mc.macs == 0 and mc.outputs == {} and mc.scope_macs == {}
        with T.mac_counter() as mc:
            conv(x)
        assert mc.macs == 4 * 3 * 9 * 8 * 8

    def test_second_tape_or_counter_in_one_thread_rejected(self):
        with Tape():
            with pytest.raises(TapeError):
                Tape().__enter__()
        with T.mac_counter():
            with pytest.raises(RuntimeError):
                T.mac_counter().__enter__()
        # closing restores the empty state
        with Tape(), T.mac_counter():
            pass


class TestGradCheck:
    def test_identity_zero_error(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        assert grad_check(lambda t: T.scale(t, 1.0), x, seed=0) <= 1e-12

    def test_silu_small_error(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        assert grad_check(T.silu, x, seed=0) <= 1e-6

    @pytest.mark.parametrize("name", sorted(primitive_cases(7)[1]))
    def test_every_primitive(self, name):
        rng, cases = primitive_cases(7)
        fn = cases[name]
        for trial in range(5):
            x = tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
            assert grad_check(fn, x, seed=trial) <= 1e-4, name

    def test_nondeterministic_fn_rejected(self, rng):
        state = {"calls": 0}

        def fn(x):
            state["calls"] += 1
            return T.scale(x, float(state["calls"]))

        with pytest.raises(RuntimeError):
            grad_check(fn, rand_t(rng, (1, 1, 2, 2)), seed=0)


class TestDeterminism:
    def test_forward_bit_identical(self, rng):
        x = rand_t(rng, (2, 3, 8, 8))
        w = rand_t(rng, (4, 3, 3, 3))

        def run():
            y = T.silu(T.conv2d(x, w, stride=2, padding=1))
            return T.max_pool(y, 3, 1, 1).numpy().tobytes()

        assert run() == run()

    def test_backward_bit_identical(self, rng):
        x = rand_t(rng, (1, 2, 5, 5))
        w = rand_t(rng, (2, 2, 3, 3))

        def run():
            with Tape() as tape:
                y = T.silu(T.conv2d(x, w, stride=1, padding=1))
            tape.backward(tensor(np.ones(y.shape, np.float32)))
            return tape.grad_for(x).numpy().tobytes()

        assert run() == run()


def _at_workers(monkeypatch, workers, run):
    """``run()`` with ``workers`` workers, a BLAS that reports one thread
    and every grain at one unit, so that even the smallest kernel call
    splits."""
    monkeypatch.setattr(T, "_worker_count", lambda: workers)
    monkeypatch.setattr(T, "_blas_threads", lambda: 1)
    monkeypatch.setattr(T, "_GEMM_GRAIN", 1)
    monkeypatch.setattr(T, "_ELEMENT_GRAIN", 1)
    return run()


def _whole_array_init(seed, name, shape, bound):
    """The seeded init as one whole-array expression: the splitmix64 stream
    of (seed, name), scaled to [0, 1) from its top 53 bits, then
    ``(2u - 1) * bound`` in float64 rounded to float32."""
    mask = (1 << 64) - 1
    state = (int(seed) & mask) ^ T._fnv1a64(name)
    idx = np.arange(1, int(np.prod(shape)) + 1, dtype=np.uint64)
    z = np.uint64(state) + idx * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))).reshape(shape)
    return ((2.0 * u - 1.0) * bound).astype(np.float32)


# sha256 of configs/mini.json's seed-0 weight archive
_MINI_SEED0_ARCHIVE = "1bac7ac9206fd3c5f34d3bf90a5738360682b8ea6403992f455c61795bdb7242"


class TestWorkers:
    """The worker pool under the kernels: the worker count follows the CPUs
    and the threads the BLAS reports, the bytes do not follow the worker
    count, and every range runs under the caller's numpy error state."""

    @pytest.mark.parametrize("blas, cpus, workers", [(1, 3, 3), (1, 1, 1), (4, 3, 1), (0, 3, 1)])
    def test_worker_count_is_the_cpus_with_a_one_thread_blas(self, blas, cpus, workers,
                                                             monkeypatch):
        monkeypatch.setattr(T, "_blas_threads", lambda: blas)
        monkeypatch.setattr(T, "_CPUS", cpus)
        assert T._worker_count() == workers

    def test_worker_count_follows_what_the_loaded_blas_reports(self):
        """The BLAS is asked, not the environment: under numpy's OpenBLAS,
        MKL_NUM_THREADS=1 alone leaves it at its default threads, and the
        pool at one worker unless that default is one."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        base = {k: v for k, v in os.environ.items()
                if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        code = ("import drsinet.tensor as T; q = T._find_blas_query(); "
                "print(T._blas_threads(), T._worker_count(), T._usable_cpus(), "
                "q.__name__ if q else '-')")

        def ask(env):
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env={**base, **env, "PYTHONPATH": src}, check=True).stdout
            blas, workers, cpus, name = out.split()
            assert int(workers) == (int(cpus) if blas == "1" else 1)
            return int(blas), name

        default, name = ask({})
        ones = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        assert ask(ones)[0] == (1 if name != "-" else 0)
        if "openblas" in name:      # its own variable, then OpenMP's; capped at the CPUs
            assert ask({"MKL_NUM_THREADS": "1"})[0] == default
            assert ask({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"})[0] == min(2, default)
            assert ask({"OMP_NUM_THREADS": "1"})[0] == 1

    def test_usable_cpus_follow_the_cgroup_quota(self, tmp_path, monkeypatch):
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        cpu_max = tmp_path / "cpu.max"
        for text, want in [("150000 100000\n", min(cpus, 2)), ("50000 100000\n", 1),
                           ("max 100000\n", cpus), ("garbled\n", cpus), (None, cpus)]:
            if text is not None:
                cpu_max.write_text(text)
            monkeypatch.setattr(T, "_CPU_MAX", str(cpu_max if text else tmp_path / "absent"))
            monkeypatch.setattr(T, "_CPUS", None)
            assert T._usable_cpus() == want, text

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_usable_cpu_runs_every_split_inline(self, rng, monkeypatch):
        """Pinned to one CPU, with a one-thread BLAS and every grain at one
        unit, the worker count reads 1 and no kernel starts a worker."""
        def no_pool(k):
            raise AssertionError(f"{k} workers started")

        x = tensor(rng.normal(size=(1, 8, 16, 16)).astype(np.float32))
        w1, w3 = (tensor(rng.normal(size=(8, 8, k, k)).astype(np.float32)) for k in (1, 3))
        ones = np.ones(8, np.float32)
        want = [T.conv2d(x, w1).numpy(), T.conv2d(x, w3, None, 1, 1).numpy()]
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})         # the calling thread only
        try:
            monkeypatch.setattr(T, "_CPUS", None)
            monkeypatch.setattr(T, "_blas_threads", lambda: 1)
            monkeypatch.setattr(T, "_pool_queues", no_pool)
            monkeypatch.setattr(T, "_GEMM_GRAIN", 1)
            monkeypatch.setattr(T, "_ELEMENT_GRAIN", 1)
            assert T._worker_count() == 1
            got = [T.conv2d(x, w1).numpy(), T.conv2d(x, w3, None, 1, 1).numpy()]
            for kind in ("silu", "gelu", "sigmoid"):
                T.activation(x, kind)
            T.batch_norm(x, ones, ones, ones, ones)
        finally:
            os.sched_setaffinity(0, before)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("column_bytes", [1, 20_000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_worker_count_keeps_oracle_grid_bytes(self, column_bytes, dtype, monkeypatch):
        monkeypatch.setattr(T, "_COLUMN_BYTES", column_bytes)
        monkeypatch.setattr(T, "_BLOCK_BYTES", 64)
        rng = np.random.default_rng(11)
        b = tensor(rng.normal(size=3).astype(dtype))
        ga, be, rm = (rng.normal(size=3).astype(dtype) for _ in range(3))
        rv = rng.uniform(0.5, 2.0, size=3).astype(dtype)
        calls = []
        for n in (0, 1, 2):
            x = tensor(rng.normal(scale=3.0, size=(n, 3, 9, 7)).astype(dtype))
            calls.append(lambda x=x: T.batch_norm(x, ga, be, rm, rv))
            calls += [lambda x=x, kind=kind: T.activation(x, kind)
                      for kind in ("silu", "gelu", "sigmoid")]
            for k, stride, padding in _GRID:
                wc = tensor(rng.normal(size=(3, 3, k, k)).astype(dtype))
                wd = tensor(rng.normal(size=(3, 1, k, k)).astype(dtype))
                calls.append(lambda x=x, w=wc, s=stride, p=padding: T.conv2d(x, w, b, s, p))
                calls.append(lambda x=x, w=wd, s=stride, p=padding:
                             T.depthwise_conv2d(x, w, b, s, p))

        def run():
            return [f().numpy().tobytes() for f in calls]

        want = _at_workers(monkeypatch, 1, run)
        for workers in (2, 3):
            assert _at_workers(monkeypatch, workers, run) == want, workers

    @pytest.mark.parametrize("count", [1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 5])
    def test_worker_count_keeps_the_seeded_init_bytes(self, count, monkeypatch):
        """The blocked init gives the whole-array expression's bytes at any
        worker count, for counts on and around the block size."""
        for seed, name, bound in [(0, "backbone.stem.conv.weight", 0.125),
                                  (-7, "x", math.sqrt(3.0 / 1152)), (2**70 + 3, "ü", 3.0)]:
            want = _whole_array_init(seed, name, (1, count), bound).tobytes()
            for workers in (1, 2, 3):
                got = _at_workers(monkeypatch, workers,
                                  lambda: T._seeded_uniform(seed, name, (1, count), bound))
                assert got.dtype == np.float32 and got.shape == (1, count)
                assert got.tobytes() == want, (seed, name, workers)

    def test_worker_count_keeps_the_mini_archive(self, tmp_path, monkeypatch):
        """configs/mini.json built from seed 0 and saved has the recorded
        archive bytes at one and at three workers."""
        from drsinet.network import ModelConfig, build_model
        from drsinet.profiler import save_weights
        cfg = ModelConfig.from_file(os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "mini.json"))
        for workers in (1, 3):
            path = tmp_path / f"mini-{workers}.drsi"
            _at_workers(monkeypatch, workers, lambda: save_weights(build_model(cfg, seed=0), path))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == _MINI_SEED0_ARCHIVE, workers

    @pytest.mark.parametrize("case", ["mini", "s"])
    def test_worker_count_keeps_golden_heads(self, case, monkeypatch):
        from test_golden_forward import heads

        def run():
            return [h.tobytes() for h in heads(case)]

        want = _at_workers(monkeypatch, 1, run)
        for workers in (2, 3):
            assert _at_workers(monkeypatch, workers, run) == want, workers

    def test_worker_count_keeps_taped_forward_and_backward(self, monkeypatch):
        from drsinet.network import ModelConfig, build_model
        model = build_model(ModelConfig(variant="custom", width_mult=0.005, depth_mult=0.2,
                                        cbam_reduction=4), seed=0)
        x = tensor(np.random.default_rng(3).standard_normal((1, 3, 64, 64)).astype(np.float32))

        def run():
            with Tape() as tape:
                heads = model(x)
            tape.backward(tensor(np.ones(heads[0].shape, np.float32)), output=heads[0])
            grads = [tape.grad_for(p.value).numpy().tobytes()
                     for _, p in model.named_parameters()]
            assert len(grads) > 100
            return [h.numpy().tobytes() for h in heads] + grads + [tape.grad_for(x).numpy().tobytes()]

        want = _at_workers(monkeypatch, 1, run)
        for workers in (2, 3):
            assert _at_workers(monkeypatch, workers, run) == want, workers

    def test_worker_ranges_raise_under_the_callers_errstate(self, monkeypatch):
        # split ranges all run on pool threads, which start at numpy's
        # default error state ("warn")
        v = np.ones((1, 4, 3, 3), np.float32)
        v[0, 3] = 3e38
        x, ones = tensor(v), np.ones(4, np.float32)
        gamma = np.array([1, 1, 1, 10], np.float32)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                _at_workers(monkeypatch, 2, lambda: T.batch_norm(x, gamma, ones, ones, ones))
        with np.errstate(over="ignore"):
            y = _at_workers(monkeypatch, 2, lambda: T.batch_norm(x, gamma, ones, ones, ones))
        assert np.isinf(y.numpy()[0, 3]).all() and np.isfinite(y.numpy()[0, :3]).all()

    def test_worker_error_is_raised_after_every_range_joins(self, monkeypatch):
        monkeypatch.setattr(T, "_worker_count", lambda: 3)
        finished, raised = [], []

        def fn(a, b):
            if a == 0:
                raise KeyError("first range")
            time.sleep(0.05)
            finished.append(a)

        def call():
            try:
                T._parallel_for(3, fn, 1)
            except KeyError as exc:
                raised.append((str(exc), sorted(finished)))

        t = threading.Thread(target=call)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert raised == [("'first range'", [1, 2])]

    def test_worker_chunks_cover_every_unit_once_under_stress(self, monkeypatch):
        """Two callers split at once over more workers than CPUs, with the
        interpreter switching threads every microsecond: every unit of every
        call is covered by exactly one chunk."""
        monkeypatch.setattr(T, "_worker_count", lambda: 5)
        covered = {0: [], 1: []}

        def caller(c):
            for n in (2, 3, 7, 64, 1000):
                seen = []
                T._parallel_for(n, lambda a, b: seen.extend(range(a, b)), 1)
                covered[c].append(sorted(seen) == list(range(n)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in covered]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert covered == {0: [True] * 5, 1: [True] * 5}
