"""Tensor core: primitive operations against brute-force oracles and
finite-difference gradient checks."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from drsinet import tensor as T
from drsinet.layers import Conv2d
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
            got = T.conv2d(tensor(x, np.float64), tensor(w, np.float64),
                           tensor(b, np.float64), stride, padding).numpy()
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
        for _ in range(10):
            c = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            x = tensor((0.5 * rng.normal(size=(1, c, 6, 6))).astype(np.float32))
            dw = (0.5 * rng.normal(size=(c, 1, k, k))).astype(np.float32)
            full = np.zeros((c, c, k, k), dtype=np.float32)
            for ch in range(c):
                full[ch, ch] = dw[ch, 0]
            a = T.depthwise_conv2d(x, tensor(dw), stride=1, padding=k // 2).numpy()
            b = T.conv2d(x, tensor(full), stride=1, padding=k // 2).numpy()
            assert np.max(np.abs(a - b)) <= 1e-6


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
        got = T.gelu(tensor(v, np.float64)).numpy()
        want = 0.5 * v * (1.0 + np.vectorize(math.erf)(v / math.sqrt(2.0)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unknown_kind(self, rng):
        with pytest.raises(DomainError):
            T.activation(rand_t(rng, (1, 1, 1, 1)), "tanh")


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
        p = T.Parameter((2, 2, 1, 1), init=("const", 0.0))
        p.materialize(0, "w")
        p.set(rng.normal(size=(2, 2, 1, 1)).astype(np.float32))
        x = rand_t(rng, (1, 2, 3, 3))
        with Tape() as tape:
            y = T.conv2d(x, p.value)
        tape.backward(tensor(np.ones(y.shape, np.float32)))
        assert p.grad is not None and p.grad.shape == (2, 2, 1, 1)



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

def _primitive_cases(rng):
    w_c = tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32))
    b_c = tensor(rng.normal(size=3).astype(np.float32))
    w_d = tensor(rng.normal(size=(2, 1, 3, 3)).astype(np.float32))
    ga = np.array([1.3, 0.7], np.float32)
    be = np.array([0.2, -0.4], np.float32)
    rm = np.array([0.1, -0.2], np.float32)
    rv = np.array([1.5, 0.8], np.float32)
    other = tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
    return {
        "conv2d": lambda x: T.conv2d(x, w_c, b_c, stride=1, padding=1),
        "conv2d_stride2": lambda x: T.conv2d(x, w_c, b_c, stride=2, padding=1),
        "depthwise": lambda x: T.depthwise_conv2d(x, w_d, None, 1, 1),
        "batch_norm": lambda x: T.batch_norm(x, ga, be, rm, rv, eps=1e-5),
        "layer_norm": lambda x: T.layer_norm(x, ga, be, eps=1e-5),
        "silu": T.silu,
        "gelu": T.gelu,
        "sigmoid": T.sigmoid,
        "relu": T.relu,
        "mul_other": lambda x: T.mul(x, other),
        "add_self": lambda x: T.add(x, x),
        "broadcast": lambda x: T.broadcast_mul(
            x, T.sigmoid(T.global_avg_pool(x))),
        "concat_split": lambda x: T.concat_channels(
            T.split_channels(x, [1, 1])[::-1]),
        "upsample": T.upsample_nearest2x,
        "max_pool": lambda x: T.max_pool(x, 3, stride=1, padding=1),
        "space_to_depth": T.space_to_depth_2x2,
        "global_avg": T.global_avg_pool,
        "global_max": T.global_max_pool,
        "channel_mean": T.channel_mean,
        "channel_max": T.channel_max,
        "scale": lambda x: T.scale(x, -1.7),
    }


class TestGradCheck:
    def test_identity_zero_error(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        assert grad_check(lambda t: T.scale(t, 1.0), x, seed=0) <= 1e-12

    def test_silu_small_error(self, rng):
        x = rand_t(rng, (1, 2, 3, 3))
        assert grad_check(T.silu, x, seed=0) <= 1e-6

    @pytest.mark.parametrize("name", sorted(_primitive_cases(np.random.default_rng(7))))
    def test_every_primitive(self, name):
        rng = np.random.default_rng(7)
        cases = _primitive_cases(rng)
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
