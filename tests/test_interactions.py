"""Recursive (residual) gated convolution: channel scheme, reductions,
hand-unrolled recursions and gradient checks."""

import numpy as np
import pytest

from drsinet import tensor as T
from drsinet.interactions import ChannelScheme, ResGnConv, build_scheme
from drsinet.tensor import DomainError, Tape, grad_check, tensor


def copy_weights(src, dst):
    for (n1, p1), (n2, p2) in zip(src.named_parameters(), dst.named_parameters()):
        assert n1 == n2
        p2.set(p1.value.numpy().reshape(p1.logical_shape))


def unrolled(layer, x):
    """The layer's recursion written out from its own sublayers: its output
    and the per-order intermediates p_k, s_k and f_k(q_k)."""
    sch = layer.scheme
    p, q = T.split_channels(layer.phi_in(x), [sch.c_0, sch.c_q])
    fq = T.split_channels(layer.dw(q), list(sch.c_k))
    trace = {"p": [p], "s": [], "fq": fq}
    for k in range(sch.n):
        s = p if k == 0 else layer.g_k[k - 1](p)
        p = T.mul(fq[k], s)
        if layer.residual_enabled:
            p = T.scale(T.add(T.add(s, fq[k]), p), 1.0 / layer.lam)
        trace["s"].append(s)
        trace["p"].append(p)
    y = layer.phi_out(p)
    assert y.numpy().tobytes() == layer(x).numpy().tobytes()
    return y, trace


def zero_biases(layer):
    layer.phi_in.bias.set(np.zeros(2 * layer.scheme.c, np.float32))
    layer.dw.bias.set(np.zeros(layer.scheme.c_q, np.float32))
    layer.phi_out.bias.set(np.zeros(layer.scheme.c, np.float32))


def identity_layer(c, n, lam=3.0, residual_enabled=False):
    """All-identity configuration: replicating projections, center-tap depthwise."""
    layer = ResGnConv(c, n=n, lam=lam, residual_enabled=residual_enabled)
    layer.finalize(0)
    w_in = np.zeros((2 * c, c, 1, 1), np.float32)
    for r in range(2 * c):
        w_in[r, r % c, 0, 0] = 1.0
    layer.phi_in.weight.set(w_in)
    layer.phi_in.bias.set(np.zeros(2 * c, np.float32))
    dw = np.zeros((layer.scheme.c_q, 1, 7, 7), np.float32)
    dw[:, 0, 3, 3] = 1.0
    layer.dw.weight.set(dw)
    layer.dw.bias.set(np.zeros(layer.scheme.c_q, np.float32))
    for k in range(1, n):
        ci, co = layer.scheme.c_k[k - 1], layer.scheme.c_k[k]
        w = np.zeros((co, ci, 1, 1), np.float32)
        for r in range(co):
            w[r, r % ci, 0, 0] = 1.0
        layer.g_k[k - 1].conv.weight.set(w)
    layer.phi_out.weight.set(np.eye(c, dtype=np.float32).reshape(c, c, 1, 1))
    layer.phi_out.bias.set(np.zeros(c, np.float32))
    return layer


def manual_gconv(layer, x):
    """Independent one-order composition from the layer's own weights."""
    c = layer.scheme.c
    proj = T.conv2d(x, layer.phi_in.weight.value, layer.phi_in.bias.value)
    p0, q0 = T.split_channels(proj, [c, c])
    fq0 = T.depthwise_conv2d(q0, layer.dw.weight.value, layer.dw.bias.value,
                             1, 3)
    p1 = T.mul(p0, fq0)
    return T.conv2d(p1, layer.phi_out.weight.value, layer.phi_out.bias.value)


class TestChannelScheme:
    def test_examples(self):
        s = build_scheme(64, 2)
        assert s.c_k == (32, 64) and s.c_0 == 32 and s.c_0 + s.c_q == 128

        s = build_scheme(64, 1)
        assert s.c_k == (64,) and s.c_0 + s.c_q == 128

        s = build_scheme(64, 3)
        assert s.c_k == (16, 32, 64) and s.c_0 == 16 and s.c_0 + s.c_q == 128

    def test_constraint_exhaustive(self):
        checked = 0
        for n in range(1, 6):
            for c in range(8, 1025, 8):
                if c % (1 << (n - 1)):
                    continue
                s = build_scheme(c, n)
                assert s.c_0 + s.c_q == 2 * c
                assert all(s.c_k[i + 1] == 2 * s.c_k[i] for i in range(n - 1))
                assert s.c_k[-1] == c
                checked += 1
        assert checked > 300

    def test_divisibility_error(self):
        with pytest.raises(DomainError):
            build_scheme(12, 4)

    def test_order_error(self):
        with pytest.raises(DomainError):
            build_scheme(64, 0)


class TestGconv:
    def test_identity_config_squares_input(self):
        layer = identity_layer(4, n=1)
        x = tensor(np.full((1, 4, 3, 3), 3.0, np.float32))
        y = layer(x)
        np.testing.assert_array_equal(y.numpy(), np.full((1, 4, 3, 3), 9.0, np.float32))

    def test_zero_input_zero_output(self):
        layer = ResGnConv(8, n=1, residual_enabled=False).finalize(3)
        zero_biases(layer)
        y = layer(tensor(np.zeros((1, 8, 4, 4), np.float32)))
        assert np.all(y.numpy() == 0.0)

    def test_shape_preserved(self, rng):
        layer = ResGnConv(8, n=1, residual_enabled=False).finalize(5)
        for shape in [(1, 8, 4, 4), (2, 8, 6, 3), (1, 8, 9, 9)]:
            x = tensor(rng.normal(size=shape).astype(np.float32))
            assert layer(x).shape == shape


class TestGnConv:
    def test_n1_reduces_to_gconv_bitwise(self, rng):
        layer = ResGnConv(8, n=1, residual_enabled=False).finalize(7)
        for _ in range(20):
            x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
            a = layer(x)
            b = manual_gconv(layer, x)
            assert a.numpy().tobytes() == b.numpy().tobytes()

    def test_identity_config_n2_unrolled(self):
        # hand-unrolled recursion: p1 = f0(q0) * p0 = 4; the order-1 projection
        # then applies BN (eps) and SiLU as the projection composition states,
        # so p2 = f1(q1) * silu(bn(4)) rather than a pure 8
        c = 8
        layer = identity_layer(c, n=2)
        x = tensor(np.full((1, c, 5, 5), 2.0, np.float32))
        y, trace = unrolled(layer, x)
        np.testing.assert_array_equal(trace["p"][1].numpy(),
                                      np.full((1, 4, 5, 5), 4.0, np.float32))
        bn4 = 4.0 / np.sqrt(1.0 + 1e-5)
        expected_p2 = 2.0 * (bn4 / (1.0 + np.exp(-bn4)))
        np.testing.assert_allclose(trace["p"][2].numpy(),
                                   np.full((1, 8, 5, 5), expected_p2), rtol=1e-6)
        np.testing.assert_allclose(y.numpy(), np.full((1, 8, 5, 5), expected_p2),
                                   rtol=1e-6)

    def test_zero_input_zero_output(self):
        layer = ResGnConv(8, n=2, residual_enabled=False).finalize(9)
        zero_biases(layer)
        y = layer(tensor(np.zeros((1, 8, 4, 4), np.float32)))
        assert np.all(y.numpy() == 0.0)


class TestResGnConv:
    def test_identity_config_n1_lambda3(self):
        layer = identity_layer(4, n=1, lam=3.0, residual_enabled=True)
        x = tensor(np.full((1, 4, 3, 3), 3.0, np.float32))
        y = layer(x)
        # (3 + 3 + 3*3) / 3 = 5
        np.testing.assert_array_equal(y.numpy(), np.full((1, 4, 3, 3), 5.0, np.float32))

    def test_zero_input_zero_output(self):
        layer = ResGnConv(8, n=2, lam=3.0, residual_enabled=True).finalize(11)
        zero_biases(layer)
        y = layer(tensor(np.zeros((1, 8, 4, 4), np.float32)))
        assert np.all(y.numpy() == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_disabled_residual_equals_plain(self, n, rng):
        plain = ResGnConv(8, n=n, residual_enabled=False).finalize(13)
        toggled = ResGnConv(8, n=n, lam=3.0, residual_enabled=True).finalize(17)
        copy_weights(plain, toggled)
        toggled.residual_enabled = False
        toggled.lam = 1.0
        for _ in range(20):
            x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
            a = plain(x).numpy()
            b = toggled(x).numpy()
            assert np.max(np.abs(a - b)) <= 1e-5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_identity_per_order(self, n, rng):
        layer = ResGnConv(8, n=n, lam=3.0, residual_enabled=True).finalize(19)
        x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        _, trace = unrolled(layer, x)
        for k in range(n):
            s = trace["s"][k].numpy()
            fq = trace["fq"][k].numpy()
            p_next = trace["p"][k + 1].numpy()
            lhs = layer.lam * p_next - s - fq
            np.testing.assert_allclose(lhs, fq * s, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grad_check(self, n):
        layer = ResGnConv(8, n=n, lam=3.0, residual_enabled=True).finalize(23)
        rng = np.random.default_rng(29)
        x = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        assert grad_check(layer.forward, x, seed=n) <= 1e-4

    @pytest.mark.parametrize("c,n", [(8, 1), (8, 2), (8, 3), (16, 2), (32, 4)])
    def test_shape_preserved(self, c, n, rng):
        layer = ResGnConv(c, n=n).finalize(31)
        x = tensor(rng.normal(size=(2, c, 6, 6)).astype(np.float32))
        assert layer(x).shape == (2, c, 6, 6)

    def test_locality_bound(self, rng):
        # identity pointwise projections; spatial mixing only via the 7x7
        # depthwise stage, so effects stay within Chebyshev radius 3n
        n = 2
        layer = identity_layer(8, n=n, residual_enabled=True)
        layer.dw.weight.set(rng.normal(size=(layer.scheme.c_q, 1, 7, 7)
                                       ).astype(np.float32))
        base_in = rng.normal(size=(1, 8, 21, 21)).astype(np.float32)
        pert_in = base_in.copy()
        pert_in[0, 3, 10, 10] += 1.0
        diff = np.abs(layer(tensor(pert_in)).numpy() - layer(tensor(base_in)).numpy())
        changed = np.argwhere(diff.max(axis=(0, 1)) > 0)
        assert changed.size > 0
        radius = np.abs(changed - np.array([10, 10])).max()
        assert radius <= 3 * n

    def test_input_adaptive_jacobian(self, rng):
        # gradients w.r.t. the input differ between inputs, which no fixed
        # linear convolution can do
        layer = ResGnConv(8, n=2).finalize(37)
        g = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))

        def input_grad(x):
            with Tape() as tape:
                y = layer(x)
            tape.backward(g, output=y)
            return tape.grad_for(x).numpy()

        x1 = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        x2 = tensor(rng.normal(size=(1, 8, 5, 5)).astype(np.float32))
        assert np.max(np.abs(input_grad(x1) - input_grad(x2))) > 1e-3

    def test_lambda_must_be_positive(self):
        with pytest.raises(DomainError):
            ResGnConv(8, n=1, lam=0.0)
