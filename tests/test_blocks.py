"""Composite blocks: skip-path exactness, zero propagation, shape contracts
and gradient checks."""

import numpy as np
import pytest

from drsinet import tensor as T
from drsinet.blocks import (
    C3, C3dr, Cbam, ConvBnSilu, DrsiBlock, Focus, InvertedBottleneck, Spp,
)
from drsinet.tensor import DomainError, grad_check, tensor


def rand_t(rng, shape):
    return tensor(rng.normal(size=shape).astype(np.float32))


class TestFocus:
    def test_output_shape_from_rgb(self, rng):
        focus = Focus(16).finalize(0)
        x = rand_t(rng, (1, 3, 64, 64))
        assert focus(x).shape == (1, 16, 32, 32)

    def test_half_resolution_960(self, rng):
        focus = Focus(8).finalize(0)
        x = rand_t(rng, (1, 3, 960, 960))
        assert focus(x).shape == (1, 8, 480, 480)

    def test_zero_input_zero_output(self):
        focus = Focus(16).finalize(1)
        y = focus(tensor(np.zeros((1, 3, 8, 8), np.float32)))
        assert np.all(y.numpy() == 0.0)

    def test_odd_dims_rejected(self, rng):
        focus = Focus(8).finalize(0)
        with pytest.raises(Exception):
            focus(rand_t(rng, (1, 3, 7, 8)))


class TestSpp:
    def test_constant_input_composition(self):
        spp = Spp(8).finalize(2)
        x = tensor(np.full((1, 8, 6, 6), -2.0, np.float32))
        inner = spp.cv1(x)
        want = spp.cv2(T.concat_channels([inner] * 4))
        np.testing.assert_array_equal(spp(x).numpy(), want.numpy())

    @pytest.mark.parametrize("shape", [(1, 3, 20, 20), (2, 4, 7, 9), (1, 2, 3, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chained_5x5_pools_equal_direct_pools(self, shape, dtype, rng):
        x = tensor(rng.normal(size=shape).astype(dtype))
        chain = [x]
        for _ in range(3):
            chain.append(T.max_pool(chain[-1], 5, stride=1, padding=2))
        for k, pooled in zip((5, 9, 13), chain[1:]):
            direct = T.max_pool(x, k, stride=1, padding=k // 2)
            assert pooled.numpy().tobytes() == direct.numpy().tobytes(), k

    def test_forward_equals_direct_pools(self, rng):
        spp = Spp(8).finalize(5)
        x = rand_t(rng, (1, 8, 11, 6))
        inner = spp.cv1(x)
        pools = [T.max_pool(inner, k, stride=1, padding=k // 2) for k in (5, 9, 13)]
        want = spp.cv2(T.concat_channels([inner] + pools))
        assert spp(x).numpy().tobytes() == want.numpy().tobytes()

    def test_channel_arithmetic(self, rng):
        spp = Spp(512).finalize(3)
        assert spp.cv1.conv.weight.logical_shape[0] == 256
        assert spp.cv2.conv.weight.logical_shape[1] == 1024
        x = rand_t(rng, (1, 512, 4, 4))
        assert spp(x).shape == (1, 512, 4, 4)


class TestC3:
    def test_zeroed_bottlenecks_pass_through(self, rng):
        c3 = C3(8, 8, depth=2).finalize(4)
        for blk in c3.blocks:
            blk.cv2.conv.weight.set(np.zeros((8 // 2, 8 // 2, 3, 3), np.float32))
        x = rand_t(rng, (1, 8, 5, 5))
        want = c3.cv3(T.concat_channels([c3.cv1(x), c3.cv2(x)]))
        np.testing.assert_array_equal(c3(x).numpy(), want.numpy())

    def test_channel_mapping(self, rng):
        c3 = C3(16, 32, depth=3).finalize(5)
        assert c3(rand_t(rng, (2, 16, 4, 4))).shape == (2, 32, 4, 4)


class TestInvertedBottleneck:
    def test_zero_input_zero_output(self):
        blk = InvertedBottleneck(8).finalize(6)
        y = blk(tensor(np.zeros((1, 8, 5, 5), np.float32)))
        assert np.all(y.numpy() == 0.0)

    def test_zeroed_projection_is_pure_skip(self, rng):
        blk = InvertedBottleneck(8, expansion=2).finalize(7)
        blk.c2.weight.set(np.zeros((8, 16, 1, 1), np.float32))
        x = rand_t(rng, (1, 8, 5, 5))
        np.testing.assert_array_equal(blk(x).numpy(), x.numpy())

    def test_grad_check(self):
        blk = InvertedBottleneck(8, expansion=2).finalize(8)
        rng = np.random.default_rng(80)
        x = rand_t(rng, (1, 8, 6, 6))
        assert grad_check(blk.forward, x, seed=0) <= 1e-4


class TestDrsiBlock:
    def test_zeroed_interaction_output_equals_inner(self, rng):
        blk = DrsiBlock(8, order=2).finalize(9)
        blk.rgc.phi_out.weight.set(np.zeros((8, 8, 1, 1), np.float32))
        x = rand_t(rng, (1, 8, 5, 5))
        np.testing.assert_array_equal(blk(x).numpy(), blk.invbn(x).numpy())

    def test_zero_input_zero_output(self):
        blk = DrsiBlock(8, order=2).finalize(10)
        y = blk(tensor(np.zeros((1, 8, 4, 4), np.float32)))
        assert np.all(y.numpy() == 0.0)

    @pytest.mark.parametrize("c", [8, 16, 32])
    def test_shape_preserved(self, c, rng):
        blk = DrsiBlock(c, order=2).finalize(11)
        x = rand_t(rng, (1, c, 5, 5))
        assert blk(x).shape == (1, c, 5, 5)

    def test_grad_check(self):
        blk = DrsiBlock(8, order=2, expansion=2).finalize(12)
        rng = np.random.default_rng(120)
        x = rand_t(rng, (1, 8, 6, 6))
        assert grad_check(blk.forward, x, seed=1) <= 1e-4


class TestC3dr:
    def test_branch_and_output_widths(self, rng):
        mod = C3dr(64, 128, depth=3).finalize(13)
        assert mod.conv_cross.conv.weight.logical_shape[0] == 64
        assert mod.conv_main.conv.weight.logical_shape[0] == 64
        x = rand_t(rng, (1, 64, 4, 4))
        assert mod(x).shape == (1, 128, 4, 4)

    def test_zeroed_cross_branch(self, rng):
        mod = C3dr(8, 16, depth=1).finalize(14)
        mod.conv_cross.conv.weight.set(np.zeros((8, 8, 1, 1), np.float32))
        x = rand_t(rng, (1, 8, 5, 5))
        got = mod(x).numpy()
        assert np.all(np.isfinite(got))
        main = mod.conv_main(x)
        zeros = tensor(np.zeros(main.shape, np.float32))
        want = mod.conv_final(T.concat_channels([main, zeros]))
        np.testing.assert_array_equal(got, want.numpy())

    def test_grad_check(self):
        mod = C3dr(8, 16, depth=1, expansion=2).finalize(15)
        rng = np.random.default_rng(150)
        x = rand_t(rng, (1, 8, 6, 6))
        assert grad_check(mod.forward, x, seed=2) <= 1e-4

    def test_param_count_closed_form(self):
        c_in, c_out, depth, order, e = 16, 32, 2, 2, 4
        mod = C3dr(c_in, c_out, depth, order=order, expansion=e).finalize(16)
        ch = c_out // 2

        def conv_bn_silu(ci, co, k=1):
            return ci * co * k * k + 2 * co

        def res_gn_conv(c, n):
            sch_ck = [c // (1 << (n - 1 - k)) for k in range(n)]
            cq = sum(sch_ck)
            total = c * 2 * c + 2 * c            # phi_in weight + bias
            total += cq * 49 + cq                # depthwise 7x7 + bias
            for k in range(1, n):
                total += sch_ck[k - 1] * sch_ck[k] + 2 * sch_ck[k]
            total += c * c + c                   # phi_out weight + bias
            return total

        def drsi_block(c):
            ce = c * e
            inv = 2 * c + (c * ce + ce)          # bn1 + c1
            inv += 2 * ce + (ce * 9 + ce)        # bn2 + dw3x3
            inv += 2 * ce + (ce * c + c)         # bn3 + c2
            return inv + 2 * c + res_gn_conv(c, order)

        want = (conv_bn_silu(c_in, ch) + conv_bn_silu(c_in, ch)
                + depth * drsi_block(ch) + conv_bn_silu(c_out, c_out))
        assert sum(p.count() for _, p in mod.named_parameters() if p.trainable) == want


class TestCbam:
    def test_zero_weights_quarter_input(self, rng):
        att = Cbam(16, reduction=16, sam_kernel=3).finalize(17)
        att.fc1.weight.set(np.zeros((1, 16, 1, 1), np.float32))
        att.fc2.weight.set(np.zeros((16, 1, 1, 1), np.float32))
        att.sam_conv.weight.set(np.zeros((1, 2, 3, 3), np.float32))
        x = rand_t(rng, (1, 16, 5, 5))
        np.testing.assert_allclose(att(x).numpy(), x.numpy() / 4.0, rtol=1e-6)

    def test_attention_maps_bounded(self, rng):
        att = Cbam(16, reduction=4, sam_kernel=3).finalize(18)
        x = rand_t(rng, (2, 16, 6, 6))
        cam = T.sigmoid(T.add(att._mlp(T.global_avg_pool(x)),
                              att._mlp(T.global_max_pool(x)))).numpy()
        y = T.broadcast_mul(x, T.sigmoid(T.add(att._mlp(T.global_avg_pool(x)),
                                               att._mlp(T.global_max_pool(x)))))
        maps = T.concat_channels([T.channel_mean(y), T.channel_max(y)])
        sam = T.sigmoid(att.sam_conv(maps)).numpy()
        assert np.all((cam > 0) & (cam < 1))
        assert np.all((sam > 0) & (sam < 1))

    def test_grad_check(self):
        att = Cbam(16, reduction=16, sam_kernel=3).finalize(19)
        rng = np.random.default_rng(190)
        x = rand_t(rng, (1, 16, 5, 5))
        assert grad_check(att.forward, x, seed=3) <= 1e-4

    def test_channels_too_small(self):
        with pytest.raises(DomainError):
            Cbam(8, reduction=16)


class TestConvBnSilu:
    @pytest.mark.parametrize("cin,cout,k,s", [(8, 16, 3, 2), (16, 8, 1, 1),
                                              (8, 8, 3, 1)])
    def test_channel_and_stride_mapping(self, cin, cout, k, s, rng):
        conv = ConvBnSilu(cin, cout, k, stride=s).finalize(20)
        x = rand_t(rng, (1, cin, 8, 8))
        assert conv(x).shape == (1, cout, 8 // s, 8 // s)
