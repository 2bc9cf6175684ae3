"""Model assembly: configs, deterministic builds, pyramid shapes, neck
variants and end-to-end gradient checks."""

import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from drsinet import tensor as T
from drsinet.blocks import ConvBnSilu
from drsinet.layers import Conv2d, Layer
from drsinet.network import (CHANNEL_ROUND, ConfigError, Model, ModelConfig, Neck,
                             build_model)
from drsinet.profiler import profile, trace
from drsinet.tensor import ShapeError, grad_check, tensor

CONFIGS = Path(__file__).parents[1] / "configs"


def mini_config(**overrides):
    base = dict(variant="custom", width_mult=0.005, depth_mult=0.2,
                cbam_reduction=4, neck="pan")
    base.update(overrides)
    return ModelConfig(**base)


def trainable(layer):
    return sum(p.count() for _, p in layer.named_parameters() if p.trainable)


def rand_image(rng, size, batch=1):
    return tensor(rng.uniform(0, 1, size=(batch, 3, size, size)).astype(np.float32))


class TestModelConfig:
    @pytest.mark.parametrize("variant", ["s", "m", "l"])
    @pytest.mark.parametrize("block", ["c3dr", "c3"])
    def test_block_count_is_what_the_model_builds(self, variant, block):
        from drsinet.blocks import Bottleneck, DrsiBlock
        cfg = ModelConfig(variant=variant, backbone_block=block)
        built = sum(isinstance(layer, (Bottleneck, DrsiBlock))
                    for _, layer in Model(cfg).named_layers())
        assert built == cfg.block_count()

    def test_variant_presets(self):
        s = ModelConfig(variant="s")
        assert (s.depth_mult, s.width_mult) == (0.33, 0.50)
        assert s.stage_channels() == [64, 128, 256, 384, 512]
        assert s.stage_depths() == [1, 3, 3, 1]
        m = ModelConfig(variant="m")
        assert m.stage_channels() == [96, 192, 384, 576, 768]
        assert m.stage_depths() == [2, 6, 6, 2]
        lv = ModelConfig(variant="l")
        assert lv.stage_channels() == [128, 256, 512, 768, 1024]
        assert lv.stage_depths() == [3, 9, 9, 3]

    def test_channels_rounded_and_divisible(self):
        cfg = ModelConfig(variant="custom", width_mult=0.3, depth_mult=0.33,
                          order_n=3)
        for c in cfg.stage_channels():
            assert c % CHANNEL_ROUND == 0
            assert c % (1 << (cfg.order_n - 1)) == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"variant": "s", "widht_mult": 0.5})

    def test_lambda_file_key(self):
        cfg = ModelConfig.from_dict({"variant": "s", "lambda": 2.0})
        assert cfg.lambda_ == 2.0
        assert ModelConfig.from_dict(cfg.to_dict()).lambda_ == 2.0

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            ModelConfig.from_file(p)

    def test_anchor_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="s", anchors=(((1, 1),),) * 4)

    def test_custom_needs_multipliers(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="custom")

    def test_layer_tree_built_once(self, monkeypatch):
        """Loading a config builds no layer; ``build_model`` builds one Model."""
        built = []
        init = Layer.__init__

        def counting_init(self):
            built.append(type(self))
            init(self)
        monkeypatch.setattr(Layer, "__init__", counting_init)
        cfg = ModelConfig.from_file(CONFIGS / "mini.json")
        assert built == []
        build_model(cfg, seed=0)
        assert built.count(Model) == 1

    def test_build_walks_the_tree_twice(self, monkeypatch):
        """``Model(cfg)`` names its tree in the walk that bounds its archive
        entries; ``finalize`` walks it once more to seed the weights."""
        walks = []
        named_layers = Layer.named_layers

        def counting(self, prefix=""):
            if isinstance(self, Model):
                walks.append(prefix)
            return named_layers(self, prefix)
        monkeypatch.setattr(Layer, "named_layers", counting)
        model = Model(mini_config())
        assert walks == [""]
        model.finalize(0)
        assert walks == ["", ""]

    def test_unloaded_model_names_its_parameter(self):
        model = Model(ModelConfig.from_file(CONFIGS / "mini.json"))
        with pytest.raises(RuntimeError) as info:
            model(tensor(np.zeros((1, 3, 64, 64), np.float32)))
        assert str(info.value) == "parameter 'backbone.focus.conv.conv.weight' not materialized"

    @pytest.mark.parametrize("init", [("kaiming", 2), ("const", 0.0)])
    def test_unnamed_parameter_refuses_materialize(self, init):
        """The seeded init is keyed by the name that a root walk writes."""
        with pytest.raises(RuntimeError, match="^parameter has no name to key its seeded init"):
            T.Parameter((2, 2, 1, 1), init=init).materialize(0)

    def test_head_channels(self):
        assert ModelConfig(variant="s").head_channels() == 171

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_loads_and_round_trips(self, name):
        cfg = ModelConfig.from_file(CONFIGS / name)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("variant", ["s", "m", "l"])
    def test_shipped_variant_is_its_preset(self, variant):
        report = profile(ModelConfig.from_file(CONFIGS / f"drsinet-{variant}.json"), 640)
        preset = profile(ModelConfig(variant=variant), 640)
        assert (report.total_params, report.total_macs) == (
            preset.total_params, preset.total_macs)


class TestBuildDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = mini_config()
        a = build_model(cfg, seed=42)
        b = build_model(mini_config(), seed=42)
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            assert p1.value.numpy().tobytes() == p2.value.numpy().tobytes()

    def test_different_seed_differs(self):
        a = build_model(mini_config(), seed=0)
        b = build_model(mini_config(), seed=1)
        diffs = [n for (n, p1), (_, p2) in zip(a.named_parameters(), b.named_parameters())
                 if p1.trainable and p1.value.numpy().tobytes() != p2.value.numpy().tobytes()]
        assert diffs


class TestLifetime:
    def test_dropped_model_freed_without_cycle_collector(self):
        model = build_model(mini_config(), seed=0)
        weight = weakref.ref(model.heads[0].weight)
        gc.disable()
        try:
            del model
            assert weight() is None
        finally:
            gc.enable()

    def test_forward_live_high_water(self, monkeypatch):
        """One warm drsinet-s forward at 320x320 (seed-0 build, seed-0
        standard-normal frame, one worker so that the count does not follow
        the CPUs) holds at most 11.0 MB of traced allocations above its
        input: every feature map dies at its last use and no conv pads its
        whole input.  Measured 10,056,584 bytes, so the bound leaves 9%.
        Holding each stage's input through its body, every block
        intermediate to the end of its statement, the three maps of each
        interaction order and a padded copy of every padded conv's input,
        the same forward held 19,944,511 bytes."""
        monkeypatch.setattr(T, "_worker_count", lambda: 1)
        model = build_model(ModelConfig(variant="s"), seed=0)
        x = tensor(np.random.default_rng(0).standard_normal((1, 3, 320, 320))
                   .astype(np.float32))
        model(x)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 11_000_000, peak


class TestBackbone:
    def test_pyramid_shapes_s_640(self, rng):
        model = build_model(ModelConfig(variant="s"), seed=0)
        levels = model.backbone(rand_image(rng, 640))
        want = [(1, 128, 80, 80), (1, 256, 40, 40), (1, 384, 20, 20), (1, 512, 10, 10)]
        assert [lv.shape for lv in levels] == want
        assert levels[3].shape[1] == 512

    def test_pyramid_shapes_l_960_analytic(self):
        marks = dict(trace(ModelConfig(variant="l"), 960))
        assert marks["backbone.P3"] == (1, 256, 120, 120)
        assert marks["backbone.P4"] == (1, 512, 60, 60)
        assert marks["backbone.P5"] == (1, 768, 30, 30)
        assert marks["backbone.P6"] == (1, 1024, 15, 15)

    def test_indivisible_input_rejected(self, rng):
        model = build_model(mini_config(), seed=0)
        with pytest.raises(ShapeError):
            model.backbone(tensor(np.zeros((1, 3, 500, 500), np.float32)))

    def test_weights_shared_across_resolutions(self, rng):
        model = build_model(mini_config(), seed=3)
        before = {n: p.value.numpy().tobytes() for n, p in model.named_parameters()}
        model(rand_image(rng, 64))
        model(rand_image(rng, 128))
        after = {n: p.value.numpy().tobytes() for n, p in model.named_parameters()}
        assert before == after


class _Scaler(Layer):
    def __init__(self, factor):
        super().__init__()
        self.factor = factor

    def forward(self, x):
        return T.scale(x, self.factor)


class TestNeck:
    @pytest.mark.parametrize("kind", ["pan", "cbam_pan", "asi_pan"])
    def test_strides_preserved(self, kind, rng):
        model = build_model(mini_config(neck=kind), seed=5)
        levels = model.backbone(rand_image(rng, 128))
        out = model.neck(levels)
        assert [lv.shape[2:] for lv in out] == [lv.shape[2:] for lv in levels]
        assert [128 // lv.shape[2] for lv in out] == [8, 16, 32, 64]

    def test_all_necks_same_shapes(self, rng):
        x = rand_image(rng, 128)
        shapes = {}
        for kind in ("pan", "cbam_pan", "asi_pan"):
            model = build_model(mini_config(neck=kind), seed=6)
            out = model.neck(model.backbone(x))
            shapes[kind] = [lv.shape for lv in out]
        assert shapes["pan"] == shapes["cbam_pan"] == shapes["asi_pan"]

    def test_zeroed_cbam_equals_quarter_scaled_pan(self, rng):
        pan = build_model(mini_config(neck="pan"), seed=8)
        cbam = build_model(mini_config(neck="cbam_pan"), seed=9)
        pan_names = dict(pan.named_parameters())
        for name, p in cbam.named_parameters():
            if name in pan_names:
                p.set(pan_names[name].value.numpy().reshape(p.logical_shape))
            else:
                assert ".attn." in name
                p.set(np.zeros(p.logical_shape, np.float32))
        # a zero-weight attention stage is exactly a divide-by-four
        for tr in pan.neck.td_transforms:
            tr.attn = _Scaler(0.25)
        for tr in pan.neck.bu_transforms:
            tr.attn = _Scaler(0.25)
        x = rand_image(rng, 128)
        got = [lv.numpy().tobytes() for lv in cbam.neck(cbam.backbone(x))]
        want = [lv.numpy().tobytes() for lv in pan.neck(pan.backbone(x))]
        assert got == want

    @pytest.mark.parametrize("kind", ["pan", "cbam_pan", "asi_pan"])
    def test_miniature_two_level_grad_check(self, kind):
        cfg = mini_config(neck=kind)
        neck = Neck([8, 16], cfg).finalize(11)
        down = ConvBnSilu(8, 16, 3, stride=2).finalize(12)

        def fn(x):
            outs = neck([x, down(x)])
            return T.concat_channels([outs[0], T.upsample_nearest2x(outs[1])])

        rng = np.random.default_rng(13)
        x = tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        assert grad_check(fn, x, seed=14, sample=48) <= 1e-4


class TestHeads:
    def test_head_channel_count(self, rng):
        model = build_model(mini_config(), seed=15)
        outs = model(rand_image(rng, 128))
        assert all(o.shape[1] == 171 for o in outs)

    def test_anchor_slot_formula(self):
        rows = dict(trace(ModelConfig(variant="s"), 960))
        grids = [rows[f"heads.{i}"][2] * rows[f"heads.{i}"][3] for i in range(4)]
        assert grids == [120 ** 2, 60 ** 2, 30 ** 2, 15 ** 2]
        assert 3 * sum(grids) == 57_375

    def test_zero_weights_zero_logits(self, rng):
        model = build_model(mini_config(), seed=16)
        for head in model.heads:
            head.weight.set(np.zeros(head.weight.logical_shape, np.float32))
        outs = model(rand_image(rng, 64))
        assert all(np.all(o.numpy() == 0.0) for o in outs)


class TestEndToEnd:
    def test_grad_check_width8_model(self):
        cfg = mini_config(neck="asi_pan")
        model = build_model(cfg, seed=18)

        def fn(x):
            outs = model(x)
            merged = outs[0]
            for o in outs[1:]:
                up = o
                while up.shape[2] < merged.shape[2]:
                    up = T.upsample_nearest2x(up)
                merged = T.add(merged, up)
            return merged

        rng = np.random.default_rng(19)
        x = tensor(rng.uniform(0, 1, size=(1, 3, 64, 64)).astype(np.float32))
        assert grad_check(fn, x, seed=20, sample=24) <= 1e-3

    def test_forward_finite_mini(self, rng):
        for kind in ("pan", "cbam_pan", "asi_pan"):
            model = build_model(mini_config(neck=kind), seed=21)
            outs = model(rand_image(rng, 128))
            assert all(np.all(np.isfinite(o.numpy())) for o in outs)

    def test_count_trainable_closed_form_conv(self):
        conv = Conv2d(64, 128, 1, bias=True)
        assert trainable(conv) == 64 * 128 + 128

    def test_count_invariant_to_build_seed(self):
        assert trainable(build_model(mini_config(), seed=0)) == \
            trainable(build_model(mini_config(), seed=99))


class TestTableWidths:
    @pytest.mark.parametrize("variant", ["s", "m", "l"])
    def test_backbone_channel_mapping_per_variant(self, variant, rng):
        cfg = ModelConfig(variant=variant)
        model = build_model(cfg, seed=0)
        levels = model.backbone(rand_image(rng, 64))
        assert [lv.shape[1] for lv in levels] == cfg.stage_channels()[1:]
        for lv, stride in zip(levels, cfg.strides, strict=True):
            assert lv.shape[2] == 64 // stride
