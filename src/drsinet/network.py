"""Model assembly: backbone, fusion necks, detection heads and configuration.

The backbone is a five-stage cross-stage pyramid: a space-to-depth stem, four
(stride-2 conv + cross-stage block) stages emitting P2..P5, and a final
stride-2 conv + SPP + C3 stage emitting P6.  The neck fuses [P3, P4, P5, P6]
top-down then bottom-up, with the pre-upsample transform and the bottom-up
attention selected by ``neck``:

* ``pan``       - plain 1x1 reduce convs;
* ``cbam_pan``  - 1x1 reduce convs followed by channel+spatial attention;
* ``asi_pan``   - top-down attention replaced by recursive residual gated
                  convolutions, bottom-up attention kept.

Every head is a single 1x1 convolution to 3 anchors x (box 4 + objectness 1 +
class 1 + keypoint triples), emitting raw logits.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict

from . import tensor as T
from .blocks import C3, C3dr, Cbam, Focus, Spp
from .interactions import ResGnConv
from .layers import Conv2d, ConvBnSilu, Layer, LayerList
from .tensor import ShapeError

NECK_KINDS = ("pan", "cbam_pan", "asi_pan")
BACKBONE_BLOCKS = ("c3dr", "c3")

# Placeholder anchor priors for smoke tests; real deployments supply their
# own dataset-derived priors through the config file.
DEFAULT_ANCHORS = (
    ((19, 27), (44, 40), (38, 94)),
    ((96, 68), (86, 152), (180, 137)),
    ((140, 301), (303, 264), (238, 542)),
    ((436, 615), (739, 380), (925, 792)),
)

VARIANT_MULTS = {"s": (0.33, 0.50), "m": (0.67, 0.75), "l": (1.00, 1.00)}

# The five stage widths and four cross-stage depths the multipliers scale;
# scaled widths round up to a multiple of CHANNEL_ROUND (README, "Model
# configuration").
BASE_CHANNELS = (128, 256, 512, 768, 1024)
BASE_DEPTHS = (3, 9, 9, 3)
CHANNEL_ROUND = 8

# The most bytes one weight archive entry holds (README, "Weights").
MAX_PARAM_BYTES = (1 << 32) - 1

# The anchor sides a config may give, in px: side^2 is a normal float, and
# a decoded box side is at most 4 * side, so the sum of two box areas in
# box_iou, 2 * (4 * side)^2 at most, stays finite (README, "Model
# configuration").
ANCHOR_SIDES = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 32.0))

# The most bottleneck blocks a model may build: drsinet-l builds 45, and a
# model of 1,000 builds its layer tree in about 0.15 s.
MAX_BLOCKS = 1000


class ConfigError(ValueError):
    """Model configuration violates an invariant or carries unknown keys."""


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_list(v, item):
    return isinstance(v, (list, tuple)) and all(item(x) for x in v)


def _is_anchor_pair(v):
    return _is_list(v, _is_number) and len(v) == 2


_INT = (_is_int, "an integer")
_STR = (lambda v: isinstance(v, str), "a string")
_INTS = (lambda v: _is_list(v, _is_int), "a list of integers")
_MULT = (lambda v: v is None or _is_number(v), "a number")

# field -> (type test, what the message says the value must be)
_FIELD_TYPES = {
    "variant": _STR, "width_mult": _MULT, "depth_mult": _MULT, "order_n": _INT,
    "lambda_": (_is_number, "a number"), "neck": _STR, "strides": _INTS,
    "anchors": (lambda v: _is_list(v, lambda level: _is_list(level, _is_anchor_pair)),
                "a list of levels of [w, h] pairs"),
    "num_keypoints": _INT, "cbam_reduction": _INT,
    "residual_interactions": (lambda v: isinstance(v, bool), "true or false"),
    "backbone_block": _STR, "note": _STR,
}


@dataclass
class ModelConfig:
    """Declarative description of one model variant."""

    variant: str = "s"
    width_mult: float = None
    depth_mult: float = None
    order_n: int = 2
    lambda_: float = 3.0
    neck: str = "asi_pan"
    strides: tuple = (8, 16, 32, 64)
    anchors: tuple = DEFAULT_ANCHORS
    num_keypoints: int = 17
    cbam_reduction: int = 16
    residual_interactions: bool = True
    backbone_block: str = "c3dr"
    note: str = ""

    def __post_init__(self):
        for name, (ok, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name.rstrip('_')} must be {what}, got {value!r}")
        if self.variant in VARIANT_MULTS:
            d, w = VARIANT_MULTS[self.variant]
            if self.depth_mult is None:
                self.depth_mult = d
            if self.width_mult is None:
                self.width_mult = w
        elif self.variant == "custom":
            if self.width_mult is None or self.depth_mult is None:
                raise ConfigError("custom variant requires width_mult and depth_mult")
        else:
            raise ConfigError(f"unknown variant {self.variant!r}")
        self.strides = tuple(self.strides)
        self.anchors = tuple(tuple((float(w), float(h)) for w, h in level)
                             for level in self.anchors)
        self.validate()

    def validate(self):
        if self.order_n < 1:
            raise ConfigError(f"order_n must be >= 1, got {self.order_n}")
        # NaN fails every comparison, so the test is written to fail closed
        for name in ("width_mult", "depth_mult", "lambda_", "cbam_reduction"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name.rstrip('_')} must be finite and > 0, got {value!r}")
        if self.neck not in NECK_KINDS:
            raise ConfigError(f"neck must be one of {NECK_KINDS}, got {self.neck!r}")
        if self.backbone_block not in BACKBONE_BLOCKS:
            raise ConfigError(
                f"backbone_block must be one of {BACKBONE_BLOCKS}, got {self.backbone_block!r}")
        if self.strides != (8, 16, 32, 64):
            raise ConfigError(f"strides must be (8, 16, 32, 64), got {self.strides}")
        if len(self.anchors) != len(self.strides):
            raise ConfigError("anchors must provide one triple per stride")
        for level in self.anchors:
            if len(level) != 3:
                raise ConfigError("exactly 3 anchors per stride are required")
            for side in (v for pair in level for v in pair):
                if not ANCHOR_SIDES[0] <= side <= ANCHOR_SIDES[1]:
                    raise ConfigError(
                        f"anchor sides must be finite and > 0, in [{ANCHOR_SIDES[0]:.3g}, "
                        f"{ANCHOR_SIDES[1]:.3g}] px, got {side!r}")
        if self.num_keypoints < 1:
            raise ConfigError("num_keypoints must be >= 1")
        # both bounded before rounding, which fails on a product past the
        # float range
        if (max(BASE_DEPTHS) > MAX_BLOCKS / self.depth_mult
                or self.block_count() > MAX_BLOCKS):
            raise ConfigError(
                f"depth_mult {self.depth_mult!r} builds more than the {MAX_BLOCKS} "
                f"blocks allowed")
        # a stage this wide cannot hold even its 1x1 conv in an archive entry
        if max(BASE_CHANNELS) > MAX_PARAM_BYTES / self.width_mult:
            raise ConfigError(
                f"width_mult {self.width_mult!r} makes a stage conv larger than the "
                f"{MAX_PARAM_BYTES} bytes a weight archive entry holds")

    # -- scaling --------------------------------------------------------

    def _round_channels(self, c):
        unit = CHANNEL_ROUND * (1 << (self.order_n - 1))
        unit = unit // math.gcd(CHANNEL_ROUND, 1 << (self.order_n - 1))
        return max(unit, int(math.ceil(c * self.width_mult / unit)) * unit)

    def stage_channels(self):
        """The five stage output widths after width scaling and rounding."""
        return [self._round_channels(c) for c in BASE_CHANNELS]

    def focus_channels(self):
        return self._round_channels(BASE_CHANNELS[0] // 2)

    def stage_depths(self):
        return [max(1, round(self.depth_mult * d)) for d in BASE_DEPTHS]

    def fusion_depth(self):
        """Depth of the C3 fusion blocks (neck and final backbone stage)."""
        return max(1, round(self.depth_mult * 3))

    def block_count(self):
        """Bottleneck blocks the model builds: the four backbone stages, the
        final backbone C3 and the neck's top-down and bottom-up C3s."""
        return sum(self.stage_depths()) + (2 * len(self.strides) - 1) * self.fusion_depth()

    def head_channels(self):
        return 3 * (5 + 1 + 3 * self.num_keypoints)

    # -- serialization ----------------------------------------------------

    _FILE_KEYS = {name.rstrip("_") for name in _FIELD_TYPES}

    @classmethod
    def from_dict(cls, data):
        unknown = set(data) - cls._FILE_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "lambda" in kwargs:
            kwargs["lambda_"] = kwargs.pop("lambda")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)

    def to_dict(self):
        data = asdict(self)
        data["lambda"] = data.pop("lambda_")
        return data


def check_input_shape(shape):
    """Reject an input shape (n, c, h, w) the backbone cannot take: it reads
    3 channels, and its six halvings (the stem and five stride-2 convs) need
    positive sides divisible by 64."""
    _, c, h, w = shape
    if c != 3:
        raise ShapeError(f"backbone expects 3 input channels, got {c}")
    if h <= 0 or w <= 0 or h % 64 or w % 64:
        raise ShapeError(f"input dims must be positive and divisible by 64, got {h}x{w}")


class _Stage(Layer):
    """Stride-2 entry conv followed by a cross-stage body; a container that
    names their parameters, called part by part by ``Backbone.forward``."""

    def __init__(self, c_in, c_out, depth, cfg):
        super().__init__()
        self.down = ConvBnSilu(c_in, c_out, 3, stride=2)
        if cfg.backbone_block == "c3dr":
            self.body = C3dr(c_out, c_out, depth, order=cfg.order_n,
                             lam=cfg.lambda_,
                             residual_enabled=cfg.residual_interactions)
        else:
            self.body = C3(c_out, c_out, depth)


class Backbone(Layer):
    """Five-stage feature extractor emitting strides 8/16/32/64."""

    def __init__(self, cfg):
        super().__init__()
        ch = cfg.stage_channels()
        depths = cfg.stage_depths()
        self.focus = Focus(cfg.focus_channels())
        prev = cfg.focus_channels()
        stages = []
        for c_out, depth in zip(ch[:4], depths):
            stages.append(_Stage(prev, c_out, depth, cfg))
            prev = c_out
        self.stages = LayerList(stages)
        self.down5 = ConvBnSilu(ch[3], ch[4], 3, stride=2)
        self.spp = Spp(ch[4])
        self.c3 = C3(ch[4], ch[4], cfg.fusion_depth())
        self.out_channels = ch[1:]

    def forward(self, x):
        check_input_shape(x.shape)
        y = self.focus(x)
        feats = []
        for i, stage in enumerate(self.stages):
            # a stage's input dies once its entry conv has read it
            y = stage.down(y)
            y = stage.body(y)
            # P2 is not an output; the levels run fine to coarse from stride 8
            if i:
                feats.append(y)
        return feats + [self.c3(self.spp(self.down5(y)))]


class _TopDownTransform(Layer):
    """Pre-upsample reduce conv plus the neck-kind-specific module."""

    def __init__(self, c_in, c_out, cfg):
        super().__init__()
        self.reduce = ConvBnSilu(c_in, c_out, 1)
        if cfg.neck == "cbam_pan":
            self.attn = Cbam(c_out, reduction=cfg.cbam_reduction, sam_kernel=1)
        elif cfg.neck == "asi_pan":
            self.attn = ResGnConv(c_out, n=cfg.order_n, lam=cfg.lambda_,
                                  residual_enabled=cfg.residual_interactions)
        else:
            self.attn = None

    def forward(self, x):
        y = self.reduce(x)
        return self.attn(y) if self.attn is not None else y


class _BottomUpTransform(Layer):
    """Stride-2 conv plus attention on the bottom-up path."""

    def __init__(self, c, cfg):
        super().__init__()
        self.down = ConvBnSilu(c, c, 3, stride=2)
        if cfg.neck in ("cbam_pan", "asi_pan"):
            self.attn = Cbam(c, reduction=cfg.cbam_reduction, sam_kernel=3)
        else:
            self.attn = None

    def forward(self, x):
        y = self.down(x)
        return self.attn(y) if self.attn is not None else y


class Neck(Layer):
    """Top-down then bottom-up fusion over an arbitrary number of levels."""

    def __init__(self, channels, cfg):
        super().__init__()
        if len(channels) < 2:
            raise ConfigError("neck needs at least two pyramid levels")
        self.channels = list(channels)
        L = len(channels)
        depth = cfg.fusion_depth()
        self.td_transforms = LayerList([
            _TopDownTransform(channels[L - 1 - i], channels[L - 2 - i], cfg)
            for i in range(L - 1)])
        self.td_fusions = LayerList([
            C3(2 * channels[L - 2 - i], channels[L - 2 - i], depth)
            for i in range(L - 1)])
        self.bu_transforms = LayerList([
            _BottomUpTransform(channels[j], cfg) for j in range(L - 1)])
        self.bu_fusions = LayerList([
            C3(2 * channels[j], channels[j + 1], depth) for j in range(L - 1)])

    def forward(self, levels):
        L = len(self.channels)
        if len(levels) != L:
            raise ShapeError(f"neck built for {L} levels, got {len(levels)}")
        laterals = []               # transform outputs kept for the bottom-up path
        cur = levels[L - 1]
        for i in range(L - 1):
            t = self.td_transforms[i](cur)
            laterals.append(t)
            merged = T.concat_channels([T.upsample_nearest2x(t), levels[L - 2 - i]])
            cur = self.td_fusions[i](merged)
        outs = [cur]                # finest refined level
        for j in range(L - 1):
            d = self.bu_transforms[j](outs[-1])
            merged = T.concat_channels([d, laterals[L - 2 - j]])
            outs.append(self.bu_fusions[j](merged))
        return outs


class Model(Layer):
    """Complete network; built by :func:`build_model`."""

    def __init__(self, cfg):
        super().__init__()
        self.backbone = Backbone(cfg)
        self.neck = Neck(self.backbone.out_channels, cfg)
        self.heads = LayerList([
            Conv2d(c, cfg.head_channels(), 1)
            for c in self.backbone.out_channels])
        # the layer tree holds only shapes until it is materialized
        for p in self.name_tree():
            if 4 * p.count() > MAX_PARAM_BYTES:
                raise ConfigError(
                    f"parameter {p.name} of shape {p.logical_shape} needs {4 * p.count()} "
                    f"bytes, more than the {MAX_PARAM_BYTES} a weight archive entry holds")

    def forward(self, x):
        refined = self.neck(self.backbone(x))
        return [head(level) for head, level in zip(self.heads, refined)]


def build_model(cfg, seed=0):
    """Construct and deterministically initialize a model."""
    model = Model(cfg)
    model.finalize(seed)
    return model
