"""Composite network blocks: stem, pooling, cross-stage and attention modules."""

from __future__ import annotations

from . import tensor as T
from .interactions import ResGnConv
from .layers import BatchNorm2d, Conv2d, ConvBnSilu, DepthwiseConv2d, Layer, LayerList, LayerNorm2d
from .tensor import DomainError, ShapeError


class Focus(Layer):
    """Stem: 2x2 space-to-depth of the RGB frame (3 -> 12 channels, h/2,
    w/2) then a 3x3 ConvBnSilu."""

    def __init__(self, c_out):
        super().__init__()
        self.conv = ConvBnSilu(12, c_out, 3)

    def forward(self, x):
        return self.conv(T.space_to_depth_2x2(x))


class Spp(Layer):
    """Spatial pyramid pooling: max pools at k in {5, 9, 13}, as three
    chained 5x5 pools.  With -inf padding and stride 1 a 5x5 pool of a 5x5
    pool is the 9x9 pool, and a third gives 13x13; only the sign of a zero
    max may differ (see ``max_pool``).  The output keeps the input width."""

    def __init__(self, c):
        super().__init__()
        c_hidden = c // 2
        self.cv1 = ConvBnSilu(c, c_hidden, 1)
        self.cv2 = ConvBnSilu(4 * c_hidden, c, 1)

    def forward(self, x):
        pools = [self.cv1(x)]
        for _ in range(3):
            pools.append(T.max_pool(pools[-1], 5, stride=1, padding=2))
        return self.cv2(T.concat_channels(pools))


class Bottleneck(Layer):
    """Residual bottleneck: 1x1 then 3x3 ConvBnSilu with a skip."""

    def __init__(self, c):
        super().__init__()
        self.cv1 = ConvBnSilu(c, c, 1)
        self.cv2 = ConvBnSilu(c, c, 3)

    def forward(self, x):
        return T.add(x, self.cv2(self.cv1(x)))


class C3(Layer):
    """Cross-stage block with plain bottlenecks on the partial branch."""

    def __init__(self, c_in, c_out, depth=1):
        super().__init__()
        if c_out % 2:
            raise DomainError(f"c_out must be even, got {c_out}")
        c_hidden = c_out // 2
        self.cv1 = ConvBnSilu(c_in, c_hidden, 1)
        self.cv2 = ConvBnSilu(c_in, c_hidden, 1)
        self.blocks = LayerList([Bottleneck(c_hidden) for _ in range(depth)])
        self.cv3 = ConvBnSilu(c_out, c_out, 1)

    def forward(self, x):
        a = self.cv1(x)
        for blk in self.blocks:
            a = blk(a)
        b = self.cv2(x)
        return self.cv3(T.concat_channels([a, b]))


class InvertedBottleneck(Layer):
    """Pre-normalized expand / depthwise / project block with an outer skip.

    Composition: x + C2(D(C1(x))) with C1 = conv1x1(bn(x)),
    D = dw3x3(gelu(bn(.))), C2 = conv1x1(gelu(bn(.))).
    """

    def __init__(self, c, expansion=4):
        super().__init__()
        ce = c * expansion
        self.c = c
        self.bn1 = BatchNorm2d(c)
        self.c1 = Conv2d(c, ce, 1)
        self.bn2 = BatchNorm2d(ce)
        self.dw = DepthwiseConv2d(ce, 3)
        self.bn3 = BatchNorm2d(ce)
        self.c2 = Conv2d(ce, c, 1)

    def forward(self, x):
        if x.shape[1] != self.c:
            raise ShapeError(f"expected {self.c} channels, got {x.shape[1]}")
        # one statement per layer, so that each map dies when the next
        # layer has read it
        y = self.c1(self.bn1(x))
        y = self.bn2(y)
        y = T.gelu(y)
        y = self.dw(y)
        y = self.bn3(y)
        y = T.gelu(y)
        y = self.c2(y)
        return T.add(x, y)


class DrsiBlock(Layer):
    """Inverted bottleneck followed by layer-normalized gated interactions,
    each under its own skip: y = I(x) + rgc(ln(I(x)))."""

    def __init__(self, c, order=2, lam=3.0, residual_enabled=True, expansion=4):
        super().__init__()
        self.invbn = InvertedBottleneck(c, expansion=expansion)
        self.ln = LayerNorm2d(c)
        self.rgc = ResGnConv(c, n=order, lam=lam, residual_enabled=residual_enabled)

    def forward(self, x):
        inner = self.invbn(x)
        return T.add(inner, self.rgc(self.ln(inner)))


class C3dr(Layer):
    """Cross-stage module whose partial branch is a chain of DRSI blocks."""

    def __init__(self, c_in, c_out, depth, order=2, lam=3.0,
                 residual_enabled=True, expansion=4):
        super().__init__()
        if c_out % 2:
            raise DomainError(f"c_out must be even, got {c_out}")
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        c_hidden = c_out // 2
        self.conv_cross = ConvBnSilu(c_in, c_hidden, 1)
        self.conv_main = ConvBnSilu(c_in, c_hidden, 1)
        self.blocks = LayerList([
            DrsiBlock(c_hidden, order=order, lam=lam,
                      residual_enabled=residual_enabled, expansion=expansion)
            for _ in range(depth)])
        self.conv_final = ConvBnSilu(c_out, c_out, 1)

    def forward(self, x):
        cross = self.conv_cross(x)
        for blk in self.blocks:
            cross = blk(cross)
        main = self.conv_main(x)
        return self.conv_final(T.concat_channels([main, cross]))


class Cbam(Layer):
    """Channel attention then spatial attention, both sigmoid-gated.

    The channel module gates with a shared two-layer pointwise MLP over the
    global average- and max-pooled descriptors; the spatial module gates with
    a k x k convolution over the channel-mean and channel-max maps.
    """

    def __init__(self, c, reduction=16, sam_kernel=7):
        super().__init__()
        if c < reduction:
            raise DomainError(
                f"channels ({c}) must be >= the reduction ratio ({reduction})")
        hidden = c // reduction
        self.c = c
        self.fc1 = Conv2d(c, hidden, 1)
        self.fc2 = Conv2d(hidden, c, 1)
        self.sam_conv = Conv2d(2, 1, sam_kernel)

    def _mlp(self, pooled):
        return self.fc2(T.relu(self.fc1(pooled)))

    def forward(self, x):
        if x.shape[1] != self.c:
            raise ShapeError(f"expected {self.c} channels, got {x.shape[1]}")
        cam = T.sigmoid(T.add(self._mlp(T.global_avg_pool(x)),
                              self._mlp(T.global_max_pool(x))))
        y = T.broadcast_mul(x, cam)
        maps = T.concat_channels([T.channel_mean(y), T.channel_max(y)])
        sam = T.sigmoid(self.sam_conv(maps))
        return T.broadcast_mul(y, sam)

