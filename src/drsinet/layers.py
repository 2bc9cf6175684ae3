"""Layer tree plumbing: named parameters, deterministic init, leaf layers
and the conv + BN + SiLU unit the blocks and interactions share.

A ``Layer`` owns :class:`~drsinet.tensor.Parameter` objects and child layers;
attribute assignment registers them, and a walk from the root names them
by dotted path (``backbone.stage1.c3dr.blocks.0.invbn.c1.weight``).  Weights
are materialized from a splitmix64 stream keyed by ``(seed, name)``, so two
builds with the same seed are bit-identical regardless of construction order.
"""

from __future__ import annotations

from . import tensor as T
from .tensor import Parameter


def _join(prefix, name):
    return f"{prefix}.{name}" if prefix else name


class Layer:
    """Base class for parameterized layers.

    Calling a layer runs :meth:`forward`.  While a ``tensor.mac_counter`` is
    active, the call also opens a counter scope named by the layer's dotted
    path (its type name if no walk named it) and records its output shape.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        self._path = None           # written by name_tree

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, (Layer, LayerList)):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_layers(self, prefix=""):
        """This layer and all descendants by dotted path, in construction order."""
        yield prefix, self
        for name, child in self._children.items():
            yield from child.named_layers(_join(prefix, name))

    def named_parameters(self):
        """All parameters (trainable and buffers) in construction order."""
        for path, layer in self.named_layers():
            for name, p in layer._params.items():
                yield _join(path, name), p

    def name_tree(self):
        """Write the dotted path of every layer below this root and every
        parameter's name, yielding each parameter once it is named."""
        for path, layer in self.named_layers():
            layer._path = path
            for name, p in layer._params.items():
                p.name = _join(path, name)
                yield p

    def finalize(self, seed):
        """Name the tree, then materialize every parameter from (seed, name)."""
        for p in self.name_tree():
            p.materialize(seed)
        return self

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x):
        counter = T._MAC_COUNTER.get()
        if counter is None:
            return self.forward(x)
        name = type(self).__name__ if self._path is None else self._path
        counter.scopes.append(name)
        try:
            out = self.forward(x)
        finally:
            counter.scopes.pop()
        counter.outputs.setdefault(name, _output_shape(out))
        return out


def _output_shape(out):
    """Shape of a layer output; a list of tensors gives one per level."""
    if isinstance(out, T.Tensor):
        return out.shape
    return tuple(t.shape for t in out)


class LayerList:
    """Ordered child-layer container; children are named by index."""

    def __init__(self, layers=()):
        self._layers = list(layers)

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, i):
        return self._layers[i]

    def named_layers(self, prefix=""):
        for i, layer in enumerate(self._layers):
            yield from layer.named_layers(_join(prefix, str(i)))


class Conv2d(Layer):
    """Convolution layer (cross-correlation), optional bias, padding k//2."""

    def __init__(self, c_in, c_out, k, stride=1, bias=True):
        super().__init__()
        self.k, self.stride = k, stride
        self.weight = Parameter((c_out, c_in, k, k), init=("kaiming", c_in * k * k))
        self.bias = Parameter((c_out,), init=("const", 0.0)) if bias else None

    def forward(self, x):
        b = self.bias.value if self.bias is not None else None
        return T.conv2d(x, self.weight.value, b, self.stride, self.k // 2)


class DepthwiseConv2d(Layer):
    """Per-channel convolution layer with bias: stride 1, padding k//2."""

    def __init__(self, c, k):
        super().__init__()
        self.k = k
        self.weight = Parameter((c, 1, k, k), init=("kaiming", k * k))
        self.bias = Parameter((c,), init=("const", 0.0))

    def forward(self, x):
        return T.depthwise_conv2d(x, self.weight.value, self.bias.value, 1, self.k // 2)


class BatchNorm2d(Layer):
    """Batch normalization layer; always runs with running statistics."""

    def __init__(self, c):
        super().__init__()
        self.gamma = Parameter((c,), init=("const", 1.0))
        self.beta = Parameter((c,), init=("const", 0.0))
        self.running_mean = Parameter((c,), init=("const", 0.0), trainable=False)
        self.running_var = Parameter((c,), init=("const", 1.0), trainable=False)

    def forward(self, x):
        return T.batch_norm(x, self.gamma.value, self.beta.value,
                            self.running_mean.value, self.running_var.value,
                            eps=1e-5)


class LayerNorm2d(Layer):
    """Per-location channel normalization layer."""

    def __init__(self, c):
        super().__init__()
        self.gamma = Parameter((c,), init=("const", 1.0))
        self.beta = Parameter((c,), init=("const", 0.0))

    def forward(self, x):
        return T.layer_norm(x, self.gamma.value, self.beta.value, eps=1e-6)


class ConvBnSilu(Layer):
    """Convolution + batch norm + SiLU."""

    def __init__(self, c_in, c_out, k=1, stride=1):
        super().__init__()
        self.conv = Conv2d(c_in, c_out, k, stride=stride, bias=False)
        self.bn = BatchNorm2d(c_out)

    def forward(self, x):
        return T.silu(self.bn(self.conv(x)))
