"""Layer tree plumbing: named parameters, deterministic init, leaf layers.

A ``Layer`` owns :class:`~drsinet.tensor.Parameter` objects and child layers;
attribute assignment registers them, and parameter names are the dotted
attribute paths (``backbone.stage1.c3dr.blocks.0.invbn.c1.weight``).  Weights
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
    path and records the shape it returns.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

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

    def named_parameters(self, prefix=""):
        """All parameters (trainable and buffers) in construction order."""
        for path, layer in self.named_layers(prefix):
            for name, p in layer._params.items():
                yield _join(path, name), p

    def finalize(self, seed, prefix=""):
        """Materialize every parameter from the (seed, name)-keyed stream."""
        names = set()
        for name, p in self.named_parameters(prefix):
            if name in names:
                raise ValueError(f"duplicate parameter name {name!r}")
            names.add(name)
            p.materialize(seed, name)
        return self

    def count_trainable(self):
        return sum(p.count() for _, p in self.named_parameters() if p.trainable)

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x):
        counter = T._MAC_COUNTER.get()
        if counter is None:
            return self.forward(x)
        if not counter.scopes:
            # a top-level call names its subtree the way named_parameters does
            counter.layer_names = {id(layer): name for name, layer in self.named_layers()}
        name = counter.layer_names.get(id(self), type(self).__name__)
        counter.scopes.append(name)
        try:
            out = self.forward(x)
        finally:
            counter.scopes.pop()
        counter.outputs.setdefault(name, _output_shape(out))
        return out


def _output_shape(out):
    """Shape of a layer output; a list or pyramid of tensors gives one per level."""
    if isinstance(out, T.Tensor):
        return out.shape
    return tuple(t.shape for t in getattr(out, "levels", out))


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

    def __setitem__(self, i, layer):
        self._layers[i] = layer

    def append(self, layer):
        self._layers.append(layer)

    def named_layers(self, prefix=""):
        for i, layer in enumerate(self._layers):
            yield from layer.named_layers(_join(prefix, str(i)))


class Conv2d(Layer):
    """Plain convolution layer (cross-correlation), optional bias."""

    def __init__(self, c_in, c_out, k, stride=1, padding=None, bias=True):
        super().__init__()
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride = stride
        self.padding = k // 2 if padding is None else padding
        self.weight = Parameter((c_out, c_in, k, k), init=("kaiming", c_in * k * k))
        self.bias = Parameter((c_out,), init=("const", 0.0)) if bias else None

    def forward(self, x):
        b = self.bias.value if self.bias is not None else None
        return T.conv2d(x, self.weight.value, b, self.stride, self.padding)


class DepthwiseConv2d(Layer):
    """Per-channel convolution layer."""

    def __init__(self, c, k, stride=1, padding=None, bias=True):
        super().__init__()
        self.c, self.k = c, k
        self.stride = stride
        self.padding = k // 2 if padding is None else padding
        self.weight = Parameter((c, 1, k, k), init=("kaiming", k * k))
        self.bias = Parameter((c,), init=("const", 0.0)) if bias else None

    def forward(self, x):
        b = self.bias.value if self.bias is not None else None
        return T.depthwise_conv2d(x, self.weight.value, b, self.stride, self.padding)


class BatchNorm2d(Layer):
    """Batch normalization layer; always runs with running statistics."""

    def __init__(self, c, eps=1e-5):
        super().__init__()
        self.c, self.eps = c, eps
        self.gamma = Parameter((c,), init=("const", 1.0))
        self.beta = Parameter((c,), init=("const", 0.0))
        self.running_mean = Parameter((c,), init=("const", 0.0), trainable=False)
        self.running_var = Parameter((c,), init=("const", 1.0), trainable=False)

    def forward(self, x):
        return T.batch_norm(x, self.gamma.value, self.beta.value,
                            self.running_mean.value, self.running_var.value,
                            eps=self.eps)


class LayerNorm2d(Layer):
    """Per-location channel normalization layer."""

    def __init__(self, c, eps=1e-6):
        super().__init__()
        self.c, self.eps = c, eps
        self.gamma = Parameter((c,), init=("const", 1.0))
        self.beta = Parameter((c,), init=("const", 0.0))

    def forward(self, x):
        return T.layer_norm(x, self.gamma.value, self.beta.value, eps=self.eps)
