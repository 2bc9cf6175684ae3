"""Recursive residual gated convolution stack for anchor-based multi-person
pose estimation, with profiling, gradient-check and evaluation tooling.

The ``tensor()`` and ``decode()`` helpers live on their submodules
(``drsinet.tensor``, ``drsinet.decode``) to keep those module names
importable from the package root.
"""

from .tensor import Parameter, Tape, Tensor, grad_check, mac_counter
from .interactions import ChannelScheme, ResGnConv, build_scheme
from .layers import ConvBnSilu
from .blocks import C3, C3dr, Cbam, DrsiBlock, Focus, InvertedBottleneck, Spp
from .network import Model, ModelConfig, build_model
from .decode import (
    Detections, GroundTruthInstance, KeypointSigmas, encode, evaluate, nms, oks,
)
from .profiler import (
    ProfileReport, load_weights, profile, save_weights, trace,
)

__version__ = "0.1.0"

__all__ = [
    "Parameter", "Tape", "Tensor", "grad_check", "mac_counter",
    "ChannelScheme", "ResGnConv", "build_scheme",
    "C3", "C3dr", "Cbam", "ConvBnSilu", "DrsiBlock", "Focus",
    "InvertedBottleneck", "Spp",
    "Model", "ModelConfig", "build_model",
    "Detections", "GroundTruthInstance", "KeypointSigmas", "encode",
    "evaluate", "nms", "oks",
    "ProfileReport", "load_weights", "profile", "save_weights", "trace",
]
