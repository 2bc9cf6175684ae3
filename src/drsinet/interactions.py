"""Gated convolution, its recursive form, and the residual-recursive variant.

A single gated convolution multiplies a carrier feature with a depthwise-
convolved neighbour feature (one-order spatial interaction).  The recursive
form chains ``n`` such interactions over neighbour features of doubling
channel width (an inverted pyramid), and the residual variant adds a skip
path and a stabilizing scale ``lambda`` at every order:

    p_{k+1} = (s_k + f_k(q_k) + f_k(q_k) * s_k) / lambda,   s_k = g_k(p_k)

with ``g_0`` the identity and ``g_k`` a pointwise projection to the next
order's width.  Input and output channel counts are always equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .layers import Conv2d, ConvBnSilu, DepthwiseConv2d, Layer, LayerList
from .tensor import DomainError, ShapeError

DW_KERNEL = 7  # depthwise spatial-mixing kernel, fixed for this operator family


@dataclass(frozen=True)
class ChannelScheme:
    """Channel budget of an n-order interaction over c module channels.

    ``c_k[k] = c / 2**(n-1-k)`` doubles per order, and the carrier width
    ``c_0`` plus the neighbour total ``c_q`` equals ``2c`` exactly.
    """

    c: int
    n: int
    c_k: tuple
    c_0: int
    c_q: int


def build_scheme(c, n):
    """Construct the inverted-pyramid channel scheme for order ``n``."""
    if n < 1:
        raise DomainError(f"interaction order must be >= 1, got {n}")
    divisor = 1 << (n - 1)
    if c % divisor:
        raise DomainError(f"channels {c} not divisible by 2**(n-1) = {divisor}")
    c_k = tuple(c // (1 << (n - 1 - k)) for k in range(n))
    c_0 = c_k[0]
    c_q = sum(c_k)
    assert c_0 + c_q == 2 * c
    return ChannelScheme(c=c, n=n, c_k=c_k, c_0=c_0, c_q=c_q)


class ResGnConv(Layer):
    """Recursive (residual) gated convolution over C channels.

    ``residual_enabled=False`` gives the plain recursion
    ``p_{k+1} = f_k(q_k) * g_k(p_k)``; with residuals enabled each order adds
    the skip terms and divides by ``lam``.  ``n=1`` without residuals is the
    plain one-order gated convolution.
    """

    def __init__(self, c, n=2, lam=3.0, residual_enabled=True):
        super().__init__()
        if lam <= 0:
            raise DomainError(f"lambda must be positive, got {lam}")
        self.scheme = build_scheme(c, n)
        self.lam = float(lam)
        self.residual_enabled = bool(residual_enabled)
        self.phi_in = Conv2d(c, 2 * c, 1)
        self.dw = DepthwiseConv2d(self.scheme.c_q, DW_KERNEL)
        # g_k: pointwise projection to the next order's width
        self.g_k = LayerList([ConvBnSilu(self.scheme.c_k[k - 1], self.scheme.c_k[k], 1)
                              for k in range(1, n)])
        self.phi_out = Conv2d(c, c, 1)

    def forward(self, x):
        sch = self.scheme
        if x.shape[1] != sch.c:
            raise ShapeError(f"expected {sch.c} channels, got {x.shape[1]}")
        # every map dies at its last use: phi_in's output (p_0 and q are
        # views of it) once order 0 has run, the f_k(q_k) before phi_out
        p, q = T.split_channels(self.phi_in(x), [sch.c_0, sch.c_q])
        fq = T.split_channels(self.dw(q), list(sch.c_k))
        del q
        for k in range(sch.n):
            s = p if k == 0 else self.g_k[k - 1](p)
            p = (T.residual_interaction(s, fq[k], 1.0 / self.lam) if self.residual_enabled
                 else T.mul(fq[k], s))
            del s
        del fq
        return self.phi_out(p)
