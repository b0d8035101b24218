"""Stage 1: fold per-vertex bias and delay dynamics into the edge weights.

A layer with bias vector b and delay vector tau evolves like an unbiased
random walk on a transformed graph: first every edge is reweighed by the
bias (one-sided for directed graphs, two-sided for undirected ones), then
each delay tau_u >= 1 becomes a self-loop of weight (tau_u - 1) times the
reweighed out-degree. The result, the "interaction matrix"
W = A' + (T - I) D', is again a LayerGraph, which later stages compose
like any other layer; for undirected input it is unique up to one global
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DelayBelowOne, DimensionMismatch, NegativeEntry
from .graph import LayerGraph, _degree_scaling


@dataclass(frozen=True)
class DynamicsParams:
    """Per-vertex dynamics of one layer.

    bias: strictly positive routing weights (diagonal of B).
    delay: relative mean waiting times (diagonal of T), each >= 1.
    """

    bias: np.ndarray
    delay: np.ndarray

    def __post_init__(self):
        bias = np.asarray(self.bias, dtype=np.float64)
        delay = np.asarray(self.delay, dtype=np.float64)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "delay", delay)
        if bias.shape != delay.shape:
            raise DimensionMismatch("bias and delay must have equal length")
        _check_dynamics(bias, delay)

    @classmethod
    def identity(cls, n):
        return cls(np.ones(n), np.ones(n))


def _check_dynamics(bias=(), delay=()):
    """Raise unless every bias is finite and > 0 and every delay finite and >= 1."""
    if np.min(bias, initial=np.inf) <= 0.0 or not np.all(np.isfinite(bias)):
        raise NegativeEntry("bias entries must be strictly positive and finite")
    if np.min(delay, initial=np.inf) < 1.0 or not np.all(np.isfinite(delay)):
        raise DelayBelowOne("delay entries must be finite and >= 1")


def bias_transform(g: LayerGraph, b) -> LayerGraph:
    """Reweigh edges by the bias: b_u * a_uv directed, b_u * a_uv * b_v undirected."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (g.n,):
        raise DimensionMismatch(f"bias must have length {g.n}")
    _check_dynamics(bias=b)
    mat = g.matrix.copy()  # scaled in place; an entry that underflows to 0 is dropped in place
    scale = b[mat.indices]  # b[row] of each stored entry
    if not g.directed:
        # b[row] * b[col] is computed identically for (u, v) and (v, u),
        # so exact symmetry survives the reweighing
        scale = scale * np.repeat(b, np.diff(mat.indptr))
    mat.data *= scale
    return LayerGraph(g.n, mat, g.directed)


def delay_transform(g_prime: LayerGraph, tau) -> LayerGraph:
    """Absorb delays as self-loops: W = A' + (T - I) D'.

    A vertex with delay tau_u gains a self-loop of weight (tau_u - 1) times
    its reweighed out-degree, added on top of any existing loop. tau = 1
    leaves the layer untouched; a scalar tau rescales the layer's clock.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim == 0:
        tau = np.full(g_prime.n, float(tau))
    if tau.shape != (g_prime.n,):
        raise DimensionMismatch(f"delay must have length {g_prime.n}")
    _check_dynamics(delay=tau)
    loops = (tau - 1.0) * g_prime.out_degrees()
    w = g_prime.matrix + sparse.diags_array(loops, format="csc")
    return LayerGraph(g_prime.n, w, g_prime.directed)


def transform_layer(g: LayerGraph, p: DynamicsParams) -> LayerGraph:
    """Both transformations in sequence: reweigh by bias, then add delay loops."""
    return delay_transform(bias_transform(g, p.bias), p.delay)


def degree_proportional_delay(g: LayerGraph, kappa: float) -> np.ndarray:
    """Congestion-style delays tau_u = 1 + kappa * out_degree(u)."""
    if kappa < 0.0:
        raise DelayBelowOne("kappa must be non-negative to keep tau >= 1")
    return 1.0 + kappa * g.out_degrees()


def laplacian_of(w: LayerGraph):
    """Normalized Laplacian (D_w - W) D_w^{-1} of a transformed layer."""
    d, inverse = _degree_scaling(w.matrix)
    return sparse.csc_array((sparse.diags_array(d) - w.matrix).multiply(inverse))
