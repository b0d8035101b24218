"""Shared random-instance generators for the test suite."""

import numpy as np
import pytest

from multinet import EgoMarkov, LayerGraph


def random_graph(rng, n, directed=False, p=0.5, weight_range=(0.5, 2.0),
                 self_loop_p=0.0):
    """Random weighted graph with no dangling vertices."""
    lo, hi = weight_range
    while True:
        mask = rng.random((n, n)) < p
        weights = rng.uniform(lo, hi, (n, n))
        a = np.where(mask, weights, 0.0)
        if directed:
            np.fill_diagonal(a, 0.0)
        else:
            a = np.triu(a, 1)
            a = a + a.T
        if self_loop_p > 0.0:
            loops = np.where(rng.random(n) < self_loop_p,
                             rng.uniform(lo, hi, n), 0.0)
            a = a + np.diag(loops)
        if (a.sum(axis=1) > 0.0).all():
            return LayerGraph.from_dense(a, directed=directed)


def random_connected_graph(rng, n, directed=False, p=0.5, **kw):
    from multinet import components

    while True:
        g = random_graph(rng, n, directed=directed, p=p, **kw)
        if len(components(g.matrix)) == 1:
            return g


def random_ego(rng, l, diag_boost=0.5):
    """Column-stochastic l x l ego matrix with a strictly positive diagonal."""
    m = rng.dirichlet(np.full(l, 2.0), size=l).T
    m = m + np.eye(l) * diag_boost
    return m / m.sum(axis=0)


def random_egos(rng, n, l):
    """Ego dynamics of n vertices, one random_ego each."""
    return EgoMarkov(np.array([random_ego(rng, l) for _ in range(n)]))


def identity_egos(n, l):
    """Ego dynamics that never leave a layer: no inter-layer edges."""
    return EgoMarkov(np.tile(np.eye(l), (n, 1, 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
