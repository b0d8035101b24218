"""Folding per-vertex dynamics into edge weights
================================================

A layer is more than its topology: each vertex can prefer some targets
(bias) and linger before acting (delay). This demo builds a small social
layer, folds both effects into the edge weights, and checks numerically
that the plain random walk on the transformed graph realizes exactly the
parameterized dynamics (D' - BAB)(D'T)^{-1}.
"""

import numpy as np

from multinet import (
    DynamicsParams,
    LayerGraph,
    laplacian_of,
    stationary,
    transform_layer,
    urw_transition,
)

# A five-person chat layer: weights count messages per week.
n = 5
names = ["ana", "bo", "cleo", "dan", "eve"]
g = LayerGraph.from_edges(
    n,
    [(0, 1, 4.0), (0, 2, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 1.0)],
    directed=False,
)
print("raw adjacency:")
print(g.toarray())

# bo is twice as attractive a target; eve checks her messages rarely
# (mean waiting time 3x the reference clock).
bias = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
delay = np.array([1.0, 1.0, 1.0, 1.0, 3.0])
w = transform_layer(g, DynamicsParams(bias, delay))
print("\ntransformed interaction matrix (note eve's self-loop):")
print(w.toarray())

# The equivalence identity: the parameterized operator built straight from
# (A, B, T) equals the walk Laplacian of the transformed graph.
a = g.toarray()
a_prime = np.diag(bias) @ a @ np.diag(bias)
d_prime = a_prime.sum(axis=1)
direct = (np.diag(d_prime) - a_prime) @ np.diag(1.0 / (d_prime * delay))
via_walk = laplacian_of(w).toarray()
print("\nidentity deviation:", np.abs(direct - via_walk).max())

# Delays shift where the walker spends its time: eve's stationary mass
# triples relative to the undelayed walk.
pi_raw = stationary(urw_transition(g)).pi
pi_dyn = stationary(urw_transition(w)).pi
print("\nstationary mass by person (raw vs with dynamics):")
for k in range(n):
    print(f"  {names[k]:>5}: {pi_raw[k]:.4f} -> {pi_dyn[k]:.4f}")
