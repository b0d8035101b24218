"""Coupling strength decides how a temporal stack splits
=========================================================

Three snapshots of a network with two planted communities are stacked as
temporal layers, coupled by identity edges between consecutive snapshots.
With cheap coupling the minimum-conductance bisection is horizontal (it
peels snapshots apart); with expensive coupling it is vertical (it keeps
every vertex's timeline together and splits the communities instead).
"""

import numpy as np

from multinet import LayerGraph, bisect, compose_distance, write_dot

rng = np.random.default_rng(2)
n_side, l = 10, 3
n = 2 * n_side
community = np.arange(n) < n_side

layers = []
for _ in range(l):
    a = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            p = 0.8 if community[u] == community[v] else 0.05
            if rng.random() < p:
                a[u, v] = a[v, u] = 1.0
    layers.append(LayerGraph.from_dense(a, directed=False))

spacing = np.abs(np.subtract.outer(np.arange(float(l)), np.arange(float(l))))


def describe(side):
    horizontal = all(
        side[i * n] == side[i * n + u] for i in range(l) for u in range(n)
    )
    vertical = all(
        side[i * n + u] == side[u] for i in range(1, l) for u in range(n)
    )
    if horizontal:
        return "horizontal (separates whole snapshots)"
    if vertical:
        return "vertical (keeps each timeline together)"
    return "mixed"


for c in (0.1, 1.0, 10.0):
    s = compose_distance(layers, spacing, c, adjacent_only=True)
    cut = bisect(s)
    print(f"coupling {c:>5}: conductance {cut.conductance:.4f}, "
          f"bisection is {describe(cut.side)}")

# Export the strong-coupling bisection for plotting (dot -Tpng ...).
s = compose_distance(layers, spacing, 10.0, adjacent_only=True)
cut = bisect(s)
write_dot(s, "temporal_bisection.dot", side=cut.side)
print("wrote temporal_bisection.dot (node colors = sides)")
