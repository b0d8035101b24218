"""A two-layer road network: highway share as a design knob
============================================================

Local streets and highways form two layers coupled wherever a vertex has
both kinds of access. The highway layer's share of total degree mass is a
traffic-load proxy; rescaling that layer tunes the share, and the
stationary-composition rule fills in coupling weights from per-vertex
activity splits. Feasibility matters: a vertex can only realize a split
between 1/2 and its own degree share, so targets get projected into that
interval. A synthetic grid stands in for real data; the same steps apply
to a DIMACS ingest via

    multinet ingest-dimacs --gr city.gr --categories city.cat --out city.layers
"""

import numpy as np

from multinet import (
    EgoMarkov,
    LayerGraph,
    as_interaction,
    components,
    compose_ego,
    compose_stationary,
    degree_table,
    layer_load,
    stationary,
    urw_transition,
)

side = 5
n = side * side

# local layer: the full grid; highway layer: one horizontal corridor
local_edges = []
for r in range(side):
    for c in range(side):
        v = r * side + c
        if c + 1 < side:
            local_edges.append((v, v + 1, 1.0))
        if r + 1 < side:
            local_edges.append((v, v + side, 1.0))
local = LayerGraph.from_edges(n, local_edges, directed=False)

corridor = [2 * side + c for c in range(side)]
highway_edges = [(corridor[k], corridor[k + 1], 2.0) for k in range(side - 1)]
highway = LayerGraph.from_edges(n, highway_edges, directed=False)


def layers_at(scale):
    return [as_interaction(local), as_interaction(highway.scaled(scale))]


def uncoupled_load(scale):
    egos = EgoMarkov(np.tile(np.eye(2), (n, 1, 1)))
    return layer_load(compose_ego(layers_at(scale), egos)).loads[1]


print("highway load at scale 1.0:", round(uncoupled_load(1.0), 4))

# tune the highway scale until it carries 20% of the degree mass
lo_s, hi_s = 0.01, 50.0
for _ in range(80):
    mid = 0.5 * (lo_s + hi_s)
    if uncoupled_load(mid) < 0.20:
        lo_s = mid
    else:
        hi_s = mid
scale = 0.5 * (lo_s + hi_s)
print(f"scale {scale:.4f} gives highway load {uncoupled_load(scale):.4f}")

# couple the interchanges: aim for a 20-80 local/highway activity split,
# projected into each vertex's feasible window (between 1/2 and its own
# degree share; the midpoint is used when the target falls outside)
layers = layers_at(scale)
deg = degree_table(layers)
pis = np.full((n, 2), np.nan)  # vertices without highway access stay uncoupled
for u in corridor:
    endpoint = deg[u, 0] / deg[u].sum()
    lo, hi = min(0.5, endpoint), max(0.5, endpoint)
    if hi - lo < 1e-9:
        continue
    pi_local = 0.2 if lo < 0.2 < hi else 0.5 * (lo + hi)
    pis[u] = [pi_local, 1.0 - pi_local]

u = corridor[0]
print(f"\ninterchange {u}: feasible local share "
      f"[{min(0.5, deg[u, 0] / deg[u].sum()):.3f}, "
      f"{max(0.5, deg[u, 0] / deg[u].sum()):.3f}], using {pis[u][0]:.3f}")

s = compose_stationary(layers, pis)
print("coupled highway load:", round(layer_load(s).loads[1], 4))

# sanity: the first interchange's ego system has the requested split
ego_system = s.vertex_slice(u)
np.fill_diagonal(ego_system, deg[u])
rows = ego_system.sum(axis=1)
print("slice shares at that interchange:", np.round(rows / rows.sum(), 6))

# joint-walk time per layer, restricted to the instances that exist
# (local-only vertices have no highway instance)
main = components(s.matrix)[0]
sub = LayerGraph(len(main), s.matrix[main, :][:, main], directed=False)
pi = stationary(urw_transition(sub)).pi
mass = np.zeros(2)
for k, flat in enumerate(main):
    mass[flat // n] += pi[k]
print("stationary mass by layer (local, highway):", np.round(mass, 4))
