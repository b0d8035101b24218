"""Composing layers from egocentric inter-layer dynamics
=========================================================

Four people interact over phone, email, and a social feed. Each person
carries an l x l Markov matrix describing how their activity hops between
layers (column i = distribution of the next layer given they now act in
layer i). There is exactly one super-adjacency whose joint random walk
projects back onto every layer and every person's matrix; this demo builds
it and verifies both consistency conditions.
"""

import numpy as np

from multinet import (
    EgoMarkov,
    LayerGraph,
    compose_ego,
    ego_block,
    verify_ego_consistency,
    verify_layer_consistency,
)

people = ["alice", "bob", "carol", "dave"]
n, l = 4, 3

phone = LayerGraph.from_edges(
    n, [(0, 1, 2.0), (0, 2, 1.0), (1, 3, 1.0)], directed=False)
email = LayerGraph.from_edges(
    n, [(0, 1, 1.0), (2, 3, 1.0), (0, 3, 1.0)], directed=False)
feed = LayerGraph.from_edges(
    n, [(0, 2, 2.0), (1, 2, 1.0), (0, 1, 1.0), (1, 3, 1.0)], directed=False)

# Alice: from the phone she keeps calling with probability 0.6, relays to
# email with 0.1, posts with 0.3. The rest of the table is made up.
alice = np.array([[0.6, 0.2, 0.3],
                  [0.1, 0.5, 0.3],
                  [0.3, 0.3, 0.4]])
rng = np.random.default_rng(8)
stack = [alice]
for u in range(1, n):
    m = rng.dirichlet(np.full(l, 2.0), size=l).T + np.eye(l)
    stack.append(m / m.sum(axis=0))
egos = EgoMarkov(np.array(stack))  # egos.m[u] is person u's matrix

# Alice's phone degree is 3, so her phone->email coupling is 0.1*3/0.6 = 1/2.
block = ego_block(0, alice, np.array([3.0, 2.0, 4.0]))
print("alice's ego block (column i = out-weights of her layer-i instance):")
print(block)
print("phone->email weight:", block[1, 0])

s = compose_ego([phone, email, feed], egos)
print(f"\nsuper-adjacency: {s.n * s.l} instances,",
      f"{s.inter_layer_slots} settable inter-layer scalars")

layer_report = verify_layer_consistency(s, [phone, email, feed])
ego_report = verify_ego_consistency(s, egos)
print("layer consistency:", "pass" if layer_report.passed else "FAIL",
      "| worst deviation", layer_report.max_deviation_per_layer.max())
print("ego consistency:  ", "pass" if ego_report.passed else "FAIL",
      "| worst deviation", ego_report.max_deviation_per_vertex.max())

# The walk on the composed graph really does reproduce alice's matrix.
outdeg = s.out_degrees()
slice_a = s.vertex_slice(0)
inter = slice_a.copy()
np.fill_diagonal(inter, 0.0)
marginal = np.zeros((l, l))
for i in range(l):
    total = outdeg[i * n]  # alice (vertex 0) in layer i, flat index i * n + 0
    for j in range(l):
        marginal[j, i] = (total - inter[i].sum()) / total if i == j \
            else inter[i, j] / total
print("\nalice's layer marginal recovered from the joint walk:")
print(np.round(marginal, 12))
