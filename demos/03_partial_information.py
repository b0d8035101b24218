"""Composition from partial information: stationary layer shares
=================================================================

Full inter-layer Markov matrices are rarely observable. Often only the
stationary share of activity per layer is known ("this user spends 70% of
their activity on the phone layer"). For two layers that pins the coupling
down exactly, with a feasibility interval; for three or more layers the
system is underdetermined and the minimum-volume solution is built.
"""

import numpy as np

from multinet import ego_block_from_stationary
from multinet.errors import Infeasible

# --- two layers: closed form and its feasibility window -------------------
d = np.array([3.0, 1.0])
print("degrees:", d, "-> degree share", d[0] / d.sum())
for p1 in (0.6, 0.7, 0.75):
    x = ego_block_from_stationary(0, np.array([p1, 1 - p1]), d)
    rows = x.sum(axis=1)
    print(f"pi1 = {p1}: coupling x = {x[0, 1]:.4f}, "
          f"row-sum shares = {np.round(rows / rows.sum(), 12)}")

# Asking for a share outside [1/2, d1/(d1+d2)] cannot be realized by any
# non-negative symmetric coupling:
try:
    ego_block_from_stationary(0, np.array([0.9, 0.1]), d)
except Infeasible as exc:
    print("pi1 = 0.9 ->", exc)

# At the degree-proportional endpoint the layers decouple exactly:
x = ego_block_from_stationary(0, np.array([0.75, 0.25]), d)
print("endpoint coupling:", x[0, 1])

# --- three layers: minimum-volume member of the feasible family -----------
deg = np.array([2.0, 1.0, 1.5])
pi = np.array([0.45, 0.25, 0.30])
x = ego_block_from_stationary(0, pi, deg)
print("\nthree layers, pi =", pi)
print(np.round(x, 6))
rows = x.sum(axis=1)
print("row-sum shares:", np.round(rows / rows.sum(), 12))
print("volume (total weight):", x.sum())

# Any other member of the family spends more weight: push the row-sum scale
# 10% above the minimum and realize it the same way.
s_star = x.sum()
r_alt = 1.1 * s_star * pi - deg
print("a 10% heavier scale leaves residual row sums", np.round(r_alt, 6),
      "-> volume", 1.1 * s_star)
