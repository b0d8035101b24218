"""The per-vertex stationary-regime construction, kept as a test oracle.

This is the earlier per-vertex path of ``multinet.compose``, unchanged: the
l = 2 closed form, the minimum-volume residuals, and the row-sum fit with
its star case, its l = 3 closed form, its fixed point of up to
``MAX_FIT_ITER`` steps and its greedy pairing fallback. The batched library
code is compared against it in ``test_compose_properties.py``.
"""

import numpy as np

from multinet.errors import (
    Degenerate,
    DimensionMismatch,
    Infeasible,
    Underdetermined,
    ZeroDegree,
)
from multinet.graph import STRUCTURAL_TOL


# the row-sum scaling of _symmetric_rowsum_fit stops at this relative
# residual, or falls back to the exact pairing fit after this many steps
FIT_TOL = 1e-12
MAX_FIT_ITER = 200_000


def ego_block_from_stationary(u, pi_u, degrees) -> np.ndarray:
    """Symmetric ego block whose walk has the given layer distribution.

    Row sums of the block must be proportional to pi_u (the stationary
    distribution of a walk on a symmetric matrix is degree-proportional).
    l = 2 is fully determined and solved in closed form with its feasibility
    interval; l >= 3 is underdetermined and resolved by the minimum-volume
    solution: the smallest total row-sum scale admitting a symmetric
    non-negative realization, which is then fitted by iterative proportional
    scaling.
    """
    pi = np.asarray(pi_u, dtype=np.float64)
    deg = np.asarray(degrees, dtype=np.float64)
    l = pi.shape[0]
    if deg.shape != (l,):
        raise DimensionMismatch("pi and degrees must have equal length")
    if pi.min() <= 0.0 or abs(pi.sum() - 1.0) > STRUCTURAL_TOL:
        raise ValueError("pi must be strictly positive and sum to 1")
    if deg.min() <= 0.0:
        raise ZeroDegree(u, int(np.argmin(deg)))

    if l == 1:
        return np.array([[deg[0]]])

    if l == 2:
        return _stationary_block_l2(u, pi, deg)

    return _symmetric_rowsum_fit(_min_volume_residuals(u, pi, deg)) + np.diag(deg)


def _stationary_block_l2(u, pi, deg):
    d1, d2 = deg
    p1 = pi[0]
    endpoint = d1 / (d1 + d2)
    if p1 == 0.5:
        if d1 == d2:
            raise Underdetermined(
                f"vertex {u}: pi = 1/2 with equal degrees leaves the coupling "
                "free; supply it explicitly"
            )
        raise Degenerate(
            f"vertex {u}: pi = 1/2 with unequal degrees admits no finite coupling"
        )
    lo, hi = min(0.5, endpoint), max(0.5, endpoint)
    if not (lo <= p1 <= hi):
        raise Infeasible(
            f"vertex {u}: pi^1 = {p1} outside feasible interval [{lo}, {hi}]",
            interval=(lo, hi),
        )
    numerator = p1 * (d1 + d2) - d1
    # the numerator vanishes at the degree-proportional endpoint; snap the
    # rounding residue so decoupling is exact
    if abs(numerator) <= 8.0 * np.finfo(np.float64).eps * (d1 + d2):
        x = 0.0
    else:
        x = numerator / (1.0 - 2.0 * p1)
    if x < 0.0:
        raise Infeasible(
            f"vertex {u}: closed form gives negative coupling {x}",
            interval=(lo, hi),
        )
    return np.array([[d1, x], [x, d2]])


def _min_volume_residuals(u, pi, deg):
    """Residuals r = s pi - d >= 0 at the smallest row-sum scale s that makes
    them realizable symmetrically.

    Realizability of non-negative symmetric off-diagonals with row sums r
    needs 2 max(r) <= sum(r); per layer that is a linear bound on s, a lower
    bound where pi_i < 1/2 and an upper bound where pi_i > 1/2.
    """
    total_d = deg.sum()
    s_star = np.max(deg / pi)
    s_cap = np.inf
    for i in range(len(pi)):
        if pi[i] < 0.5:
            s_star = max(s_star, (total_d - 2.0 * deg[i]) / (1.0 - 2.0 * pi[i]))
        elif pi[i] > 0.5:
            s_cap = min(s_cap, (2.0 * deg[i] - total_d) / (2.0 * pi[i] - 1.0))
        elif 2.0 * deg[i] < total_d:
            raise Infeasible(
                f"vertex {u}: pi_{i} = 1/2 requires layer {i} to carry at "
                "least half the degree mass",
                interval=None,
            )
    if s_star > s_cap * (1.0 + 1e-14):
        raise Infeasible(
            f"vertex {u}: no scale satisfies all residual bounds "
            f"(need s in [{s_star}, {s_cap}])",
            interval=(s_star, s_cap),
        )
    r = s_star * pi - deg
    snap = 8.0 * np.finfo(np.float64).eps * max(s_star, deg.max())
    r[np.abs(r) <= snap] = 0.0
    if r.min() < 0.0:
        raise Infeasible(f"vertex {u}: negative residual {r.min()}", interval=None)
    return r


def _symmetric_rowsum_fit(r):
    """Symmetric zero-diagonal non-negative matrix with row sums r.

    Generic case: diagonal scaling x_ij = u_i u_j fitted on the complete
    off-diagonal support. The boundary 2 max(r) = sum(r) forces a star and
    is built directly, and instances too close to it for the scaling to
    converge fall back to an exact pairing construction.
    """
    l = r.shape[0]
    x = np.zeros((l, l))
    active = np.flatnonzero(r > 0.0)
    if active.size == 0:
        return x
    if active.size == 1:
        raise Infeasible(f"row sums {r} violate 2 max <= sum", interval=None)
    ra = r[active]
    scale = ra.sum()
    slack = scale - 2.0 * ra.max()
    if slack < -1e-9 * scale:
        raise Infeasible(f"row sums {r} violate 2 max <= sum", interval=None)
    if slack <= 1e-12 * scale:
        hub = int(np.argmax(ra))
        block = np.zeros((active.size, active.size))
        for j in range(active.size):
            if j != hub:
                block[hub, j] = block[j, hub] = ra[j]
        x[np.ix_(active, active)] = block
        return x
    if active.size == 3:
        # three unknowns, three row sums: the fit is unique in closed form
        a, b, c = ra
        block = np.zeros((3, 3))
        block[0, 1] = block[1, 0] = (a + b - c) / 2.0
        block[0, 2] = block[2, 0] = (a + c - b) / 2.0
        block[1, 2] = block[2, 1] = (b + c - a) / 2.0
        if block.min() < 0.0:
            raise Infeasible(f"row sums {r} violate 2 max <= sum", interval=None)
        x[np.ix_(active, active)] = block
        return x
    u = ra / np.sqrt(scale)
    for _ in range(MAX_FIT_ITER):
        u = 0.5 * (u + ra / (u.sum() - u))
        if np.max(np.abs(u * (u.sum() - u) - ra)) <= FIT_TOL * scale:
            block = np.outer(u, u)
            np.fill_diagonal(block, 0.0)
            x[np.ix_(active, active)] = block
            return x
    x[np.ix_(active, active)] = _pairing_fit(ra)
    return x


def _pairing_fit(ra):
    """Exact symmetric realization of row sums by greedy largest-pair edges.

    Each step joins the two largest residuals with the heaviest weight that
    keeps the remainder realizable (2 max <= sum), so every step either
    zeroes a residual or reaches the star boundary; O(l) steps total.
    """
    k = ra.size
    block = np.zeros((k, k))
    res = ra.copy()
    for _ in range(4 * k):
        order = np.argsort(res)[::-1]
        a, b = order[0], order[1]
        third = res[order[2]] if k > 2 else 0.0
        w = min(res[b], res.sum() / 2.0 - third)
        if w <= 0.0:
            break
        block[a, b] += w
        block[b, a] += w
        res[a] -= w
        res[b] -= w
    return block
