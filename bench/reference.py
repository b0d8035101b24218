"""Independent checks of the CLI's outputs.

Nothing here imports multinet. Super-adjacencies are read with
`scipy.io.mmread`, and every expected value is derived from the inputs the
benchmark generated (`workloads.Workload`), with the formulas of the paper's
constructions written out again. Each check raises `CheckFailed`.
"""

from __future__ import annotations

import json
import re

import numpy as np
import scipy.io
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

# |M pi - pi|_1 bound: the tolerance the CLI's solver promises by default.
# Its power iteration stops just under it (9.9995e-11 on temporal), so our
# recomputation in another summation order gets 1e-16 of slack.
STATIONARY_RESIDUAL = 1e-10 * (1.0 + 1e-6)
# |pi - d/vol|_1 bound on undirected compositions. Power iteration stops at
# a 1e-10 residual, which leaves an error of about residual / spectral gap:
# 2e-7 on road (gap 5e-4) and 7e-8 on temporal (gap 1.4e-3).
DEGREE_PI_TOL = 1e-5
# relative tolerance for quantities recomputed in another summation order
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_exit(command, code, stderr):
    """The command exited as expected, with the expected error on stderr."""
    _require(code == command.expect_exit,
             f"{command.argv[0]} ({command.metric}) exited {code}, "
             f"expected {command.expect_exit}: {stderr.strip()[:300]}")
    if command.expect_error is not None:
        try:
            error = json.loads(stderr.strip().splitlines()[-1])["error"]
        except (IndexError, KeyError, ValueError):
            error = None
        _require(error == command.expect_error,
                 f"{command.metric} reported {error!r}, expected "
                 f"{command.expect_error!r}")


# ---------------------------------------------------------------------------
# super-adjacency structure


def read_super(path):
    """(csr matrix, n, l) from a Matrix-Market super-adjacency file."""
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.readline() + handle.readline()
    found = re.search(r"\bn=(\d+) l=(\d+)\b", head)
    _require(found is not None, f"{path}: header records no n= l=")
    n, l = int(found.group(1)), int(found.group(2))
    a = sparse.csr_array(scipy.io.mmread(path))
    _require(a.shape == (n * l, n * l), f"{path}: shape {a.shape} != n*l")
    return a, n, l


def transformed(wl, i):
    """Layer i after --degree-delay kappa: A + diag((tau - 1) d), tau = 1 + kappa d."""
    a = wl.layers[i]
    d = np.asarray(a.sum(axis=1)).ravel()
    return sparse.csr_array(a + sparse.diags_array(wl.kappa * d * d))


def degrees(wl):
    """(n, l) out-degrees of the transformed layers."""
    return np.column_stack([np.asarray(transformed(wl, i).sum(axis=1)).ravel()
                            for i in range(wl.l)])


def _close(got, want, what, tol=REL_TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = err > tol * np.maximum(np.abs(want), 1.0)
    _require(not bad.any(),
             f"{what}: {int(bad.sum())} entries off, worst {err.max():.3e}")


def check_blocks(wl, a):
    """Diagonal blocks are the transformed layers; off-diagonal blocks are diagonal."""
    n = wl.n
    for i in range(wl.l):
        block = _canonical(a[i * n:(i + 1) * n, i * n:(i + 1) * n])
        want = _canonical(transformed(wl, i))
        _require(np.array_equal(block.indptr, want.indptr)
                 and np.array_equal(block.indices, want.indices),
                 f"diagonal block {i}: sparsity differs from the layer")
        _close(block.data, want.data, f"diagonal block {i}", tol=1e-12)
    coo = a.tocoo()
    off = coo.row // n != coo.col // n
    _require(np.all(coo.row[off] % n == coo.col[off] % n),
             "an inter-layer edge joins two different vertices")


def _canonical(mat):
    out = sparse.csr_array(mat)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def couplings(a, n, l):
    """(n, l, l) tensor: [u, i, j] = weight of (u, i) -> (u, j), i != j."""
    coo = a.tocoo()
    off = coo.row // n != coo.col // n
    t = np.zeros((n, l, l))
    t[coo.row[off] % n, coo.row[off] // n, coo.col[off] // n] = coo.data[off]
    return t


def check_couplings(wl, a):
    t = couplings(a, wl.n, wl.l)
    CHECKS[wl.name](wl, t)


def _road_couplings(wl, t):
    """(d1 + x) / (d1 + d2 + 2x) = pi_1 where asked, no coupling elsewhere."""
    x = t[:, 0, 1]
    _require(np.array_equal(x, t[:, 1, 0]), "road coupling is not symmetric")
    asked = np.zeros(wl.n, dtype=bool)
    asked[list(wl.pis)] = True
    _require(np.all(x[~asked] == 0.0), "road couples a vertex without a pi")
    d = degrees(wl)
    u = np.flatnonzero(asked)
    share = (d[u, 0] + x[u]) / (d[u, 0] + d[u, 1] + 2.0 * x[u])
    _close(share, [wl.pis[v][0] for v in u], "road pi_1 of the coupling")


def _temporal_couplings(wl, t):
    """c / |i - j| between adjacent layers where the vertex is in both."""
    present = degrees(wl) > 0.0
    idx = np.arange(wl.l)
    gap = np.abs(idx[:, None] - idx[None, :])
    adjacent = gap == 1
    want = np.where(adjacent[None] & present[:, :, None] & present[:, None, :],
                    wl.coupling / np.maximum(gap, 1)[None], 0.0)
    _close(t, want, "temporal coupling")


def _ego_couplings(wl, t):
    """(u, i) -> (u, j) weighs m[j, i] d_i / m[i, i]."""
    d = degrees(wl)
    m = wl.egos
    stay = np.diagonal(m, axis1=1, axis2=2)  # (n, l): m[u, i, i]
    want = np.transpose(m, (0, 2, 1)) * (d / stay)[:, :, None]
    idx = np.arange(wl.l)
    want[:, idx, idx] = 0.0
    _close(t, want, "ego coupling")


CHECKS = {"road": _road_couplings, "temporal": _temporal_couplings,
          "ego": _ego_couplings}


# ---------------------------------------------------------------------------
# reports


def check_verify(stdout):
    report = json.loads(stdout)
    _require(report["layer_consistency"]["passed"]
             and report["ego_consistency"]["passed"],
             "verify reports a failed consistency check")


def kept_component(a, report, restricted):
    """Instances the analysis ran on, checked against our own components."""
    if not restricted:
        return np.arange(a.shape[0])
    _, labels = connected_components(a, directed=True, connection="weak")
    largest = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    kept = np.asarray(report.get("restricted_to_component", largest))
    _require(np.array_equal(kept, largest),
             "analysis did not keep the largest component")
    return largest


def check_stationary(wl, a, report, restricted):
    """Fixed point of our own walk; d/vol on undirected input; layer loads."""
    kept = kept_component(a, report, restricted)
    sub = a[kept][:, kept]
    d = np.asarray(sub.sum(axis=1)).ravel()
    pi = np.asarray(report["stationary"], dtype=float)
    _require(pi.shape == (kept.size,) and pi.min() >= 0.0
             and abs(pi.sum() - 1.0) <= 1e-12, "pi is not a distribution")
    residual = np.abs(sub.T @ (pi / d) - pi).sum()
    _require(residual <= STATIONARY_RESIDUAL,
             f"|M pi - pi|_1 = {residual:.3e} > {STATIONARY_RESIDUAL:.3e}")
    if not wl.directed:
        err = np.abs(pi - d / d.sum()).sum()
        _require(err <= DEGREE_PI_TOL,
                 f"|pi - d/vol|_1 = {err:.3e} > {DEGREE_PI_TOL}")
    mass = np.asarray(a.sum(axis=1)).ravel().reshape(wl.l, wl.n).sum(axis=1)
    _close(report["layer_load"], mass / mass.sum(), "layer load", tol=1e-12)


def check_bisection(a, report):
    """Reported conductance recomputed from the side, and Cheeger's bound."""
    kept = kept_component(a, report, True)
    sub = sparse.csr_array(a[kept][:, kept])
    side = np.isin(kept, report["bisection"]["side"])
    _require(side.any() and not side.all(), "bisection side is empty or full")
    _require(np.isin(report["bisection"]["side"], kept).all(),
             "bisection side leaves the component")
    d = np.asarray(sub.sum(axis=1)).ravel()
    cut = sub[side][:, ~side].sum()
    vol = d[side].sum()
    phi = cut / min(vol, d.sum() - vol)
    _close(report["bisection"]["conductance"], phi, "conductance")
    _close(report["bisection"]["conductance_one_sided"], cut / vol,
           "one-sided conductance")
    lam2 = fiedler_value(sub, d)
    _require(lam2 / 2.0 <= phi <= np.sqrt(2.0 * lam2),
             f"conductance {phi:.4g} outside Cheeger's bounds for "
             f"lambda2 = {lam2:.4g}")


def fiedler_value(w, d):
    """Second-smallest eigenvalue of I - D^-1/2 W D^-1/2, by ARPACK."""
    s = sparse.diags_array(1.0 / np.sqrt(d))
    lap = sparse.csc_array(sparse.eye_array(w.shape[0]) - s @ w @ s)
    vals = eigsh(lap, k=2, sigma=-1e-3, which="LM",
                 v0=np.ones(w.shape[0]), return_eigenvectors=False)
    return float(np.sort(vals)[1])


def check_workload(wl, commands, files, stdout):
    """Every reference check that applies to the workload's last round.

    `stdout` maps each command's metric to what it printed.
    """
    a, n, l = read_super(files["super"])
    _require((n, l) == (wl.n, wl.l), f"super-adjacency is {n} x {l}")
    check_blocks(wl, a)
    check_couplings(wl, a)
    for command in commands:
        if command.expect_exit != 0:
            continue
        if command.metric == "verify":
            check_verify(stdout["verify"])
        elif command.metric == "stationary":
            check_stationary(wl, a, _load(files["stationary"]),
                             "--largest-component" in command.argv)
        elif command.metric == "bisect":
            check_bisection(a, _load(files["bisect"]))


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
