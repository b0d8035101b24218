"""Seeded benchmark inputs, written in the CLI's own file formats.

Each generator returns a `Workload`: the raw layers and side inputs as the
benchmark knows them (the reference checks compare the CLI's outputs against
these, not against anything multinet computed), plus the command sequence a
user would type. `write_inputs` turns a workload into files.

Vertex ``u`` is labelled ``v<u>`` and every label is declared with a
``vertex`` line before any edge, so the CLI assigns it id ``u`` too.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

# Road inputs do not depend on --seed: its bisection is counted as a failed
# operation, which must fail on the same inputs in every run.
ROAD_SEED = 20160906
# highway corridors along every ROAD_SPACING-th row and column
ROAD_SPACING = 10
# --degree-delay of the road composition: tau = 1 + kappa d
ROAD_KAPPA = 0.1

# temporal: chance that a vertex is present in a snapshot, and edge
# probabilities inside and across the two planted communities
TEMPORAL_PRESENCE = 0.9
TEMPORAL_P_IN = 0.04
TEMPORAL_P_OUT = 0.002
# --coupling of the distance composition
TEMPORAL_COUPLING = 1.0
# Activity grows along the stack: weights in snapshot k are scaled by
# 1 + TEMPORAL_TREND (k / (l - 1) - 1/2). The power iterations start from a
# uniform vector, so their iteration count depends on how far the degree
# mass is from uniform along the stack; the trend fixes that distance, and
# with it the work, to within a few percent across seeds (without it the
# stationary solve took 13.6k to 17.7k iterations over eight seeds).
TEMPORAL_TREND = 1.0

# ego: random out-edges per vertex and layer
EGO_OUT_DEGREE = 4


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `metric` names the end-to-end timer it feeds."""

    metric: str
    argv: tuple
    expect_exit: int = 0
    expect_error: str | None = None  # error name on stderr when exit != 0
    # runs per round: a short command runs several times, so that its median
    # rests on more samples of the host's varying speed
    repeat: int = 1


@dataclass
class Workload:
    name: str
    n: int
    layer_names: list
    layers: list  # raw n x n csr adjacency per layer, as written
    directed: bool
    kappa: float = 0.0  # --degree-delay, 0 for identity dynamics
    pis: dict = field(default_factory=dict)  # vertex -> requested pi (road)
    coupling: float = 0.0  # distance coupling c (temporal)
    egos: np.ndarray | None = None  # (n, l, l) column-stochastic (ego)
    commands: list = field(default_factory=list)

    @property
    def l(self):
        return len(self.layers)


def _undirected(n, u, v, w):
    """Symmetric csr adjacency from one orientation of each edge."""
    a = sparse.coo_array((w, (u, v)), shape=(n, n)).tocsr()
    return (a + a.T).tocsr()


# vertices absent from a layer leave isolated instances, so the analyses of
# road and temporal compositions run on the largest component
STATIONARY_RESTRICTED = Command(
    "stationary", ("analyze", "--super", "{super}", "--stationary",
                   "--layer-load", "--largest-component",
                   "--out", "{stationary}"))


# ---------------------------------------------------------------------------
# generators


def road(seed=None, side=50):
    """Local grid with random weights, plus highway corridors at weight 2.

    Corridors run along every ROAD_SPACING-th row and column. Every vertex on
    a corridor asks for a local-layer share pi_1 strictly inside its feasible
    interval between 1/2 and its transformed degree share d1/(d1+d2).
    `seed` is ignored: the inputs come from ROAD_SEED.
    """
    rng = np.random.default_rng(ROAD_SEED)
    n = side * side
    grid = np.arange(n).reshape(side, side)
    u = np.concatenate([grid[:, :-1].ravel(), grid[:-1, :].ravel()])
    v = np.concatenate([grid[:, 1:].ravel(), grid[1:, :].ravel()])
    local = _undirected(n, u, v, rng.uniform(0.5, 1.5, u.size))
    lines = np.arange(ROAD_SPACING // 2, side, ROAD_SPACING)
    hu = np.concatenate([grid[lines, :-1].ravel(), grid[:-1, lines].ravel()])
    hv = np.concatenate([grid[lines, 1:].ravel(), grid[1:, lines].ravel()])
    highway = _undirected(n, hu, hv, np.full(hu.size, 2.0))

    raw = np.column_stack([local.sum(axis=1), highway.sum(axis=1)])
    d = raw * (1.0 + ROAD_KAPPA * raw)
    endpoint = d[:, 0] / d.sum(axis=1)
    t = rng.uniform(0.2, 0.8, n)
    pis = {}
    for w in np.flatnonzero((raw[:, 1] > 0) & (np.abs(endpoint - 0.5) > 1e-3)):
        p1 = 0.5 + t[w] * (endpoint[w] - 0.5)
        pis[int(w)] = [float(p1), float(1.0 - p1)]

    wl = Workload("road", n, ["local", "highway"], [local, highway],
                  directed=False, kappa=ROAD_KAPPA, pis=pis)
    wl.commands = [
        Command("compose", ("compose", "--layers", "{layers}",
                            "--mode", "stationary", "--pi-file", "{pi}",
                            "--degree-delay", str(ROAD_KAPPA),
                            "--out", "{super}"), repeat=6),
        # fails in spectral.fiedler_vector on grid-like compositions
        Command("bisect", ("analyze", "--super", "{super}", "--bisect",
                           "--largest-component", "--out", "{bisect}"),
                expect_exit=3, expect_error="NoConvergence"),
        STATIONARY_RESTRICTED,
    ]
    return wl


def temporal(seed, n=300, l=30):
    """Stack of `l` snapshots of `n` vertices with two planted communities."""
    rng = np.random.default_rng(seed)
    group = rng.permutation(n) % 2
    same = group[:, None] == group[None, :]
    iu, ju = np.triu_indices(n, 1)
    prob = np.where(same[iu, ju], TEMPORAL_P_IN, TEMPORAL_P_OUT)
    layers = []
    for k in range(l):
        present = rng.random(n) < TEMPORAL_PRESENCE
        keep = (rng.random(iu.size) < prob) & present[iu] & present[ju]
        scale = 1.0 + TEMPORAL_TREND * (k / (l - 1) - 0.5)
        w = rng.uniform(0.5, 1.5, iu.size)[keep] * scale
        layers.append(_undirected(n, iu[keep], ju[keep], w))
    wl = Workload("temporal", n, [f"t{k}" for k in range(l)], layers,
                  directed=False, coupling=TEMPORAL_COUPLING)
    wl.commands = [
        Command("compose", ("compose", "--layers", "{layers}",
                            "--mode", "distance",
                            "--coupling", repr(TEMPORAL_COUPLING),
                            "--out", "{super}"), repeat=3),
        Command("bisect", ("analyze", "--super", "{super}", "--bisect",
                           "--largest-component", "--out", "{bisect}")),
        STATIONARY_RESTRICTED,
    ]
    return wl


def ego(seed, n=2000, l=10):
    """Directed random layers with random column-stochastic ego matrices.

    Every vertex has out-degree >= 1 in every layer, so no instance is
    isolated, and every ego matrix keeps a stay probability of 0.3 to 0.7.
    """
    rng = np.random.default_rng(seed)
    layers = []
    rows = np.repeat(np.arange(n), EGO_OUT_DEGREE)
    for _ in range(l):
        cols = rng.integers(0, n - 1, rows.size)
        cols = cols + (cols >= rows)  # no self-loops
        w = rng.uniform(0.5, 1.5, rows.size)
        # repeated targets merge into one edge of summed weight
        layers.append(sparse.coo_array((w, (rows, cols)), shape=(n, n)).tocsr())
    egos = rng.dirichlet(np.ones(l), size=(n, l))  # [u, i, :] = column i
    egos = np.transpose(egos, (0, 2, 1))
    stay = rng.uniform(0.3, 0.7, (n, l))
    idx = np.arange(l)
    egos *= (1.0 - stay)[:, None, :]
    egos[:, idx, idx] += stay
    egos /= egos.sum(axis=1, keepdims=True)
    wl = Workload("ego", n, [f"e{k}" for k in range(l)], layers,
                  directed=True, egos=egos)
    wl.commands = [
        Command("compose", ("compose", "--layers", "{layers}", "--mode", "ego",
                            "--ego-file", "{ego}", "--out", "{super}")),
        Command("verify", ("verify", "--super", "{super}",
                           "--layers", "{layers}", "--ego-file", "{ego}")),
        Command("stationary", ("analyze", "--super", "{super}", "--stationary",
                               "--layer-load", "--out", "{stationary}"),
                repeat=2),
    ]
    return wl


GENERATORS = {"road": road, "temporal": temporal, "ego": ego}

_SUFFIX = {"layers": "layers", "pi": "pi.json", "ego": "ego.json",
           "super": "super.mtx", "bisect": "bisect.json",
           "stationary": "stationary.json"}


def paths(wl, workdir):
    """Input and output file of each kind, by kind."""
    return {kind: os.path.join(workdir, f"{wl.name}.{suffix}")
            for kind, suffix in _SUFFIX.items()}


def commands(wl, workdir):
    """The workload's command sequence with file paths filled in."""
    files = paths(wl, workdir)
    return [replace(c, argv=tuple(a.format(**files) for a in c.argv))
            for c in wl.commands]


# ---------------------------------------------------------------------------
# writers (the CLI's formats, see the package README)


def write_inputs(wl, workdir):
    files = paths(wl, workdir)
    _write_layers(wl, files["layers"])
    if wl.pis:
        with open(files["pi"], "w", encoding="utf-8") as handle:
            json.dump({f"v{u}": p for u, p in wl.pis.items()}, handle)
    if wl.egos is not None:
        payload = {f"v{u}": m for u, m in enumerate(wl.egos.tolist())}
        with open(files["ego"], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _write_layers(wl, path):
    flag = "directed" if wl.directed else "undirected"
    parts = [f"layer {name} {flag}\n" for name in wl.layer_names]
    parts += [f"vertex v{u}\n" for u in range(wl.n)]
    for name, a in zip(wl.layer_names, wl.layers):
        coo = a.tocoo()
        keep = slice(None) if wl.directed else coo.row <= coo.col
        for u, v, w in zip(coo.row[keep].tolist(), coo.col[keep].tolist(),
                           coo.data[keep].tolist()):
            parts.append(f"edge {name} v{u} v{v} {w!r}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))
