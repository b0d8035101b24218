"""Command-line pipeline: transform, compose, verify, analyze, ingest-dimacs.

Exit codes: 0 success, 1 validation or infeasibility, 2 a file fault (a
ParseError, its subclasses included), an OS error or exhausted memory, 3
solver non-convergence. Failures also emit one structured JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import io as mio
from .compose import (
    compose_distance,
    compose_ego,
    compose_multiplex,
    compose_stationary,
    verify_ego_consistency,
    verify_layer_consistency,
)
from .errors import MultinetError, NoConvergence, ParseError
from .graph import (
    ITERATIVE_TOL,
    LayerGraph,
    component_matrix,
    components,
    stationary,
)
from .spectral import bisect, layer_load
from .transform import degree_proportional_delay, transform_layer


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NoConvergence as exc:
        error, code = exc, 3
    except (ParseError, OSError, MemoryError) as exc:
        error, code = exc, 2
    except (MultinetError, ValueError) as exc:
        error, code = exc, 1
    json.dump({"error": type(error).__name__, "message": str(error)}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="multinet",
        description="Compose and analyze multi-layer networks under a "
                    "unified random-walk process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the layers and their stage-1 dynamics, shared by transform and compose
    dynamics = argparse.ArgumentParser(add_help=False)
    dynamics.add_argument("--layers", required=True)
    dynamics.add_argument("--bias-file")
    dynamics.add_argument("--delay-file")
    dynamics.add_argument("--degree-delay", type=float, metavar="KAPPA",
                          help="use tau = 1 + KAPPA * degree in every layer")

    p = sub.add_parser("transform", parents=[dynamics],
                       help="apply bias/delay dynamics to each layer")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("compose", parents=[dynamics], help="assemble the composed network")
    p.add_argument("--mode", required=True,
                   choices=["multiplex", "ego", "stationary", "distance"])
    p.add_argument("--ego-file")
    p.add_argument("--pi-file")
    p.add_argument("--coupling", type=float)
    p.add_argument("--distances", help="JSON file with an l x l distance matrix; "
                                       "defaults to unit-spaced |i-j|")
    p.add_argument("--kernel", default="reciprocal", choices=["reciprocal", "uniform"])
    p.add_argument("--adjacent-only", action="store_true", default=None,
                   help="couple consecutive layers only (default when no "
                        "--distances file is given)")
    p.add_argument("--all-pairs", dest="adjacent_only", action="store_false")
    p.add_argument("--require-undirected", action="store_true")
    p.add_argument("--force-symmetrize", action="store_true",
                   help="average asymmetric ego blocks; implies --require-undirected")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("verify", help="run both consistency checks on a composition")
    p.add_argument("--super", dest="super_path", required=True)
    p.add_argument("--layers", required=True,
                   help="the layers the composition was built from; for a "
                        "composition made with dynamics flags, the output of "
                        "`transform` run with the same flags")
    p.add_argument("--ego-file", required=True)
    p.add_argument("--tol", type=float, default=ITERATIVE_TOL)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("analyze", help="spectral and load analysis")
    p.add_argument("--super", dest="super_path")
    p.add_argument("--layers")
    p.add_argument("--layer", help="pick one layer of a layered file")
    p.add_argument("--bisect", action="store_true")
    p.add_argument("--layer-load", action="store_true")
    p.add_argument("--stationary", action="store_true")
    p.add_argument("--largest-component", action="store_true",
                   help="run spectral/stationary analysis on the largest "
                        "connected component (vertices absent from a layer "
                        "leave isolated instances in a super-adjacency)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dot", help="write a DOT file colored by bisection side")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("ingest-dimacs", help="split a DIMACS .gr road graph into layers")
    p.add_argument("--gr", required=True)
    p.add_argument("--categories", required=True)
    p.add_argument("--highway-classes", default="A1,A2,A3")
    p.add_argument("--class-weights", help="JSON file mapping road class to weight")
    p.add_argument("--scale-layer", action="append", default=[], metavar="NAME=FACTOR",
                   help="rescale one layer's weights after ingestion")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ingest)

    return parser


def _load_transformed(args):
    """Read layers and apply stage-1 dynamics from the optional files."""
    ds = mio.read_layers(args.layers)
    kappa = args.degree_delay
    if kappa is not None and args.delay_file is not None:
        raise ValueError("--degree-delay and --delay-file are exclusive")
    if args.bias_file is None and args.delay_file is None and kappa is None:
        return ds, ds.layers
    dynamics = mio.read_dynamics(args.bias_file, args.delay_file, ds)
    if kappa is not None:
        dynamics = {name: replace(dynamics[name], delay=degree_proportional_delay(g, kappa))
                    for name, g in zip(ds.layer_names, ds.layers)}
    return ds, [transform_layer(g, dynamics[name]) for name, g in zip(ds.layer_names, ds.layers)]


def _cmd_transform(args):
    ds, transformed = _load_transformed(args)
    mio.write_layers(replace(ds, layers=transformed), args.out)
    return 0


# A module-level name: bench/tracing.py times it as compose.compose, its file reads apart.
def compose(args, ds, layers):
    """Compose the transformed layers under --mode, reading its side file."""
    if args.mode == "multiplex":
        return compose_multiplex(layers)
    if args.mode == "ego":
        if not args.ego_file:
            raise ValueError("--mode ego requires --ego-file")
        return compose_ego(layers, mio.read_ego_file(args.ego_file, ds),
                           require_undirected=args.require_undirected,
                           force_symmetrize=args.force_symmetrize)
    if args.mode == "stationary":
        if not args.pi_file:
            raise ValueError("--mode stationary requires --pi-file")
        return compose_stationary(layers, mio.read_pi_file(args.pi_file, ds))
    if args.coupling is None:
        raise ValueError("--mode distance requires --coupling")
    if args.distances:
        dist = mio.read_distances(args.distances)
        adjacent_only = bool(args.adjacent_only)
    else:
        idx = np.arange(len(ds.layer_names), dtype=np.float64)
        dist = np.abs(idx[:, None] - idx[None, :])
        adjacent_only = args.adjacent_only is not False
    return compose_distance(layers, dist, args.coupling, kernel=args.kernel,
                            adjacent_only=adjacent_only)


def _cmd_compose(args):
    ds, transformed = _load_transformed(args)
    result = compose(args, ds, transformed)
    if args.mode == "multiplex":
        mio.write_layers(mio.LayeredDataset(layer_names=["composed"], layers=[result],
                                            labels=ds.labels), args.out)
    else:
        mio.write_super(result, args.out)
    return 0


def _cmd_verify(args):
    s = mio.read_super(args.super_path)
    ds = mio.read_layers(args.layers)
    egos = mio.read_ego_file(args.ego_file, ds)
    layer_report = verify_layer_consistency(s, ds.layers, tol=args.tol)
    ego_report = verify_ego_consistency(s, egos, tol=args.tol)
    payload = {
        "tol": args.tol,
        "layer_consistency": {
            "passed": layer_report.passed,
            "max_deviation_per_layer": layer_report.max_deviation_per_layer.tolist(),
            "worst": list(layer_report.worst),
        },
        "ego_consistency": {
            "passed": ego_report.passed,
            "max_deviation_per_vertex": ego_report.max_deviation_per_vertex.tolist(),
            "worst_vertex": ego_report.worst_vertex,
        },
    }
    mio.write_json(payload)
    return 0 if layer_report.passed and ego_report.passed else 1


def _cmd_analyze(args):
    if bool(args.super_path) == bool(args.layers):
        raise ValueError("analyze needs exactly one of --super or --layers")
    labels = layer_names = None
    if args.super_path:
        graph = mio.read_super(args.super_path)
        full = graph.as_graph()
    else:
        ds = mio.read_layers(args.layers)
        labels, layer_names = ds.labels, ds.layer_names
        if not args.layer and len(ds.layers) != 1:
            raise ValueError("layered input has several layers; pick one with "
                             "--layer or compose first")
        graph = full = ds.layer(args.layer or ds.layer_names[0])
        if args.layer_load:
            raise ValueError("--layer-load needs a super-adjacency (--super)")

    report = {"seed": args.seed}
    n, kept, walk = full.n, np.arange(full.n), full  # walk: the graph on the kept instances
    if args.largest_component:
        comps = components(full.matrix)
        if len(comps) > 1:
            kept = comps[0]
            walk = LayerGraph(len(kept), component_matrix(full.matrix, kept),
                              directed=full.directed)
            report["restricted_to_component"] = kept.tolist()
    # the whole matrix goes as soon as nothing left in the command reads it
    full = None
    if not (args.layer_load or args.dot):
        graph = None
    side = None
    if args.bisect or args.dot:
        bisection = bisect(walk, seed=args.seed)
        side = np.zeros(n, dtype=bool)
        side[kept[bisection.side]] = True
        report["bisection"] = {
            "side": np.flatnonzero(side).tolist(),
            "conductance": bisection.conductance,
            "conductance_one_sided": bisection.conductance_one_sided,
            "eigenvalue": bisection.eigenvalue,
            "residual": bisection.residual,
        }
    if args.layer_load:
        report["layer_load"] = layer_load(graph).loads
    if not args.dot:
        graph = None
    if args.stationary:
        report["stationary"] = stationary(walk).pi
    if args.dot:
        mio.write_dot(graph, args.dot, side=side, labels=labels, layer_names=layer_names)
    mio.write_json(report, args.out)
    return 0


def _cmd_ingest(args):
    highway = tuple(c for c in args.highway_classes.split(",") if c)
    weights = mio.read_class_weights(args.class_weights) if args.class_weights else None
    ds = mio.read_dimacs_gr(args.gr, args.categories,
                            highway_classes=highway, class_weights=weights)
    layers = list(ds.layers)
    for spec in args.scale_layer:
        name, _, factor = spec.partition("=")
        k = ds.index(name)
        layers[k] = layers[k].scaled(float(factor))
    mio.write_layers(replace(ds, layers=layers), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
