"""Command-line pipeline: transform, compose, verify, analyze, ingest-dimacs.

Exit codes: 0 success, 1 validation or infeasibility, 2 I/O or parse
problem, 3 solver non-convergence. Failures also emit one structured JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .errors import (
    DuplicateEdge,
    MissingCategory,
    MultinetError,
    NoConvergence,
    ParseError,
    UnknownLayer,
)
from .graph import LayerGraph, components, stationary, urw_transition
from .spectral import bisect, layer_load
from .transform import DynamicsParams, degree_proportional_delay, transform_layer

_IO_ERRORS = (ParseError, DuplicateEdge, UnknownLayer, MissingCategory,
              OSError, json.JSONDecodeError, UnicodeDecodeError)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NoConvergence as exc:
        _emit_error(exc)
        return 3
    except _IO_ERRORS as exc:
        _emit_error(exc)
        return 2
    except (MultinetError, ValueError) as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="multinet",
        description="Compose and analyze multi-layer networks under a "
                    "unified random-walk process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply bias/delay dynamics to each layer")
    p.add_argument("--layers", required=True)
    p.add_argument("--bias-file")
    p.add_argument("--delay-file")
    p.add_argument("--degree-delay", type=float, metavar="KAPPA",
                   help="use tau = 1 + KAPPA * degree in every layer")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("compose", help="assemble the composed network")
    p.add_argument("--layers", required=True)
    p.add_argument("--bias-file")
    p.add_argument("--delay-file")
    p.add_argument("--degree-delay", type=float, metavar="KAPPA",
                   help="use tau = 1 + KAPPA * degree in every layer")
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
    p.add_argument("--tol", type=float, default=1e-10)
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
    p.add_argument("--scale-layer", action="append", default=[],
                   metavar="NAME=FACTOR",
                   help="rescale one layer's weights after ingestion")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_ingest)

    return parser


def _load_transformed(args):
    """Read layers and apply stage-1 dynamics from the optional files."""
    ds = mio.read_layers(args.layers)
    bias = getattr(args, "bias_file", None)
    delay = getattr(args, "delay_file", None)
    kappa = getattr(args, "degree_delay", None)
    if kappa is not None and delay is not None:
        raise ValueError("--degree-delay and --delay-file are exclusive")
    if bias is None and delay is None and kappa is None:
        return ds, ds.layers
    dynamics = mio.read_dynamics(bias, delay, ds)
    if kappa is not None:
        dynamics = {
            name: DynamicsParams(
                bias=dynamics[name].bias,
                delay=degree_proportional_delay(g, kappa),
            )
            for name, g in zip(ds.layer_names, ds.layers)
        }
    transformed = [
        transform_layer(g, dynamics[name])
        for name, g in zip(ds.layer_names, ds.layers)
    ]
    return ds, transformed


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
                           require_undirected=args.require_undirected or args.force_symmetrize,
                           force_symmetrize=args.force_symmetrize)
    if args.mode == "stationary":
        if not args.pi_file:
            raise ValueError("--mode stationary requires --pi-file")
        return compose_stationary(layers, mio.read_pi_file(args.pi_file, ds))
    if args.coupling is None:
        raise ValueError("--mode distance requires --coupling")
    if args.distances:
        dist = np.asarray(mio.read_json(args.distances), dtype=np.float64)
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
    json.dump(payload, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0 if layer_report.passed and ego_report.passed else 1


def _cmd_analyze(args):
    if bool(args.super_path) == bool(args.layers):
        raise ValueError("analyze needs exactly one of --super or --layers")
    labels = None
    layer_names = None
    if args.super_path:
        graph = mio.read_super(args.super_path)
    else:
        ds = mio.read_layers(args.layers)
        labels = ds.labels
        layer_names = ds.layer_names
        if args.layer:
            graph = ds.layer(args.layer)
        elif len(ds.layers) == 1:
            graph = ds.layers[0]
        else:
            raise ValueError("layered input has several layers; pick one with "
                             "--layer or compose first")
    seed = int(os.environ.get("MULTINET_SEED") or args.seed)

    full = graph.as_graph() if hasattr(graph, "as_graph") else graph
    walk_graph = full
    restrict = None  # flat indices kept when --largest-component applies
    if args.largest_component:
        comps = components(full.matrix)
        if len(comps) > 1:
            restrict = comps[0]
            walk_graph = LayerGraph(
                len(restrict),
                full.matrix[restrict, :][:, restrict],
                directed=full.directed,
            )

    report = {"seed": seed}
    if restrict is not None:
        report["restricted_to_component"] = [int(v) for v in restrict]
    bisection = None
    side_full = None
    if args.bisect or args.dot:
        bisection = bisect(walk_graph, seed=seed)
        side_full = np.zeros(full.n, dtype=bool)
        kept = restrict if restrict is not None else np.arange(full.n)
        side_full[kept[bisection.side]] = True
        report["bisection"] = {
            "side": [int(v) for v in np.flatnonzero(side_full)],
            "conductance": bisection.conductance,
            "conductance_one_sided": bisection.conductance_one_sided,
            "eigenvalue": bisection.eigenvalue,
            "residual": bisection.residual,
        }
    if args.layer_load:
        if not hasattr(graph, "l"):
            raise ValueError("--layer-load needs a super-adjacency (--super)")
        report["layer_load"] = layer_load(graph).loads.tolist()
    if args.stationary:
        pi = stationary(urw_transition(walk_graph))
        report["stationary"] = pi.pi.tolist()
    if args.dot:
        mio.write_dot(graph, args.dot, side=side_full,
                      labels=labels, layer_names=layer_names)
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _cmd_ingest(args):
    highway = tuple(c for c in args.highway_classes.split(",") if c)
    weights = None
    if args.class_weights:
        weights = {k: float(v) for k, v in mio.read_json(args.class_weights).items()}
    ds = mio.read_dimacs_gr(args.gr, args.categories,
                            highway_classes=highway, class_weights=weights)
    layers = list(ds.layers)
    for spec in args.scale_layer:
        name, _, factor = spec.partition("=")
        if name not in ds.layer_names:
            raise ValueError(f"unknown layer {name!r} in --scale-layer")
        k = ds.layer_names.index(name)
        layers[k] = layers[k].scaled(float(factor))
    mio.write_layers(replace(ds, layers=layers), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
