"""Each reference check accepts the CLI's real outputs and rejects corrupted ones.

Run with ``python -m pytest bench``. The workloads are the benchmark's own
generators at small sizes, driven through the same in-process CLI calls.
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from multinet import cli  # noqa: E402
from run import invoke  # noqa: E402

SMALL = {
    "road": lambda seed: workloads.road(seed, side=20),
    "temporal": lambda seed: workloads.temporal(seed, n=60, l=6),
    "ego": lambda seed: workloads.ego(seed, n=50, l=4),
}


def run_small(name, workdir):
    wl = SMALL[name](7)
    workloads.write_inputs(wl, workdir)
    files = workloads.paths(wl, workdir)
    # the road bisection only fails at full size; its exit is tested below
    commands = [c for c in workloads.commands(wl, workdir) if c.expect_exit == 0]
    stdout = {}
    for command in commands:
        code, out, err, _ = invoke(cli, command.argv, None)
        reference.check_exit(command, code, err)
        stdout[command.metric] = out
    return wl, commands, files, stdout


@pytest.fixture(scope="module", params=sorted(SMALL))
def outputs(request, tmp_path_factory):
    return run_small(request.param, str(tmp_path_factory.mktemp(request.param)))


@pytest.fixture(scope="module")
def temporal(tmp_path_factory):
    return run_small("temporal", str(tmp_path_factory.mktemp("temporal")))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_real_outputs_pass(outputs):
    reference.check_workload(*outputs)


def test_perturbed_pi_rejected(outputs):
    wl, commands, files, _ = outputs
    a, _, _ = reference.read_super(files["super"])
    report = load(files["stationary"])
    restricted = "--largest-component" in commands[-1].argv
    reference.check_stationary(wl, a, report, restricted)
    bad = copy.deepcopy(report)
    bad["stationary"][0] += 1e-7
    bad["stationary"][1] -= 1e-7
    with pytest.raises(reference.CheckFailed, match="M pi - pi"):
        reference.check_stationary(wl, a, bad, restricted)


def test_wrong_layer_load_rejected(outputs):
    wl, commands, files, _ = outputs
    a, _, _ = reference.read_super(files["super"])
    bad = load(files["stationary"])
    bad["layer_load"][0] += 1e-9
    bad["layer_load"][1] -= 1e-9
    with pytest.raises(reference.CheckFailed, match="layer load"):
        reference.check_stationary(wl, a, bad,
                                   "--largest-component" in commands[-1].argv)


def test_wrong_coupling_rejected(outputs):
    wl, _, files, _ = outputs
    a, n, _ = reference.read_super(files["super"])
    coo = a.tocoo()
    k = np.flatnonzero(coo.row // n != coo.col // n)[0]
    bad = a.tolil()
    bad[coo.row[k], coo.col[k]] *= 1.0 + 1e-6
    with pytest.raises(reference.CheckFailed, match="coupl"):
        reference.check_couplings(wl, bad.tocsr())


def test_wrong_diagonal_block_rejected(outputs):
    wl, _, files, _ = outputs
    a, n, _ = reference.read_super(files["super"])
    coo = a.tocoo()
    k = np.flatnonzero(coo.row // n == coo.col // n)[0]
    bad = a.tolil()
    bad[coo.row[k], coo.col[k]] *= 1.0 + 1e-9
    with pytest.raises(reference.CheckFailed, match="diagonal block"):
        reference.check_blocks(wl, bad.tocsr())


def test_coupling_between_vertices_rejected(outputs):
    wl, _, files, _ = outputs
    a, n, _ = reference.read_super(files["super"])
    bad = a.tolil()
    bad[0, n + 1] = 1.0
    with pytest.raises(reference.CheckFailed, match="different vertices"):
        reference.check_blocks(wl, bad.tocsr())


def test_flipped_bisection_vertex_rejected(temporal):
    _, _, files, _ = temporal
    a, _, _ = reference.read_super(files["super"])
    report = load(files["bisect"])
    reference.check_bisection(a, report)
    kept = report["restricted_to_component"]
    side = set(report["bisection"]["side"])
    flip = next(v for v in kept if v not in side)
    bad = copy.deepcopy(report)
    bad["bisection"]["side"] = sorted(side | {flip})
    with pytest.raises(reference.CheckFailed, match="conductance"):
        reference.check_bisection(a, bad)


def test_bisection_outside_cheeger_bound_rejected(temporal):
    _, _, files, _ = temporal
    a, _, _ = reference.read_super(files["super"])
    report = load(files["bisect"])
    kept = np.asarray(report["restricted_to_component"])
    sub = a[kept][:, kept]
    side = np.arange(kept.size) % 2 == 0  # a consistent but poor split
    d = np.asarray(sub.sum(axis=1)).ravel()
    cut = sub[side][:, ~side].sum()
    vol = d[side].sum()
    bad = copy.deepcopy(report)
    bad["bisection"] = {"side": kept[side].tolist(),
                        "conductance": cut / min(vol, d.sum() - vol),
                        "conductance_one_sided": cut / vol}
    with pytest.raises(reference.CheckFailed, match="Cheeger"):
        reference.check_bisection(a, bad)


def test_failed_verify_rejected():
    report = {"layer_consistency": {"passed": True},
              "ego_consistency": {"passed": False}}
    with pytest.raises(reference.CheckFailed, match="verify"):
        reference.check_verify(json.dumps(report))


def test_road_bisection_exit():
    bisect = next(c for c in workloads.road().commands if c.metric == "bisect")
    failure = json.dumps({"error": "NoConvergence", "message": "residual"})
    reference.check_exit(bisect, 3, failure + "\n")
    for code, err in ((0, ""), (1, failure), (2, failure),
                      (3, json.dumps({"error": "Disconnected"}))):
        with pytest.raises(reference.CheckFailed):
            reference.check_exit(bisect, code, err)


def test_layer_self_times_add_up_to_the_command():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("io.read_super", inner) + sum(range(10000))

    tracer.call(tracer.root, tracer.call, "graph.stationary", outer)
    elapsed = tracer.elapsed
    own = tracer.take()
    assert sum(own.values()) == pytest.approx(elapsed, rel=1e-9)
    assert all(own[layer] > 0 for layer in
               (tracer.root, "graph.stationary", "io.read_super"))


def test_host_speed_scales_by_the_kernels_around_the_call():
    speed = hostspeed.HostSpeed()
    scaled = speed.scale(2.0)
    before, after = speed.kernel_s
    assert scaled == pytest.approx(
        2.0 * hostspeed.REFERENCE_S / ((before + after) / 2), rel=1e-12)
