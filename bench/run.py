"""Benchmark of the multinet CLI on road, temporal and ego compositions.

    python3 bench/run.py --workload road|temporal|ego --seed N --seconds S --trace 0|1

One process per workload. It imports multinet from ``src/`` next to this
directory, generates the workload's inputs from the seed, writes them in the
CLI's own file formats, and then calls ``multinet.cli.main(argv)`` once per
command, as a user would type it, in whole rounds of the workload's command
sequence, as many as bring the measured time closest to ``--seconds``
(at least one). Each command is timed as the median of all its runs, each
scaled to a reference host speed (`hostspeed.py`). The outputs of every
round must be byte-identical, and those of the last round pass the
independent checks in `reference.py`.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics from timers around the CLI's public calls with ``--trace 1``.
"""

import os
import sys

# one thread for BLAS and OpenMP pools; must be set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
SETUP_REPEATS = 5


def import_multinet():
    """Import the CLI from this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "multinet", "cli.py")):
        sys.exit(f"bench: no multinet sources under {SRC}")
    sys.path.insert(0, SRC)
    import multinet.cli
    return multinet.cli


def set_up(generate, seed, workdir):
    """Import the CLI in a fresh interpreter, as each user command does, then
    generate and write the inputs; (workload, seconds)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import multinet.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=SRC))
    wl = generate(seed)
    workloads.write_inputs(wl, workdir)
    return wl, time.perf_counter() - start


def invoke(cli, argv, tracer):
    """Run one CLI command in-process; (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(list(argv))
        else:
            code = tracer.call(tracer.root, cli.main, list(argv))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def fingerprint(files, stdout):
    digest = hashlib.sha256()
    for path in sorted(files.values()):
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    for metric in sorted(stdout):
        digest.update(stdout[metric].encode())
    return digest.hexdigest()


class Rounds:
    """Runs whole rounds of a command sequence and keeps their timings.

    A round runs each command `command.repeat` times in the workload's order.
    A pass is the sequence once: its time, and in traced runs its layer self
    times, are a round's sums with each command's repetitions averaged.
    """

    def __init__(self, cli, commands, files, tracer, speed):
        self.cli, self.commands, self.files = cli, commands, files
        self.tracer, self.speed = tracer, speed
        # scaled seconds (see hostspeed.py) of every run of each command
        self.times = {c.metric: [] for c in commands}
        self.passes = []  # per round: scaled seconds of one pass
        self.layers = []  # per round, traced runs only: {layer: seconds}
        self.stdout = {}  # last round: {metric: printed text}
        self.attempted = self.failed = 0
        self._first = None

    def run(self, seconds, checks):
        """Run rounds until one more would end further from `seconds` than
        stopping now; always at least one."""
        start = time.perf_counter()
        while (not self.passes
               or (time.perf_counter() - start) * (1 + 0.5 / len(self.passes))
               < seconds):
            passed, layers = 0.0, dict.fromkeys(tracing.LAYERS, 0.0)
            for command in self.commands:
                for _ in range(command.repeat):
                    code, out, err, elapsed = invoke(self.cli, command.argv,
                                                     self.tracer)
                    self.attempted += 1
                    self.failed += code != 0
                    checks.check_exit(command, code, err)
                    scaled = self.speed.scale(elapsed)
                    self.times[command.metric].append(scaled)
                    passed += scaled / command.repeat
                    if self.tracer is not None:
                        weight = scaled / elapsed / command.repeat
                        for layer, own in self.tracer.take().items():
                            layers[layer] += own * weight
                self.stdout[command.metric] = out
            self.passes.append(passed)
            self.layers.append(layers)
            current = fingerprint(self.files, self.stdout)
            if self._first is None:
                self._first = current
            elif current != self._first:
                raise checks.CheckFailed("outputs differ from the first "
                                         "round's")

    def median(self, metric):
        return statistics.median(self.times[metric])


def end_to_end(rounds, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": (setup_s, "s"),
        "compose_s": (rounds.median("compose"), "s"),
        "stationary_s": (rounds.median("stationary"), "s"),
        "pipeline_s": (sum(map(rounds.median, rounds.times)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(rounds, files):
    """Self-time shares of the traced pass with the median time."""
    passes = rounds.passes
    k = sorted(range(len(passes)), key=passes.__getitem__)[
        (len(passes) - 1) // 2]
    metrics = {f"{layer}_pct": (100.0 * own / passes[k], "%")
               for layer, own in rounds.layers[k].items()}
    metrics["traced.pipeline_s"] = (passes[k], "s")
    metrics["host.kernel_s"] = (rounds.speed.median_kernel_s(), "s")
    metrics["io.super_file_mb"] = (os.path.getsize(files["super"]) / 1e6, "MB")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_multinet()

    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.GENERATORS)}")
    workdir = os.path.join(BENCH, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    speed = hostspeed.HostSpeed()
    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        wl, seconds = set_up(workloads.GENERATORS[args.workload], args.seed,
                             workdir)
        setup.append(speed.scale(seconds))
    files = workloads.paths(wl, workdir)
    commands = workloads.commands(wl, workdir)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    rounds = Rounds(cli, commands, files, tracer, speed)
    correct = True
    try:
        rounds.run(args.seconds, reference)
        if args.trace:
            metrics = per_layer(rounds, files)
        else:
            metrics = end_to_end(rounds, statistics.median(setup))
        reference.check_workload(wl, commands, files, rounds.stdout)
    except reference.CheckFailed as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    if tracer is not None:
        tracer.uninstall()

    result = {
        "correct": correct,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
