"""Benchmark of the rzero command line, run in-process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Builds the workload's input files from the seed, sets up (import, inputs,
one warm-up command) several times, then repeats passes over the
workload's fixed command list for about `--seconds` seconds.  Every output
is checked.  Times are wall times divided by the machine factor measured
right before each command (see `calibration.py`).  A human-readable report
comes first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` the first half of the time runs untraced and the second
half traced, and the metrics are the per-layer ones, plus the tracing
overhead (median traced pass over median untraced pass).  Spans are written
to `.perfbench_work/spans-<workload>-<seed>.jsonl`.

Exit status: 0 when every output passed its checks, 1 when one failed,
2 when the benchmark could not run (no `src/rzero`, or a trace target is
missing).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 7

sys.path.insert(0, HERE)

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, TraceError, Tracer  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("slowest_s", "s"),
    ("ops_per_s", "1/s"),
]
UNIT_NAMES = {"stability": "trials", "ladder": "commands", "signs-ladder": "commands"}


class BenchError(Exception):
    """The benchmark cannot run here."""


def _fresh_import():
    """Import `rzero.cli` from the checkout's sources, discarding any copy
    already loaded so that every set-up pays the import."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rzero", "cli.py")):
        raise BenchError(f"no rzero package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "rzero" or n.startswith("rzero.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("rzero.cli")


class Runner:
    """Runs commands through `rzero.cli.main` with captured output."""

    def __init__(self, main):
        self.main = main

    def run(self, command):
        """(latency, stdout digest, parsed output or None, error or None)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(list(command.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught crash is a failed command
            code = f"crash {exc!r}"
        latency = time.perf_counter() - start
        text = out.getvalue()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if code != 0:
            return latency, digest, None, f"exit {code}: {err.getvalue().strip()[:300]}"
        try:
            doc = json.loads(text)
            workloads.check(command, doc)
        except (ValueError, KeyError, TypeError, workloads.CheckFailure) as exc:
            return latency, digest, None, f"bad output: {exc!r}"
        return latency, digest, doc, None


def set_up(name: str, seed: int, directory: str):
    """Import, write the inputs, run one warm-up command; returns the
    calibrated time, the runner and the command list."""
    machine = calibration.factor([calibration.kernel() for _ in range(3)])
    start = time.perf_counter()
    cli = _fresh_import()
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    commands = workloads.WORKLOADS[name](random.Random(seed), directory, ROOT)
    runner = Runner(cli.main)
    runner.run(commands[0])
    return (time.perf_counter() - start) / machine, runner, commands


class Measurement:
    """Passes over the command list, with their latencies and outcomes."""

    def __init__(self, commands):
        self.commands = commands
        self.passes = []          # per pass, calibrated latency of each command
        self.wall = []            # per pass, wall time
        self.factors = []         # per pass, machine factor
        self.failures = []        # (pass, label, error)
        self.digests = None       # digests of the first pass
        self.attempted = 0

    def run_pass(self, runner) -> None:
        index = len(self.passes)
        latencies, kernels, digests, docs = [], [], [], []
        for command in self.commands:
            kernels.append(calibration.kernel())
            latency, digest, doc, error = runner.run(command)
            self.attempted += 1
            latencies.append(latency)
            digests.append(digest)
            docs.append(doc)
            if error is not None:
                self.failures.append((index, command.label, error))
        for key in workloads.check_agreement(self.commands, docs):
            self.failures.append((index, f"agreement {key}", "circle and hopf radii differ"))
        if self.digests is None:
            self.digests = digests
        else:
            for command, old, new in zip(self.commands, self.digests, digests):
                if old != new:
                    self.failures.append((index, command.label, "output changed between passes"))
        machine = calibration.factor(kernels)
        self.passes.append([latency / machine for latency in latencies])
        self.wall.append(sum(latencies))
        self.factors.append(machine)

    def repeat(self, runner, seconds: float) -> None:
        """Run passes for about `seconds` of wall time, at least one."""
        start = time.perf_counter()
        while True:
            self.run_pass(runner)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.wall) > seconds:
                break

    def pass_times(self) -> list:
        return [sum(p) for p in self.passes]

    def median_latency(self, index: int) -> float:
        return statistics.median(p[index] for p in self.passes)


def check_recorded_digests(name: str, measurement: Measurement) -> list:
    with open(DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle).get(name, {})
    errors = []
    for command, digest in zip(measurement.commands, measurement.digests):
        expected = recorded.get(command.label)
        if expected != digest:
            errors.append((0, command.label, f"digest {digest[:12]} != recorded {str(expected)[:12]}"))
    if set(recorded) != {c.label for c in measurement.commands}:
        errors.append((0, "digests", "recorded digests do not list exactly this workload's commands"))
    return errors


def write_digests(name: str, measurement: Measurement) -> None:
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    table[name] = {c.label: d for c, d in zip(measurement.commands, measurement.digests)}
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setups, measurement) -> dict:
    passes = measurement.pass_times()
    units = sum(c.units for c in measurement.commands)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": statistics.median(passes),
        "slowest_s": statistics.median(max(p) for p in measurement.passes),
        "ops_per_s": units / statistics.median(passes),
    }
    return {key: _metric(values[key], unit) for key, unit in END_TO_END}


def report_end_to_end(name, metrics, setups, measurement) -> None:
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    count = len(measurement.passes)
    print(f"# workload {name}: {count} passes of {len(measurement.commands)} commands; "
          f"median machine factor {statistics.median(measurement.factors):.3f}, "
          f"median wall pass {statistics.median(measurement.wall):.4f} s")
    for key, unit in END_TO_END:
        shown = key
        if key == "ops_per_s":
            shown = f"{UNIT_NAMES[name]}_per_s"
        n = samples.get(key, count)
        print(f"{name}.{shown} = {metrics[key]['value']:.6g} {unit} (samples: {n})")
    failed = len({(index, label) for index, label, _ in measurement.failures})
    print(f"{name}.failed_ratio = {failed / measurement.attempted:.6g} ratio "
          f"({failed} of {measurement.attempted} commands)")
    print("# median calibrated latency per command (s):")
    for index, command in enumerate(measurement.commands):
        print(f"#   {measurement.median_latency(index):8.4f}  {command.label}")


def report_scaling(measurement, tracer) -> None:
    """Per command: latency, sizes, and the layers with the most self time."""
    print("# scaling: median latency, vertices before->after subdivision, "
          "simplices, levels; top self times per pass")
    by_command = tracer.self_times()
    passes = len(measurement.passes)
    for index, command in enumerate(measurement.commands):
        sizes = {key: value // passes
                 for key, value in tracer.scaling.get(command.label, {}).items()}
        layers = sorted(by_command[command.label].items(), key=lambda kv: -kv[1])[:3]
        top = ", ".join(f"{name} {value / passes:.3f}" for name, value in layers)
        print(f"#   {measurement.median_latency(index):8.4f} s  "
              f"v {sizes.get('vertices_in', 0)}->{sizes.get('vertices_out', 0)}  "
              f"simplices {sizes.get('simplices', 0)}  levels {sizes.get('levels', 0)}  "
              f"{command.label}: {top}")


class TracedRunner(Runner):
    """A runner whose commands run under the tracer's root span."""

    def __init__(self, main, tracer):
        super().__init__(tracer.command_runner(main))
        self.tracer = tracer

    def run(self, command):
        self.tracer.begin_command(command.label)
        return super().run(command)


def measure(args, setups, runner, commands):
    """Untraced passes; returns the end-to-end metrics and the measurements."""
    plain = Measurement(commands)
    plain.repeat(runner, args.seconds)
    metrics = end_to_end(setups, plain)
    report_end_to_end(args.workload, metrics, setups, plain)
    return metrics, [plain], plain.failures


def measure_traced(args, runner, commands):
    """Untraced then traced passes; returns the per-layer metrics."""
    tracer = Tracer()
    plain = Measurement(commands)
    plain.repeat(runner, args.seconds / 2)
    tracer.install()
    try:
        traced = Measurement(commands)
        traced.repeat(TracedRunner(runner.main, tracer), args.seconds / 2)
    finally:
        tracer.uninstall()
    values = tracer.summary(len(traced.passes))
    machine = statistics.median(traced.factors)
    for key, unit in LAYER_METRICS:
        if unit == "s":
            values[key] /= machine
    values["trace.overhead_ratio"] = (statistics.median(traced.pass_times())
                                      / statistics.median(plain.pass_times()))
    failures = plain.failures + traced.failures
    for command, a, b in zip(commands, plain.digests, traced.digests):
        if a != b:
            failures.append((0, command.label, "traced output differs from untraced"))
    print(f"# workload {args.workload}: per-layer metrics per pass "
          f"({len(traced.passes)} traced, {len(plain.passes)} untraced passes)")
    for key, unit in LAYER_METRICS:
        print(f"{args.workload}.{key} = {values[key]:.6g} {unit}")
    report_scaling(traced, tracer)
    tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
    metrics = {key: _metric(values[key], unit) for key, unit in LAYER_METRICS}
    return metrics, [plain, traced], failures


def run(args) -> int:
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, runner, commands = set_up(args.workload, args.seed, directory)
            setups.append(elapsed)
        if args.trace:
            metrics, measured, failures = measure_traced(args, runner, commands)
        else:
            metrics, measured, failures = measure(args, setups, runner, commands)
        if args.write_digests:
            write_digests(args.workload, measured[0])
        elif args.seed == DEFAULT_SEED:
            failures = failures + check_recorded_digests(args.workload, measured[0])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for index, label, error in failures:
        print(f"FAILED pass {index}: {label}: {error}")
    attempted = sum(m.attempted for m in measured)
    failed = len({(index, label) for index, label, _ in failures})
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's output digests as the reference "
                             "for its workload (use with the default seed)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchError, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
