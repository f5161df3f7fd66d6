"""Closed-loop benchmark of the nonfree CLI: one client, one op at a time.

An op is one CLI invocation run in-process through `nonfree.cli.main(argv)`
with stdout captured. A run repeats the workload's fixed op list ("a pass")
until `--seconds` have elapsed and at least MIN_PASSES passes are done, and
checks every op with the oracle in `workloads`. Op latencies are scaled to a
nominal machine speed (see `speed`). With `--trace 0` it prints the end-to-end
metrics; with `--trace 1` it measures some passes untraced and some traced,
and prints the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from perfbench import THREAD_ENV, layers, speed, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_SCRIPT = os.path.join(ROOT, "perfbench", "run.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

MIN_PASSES = 2  # so every op runs twice and its stdout can be compared
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {
        "self_s": "s", "overhead_s": "s", "us_per_call": "us", "us_per_step": "us",
        "ms_per_call": "ms", "bytes": "B", "feasible_frac": "ratio",
        "moment_calls_per_step": "calls/step",
    }.get(suffix, "count")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable nonfree under src/."""


def load_cli():
    """nonfree.cli from this checkout's src/, never from anywhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        cli = importlib.import_module("nonfree.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import nonfree from {SRC}: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"nonfree was imported from {cli.__file__}, not from {SRC}")
    return cli


class Pass(NamedTuple):
    latencies: list[float]  # raw, per op
    scaled: list[float]  # per op, at nominal machine speed (see speed.py)


class Runner:
    """Runs ops, keeps the first stdout of each for the repeat check, counts failures."""

    def __init__(self, cli, ops: list[workloads.Op]):
        self.cli = cli
        self.ops = ops
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, op: workloads.Op) -> tuple[int | None, str, str | None]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(op.argv))  # looked up per call, so a tracer sees it
        except (Exception, SystemExit) as exc:
            return None, buf.getvalue(), repr(exc)
        return code, buf.getvalue(), None

    def judge(self, index: int, code, stdout: str, error: str | None) -> None:
        op = self.ops[index]
        self.attempted += 1
        problem = error or workloads.check(op, code, stdout)
        if problem is None:
            first = self.reference.setdefault(index, stdout)
            if first != stdout:
                problem = "stdout differs from an earlier run of the same op"
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")

    def warm_up(self) -> None:
        self.judge(0, *self.invoke(self.ops[0]))

    def one_pass(self) -> Pass:
        """Runs every op once, timing the reference kernel between ops."""
        clock = time.perf_counter
        results, latencies = [], []
        kernel_times = [speed.kernel_seconds()]
        for op in self.ops:
            t0 = clock()
            results.append(self.invoke(op))
            latencies.append(clock() - t0)
            kernel_times.append(speed.kernel_seconds())
        for index, result in enumerate(results):
            self.judge(index, *result)
        return Pass(latencies, speed.scaled(latencies, kernel_times))

    def passes(self, seconds: float, minimum: int, before_pass=None) -> list[Pass]:
        done = []
        start = time.perf_counter()
        while len(done) < minimum or time.perf_counter() - start < seconds:
            if before_pass is not None:
                before_pass()
            done.append(self.one_pass())
        return done


def op_seconds(done: list[Pass]) -> list[float]:
    """Each op's latency at nominal speed: the median over the passes."""
    return [statistics.median(run) for run in zip(*(p.scaled for p in done))]


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of `samples` beyond it."""
    return max(50, min(99, 100 * (samples - TAIL_BEYOND) // samples))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def probe_setup(workload: str, seed: int, workdir: str) -> int:
    """A fresh interpreter's set-up: import, input generation, one warm-up op."""
    cli = load_cli()
    runner = Runner(cli, workloads.build(workload, workdir, seed))
    with contextlib.redirect_stdout(io.StringIO()):
        runner.warm_up()
    for failure in runner.failures:
        print(failure, file=sys.stderr)
    return 1 if runner.failures else 0


def setup_seconds(workload: str, seed: int, workdir: str,
                  repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of `repeats` fresh interpreters doing the set-up, one at a
    time: raw, and scaled to nominal speed like the op latencies."""
    times = []
    kernel_times = [speed.kernel_seconds()]
    env = dict(os.environ, **THREAD_ENV)
    for index in range(repeats):
        probe_dir = os.path.join(workdir, f"setup{index}")
        argv = [sys.executable, RUN_SCRIPT, "--workload", workload, "--seed", str(seed),
                "--setup-probe", probe_dir]
        start = time.perf_counter()
        probe = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait ends with the child; wait(timeout=...) would poll in 50 ms steps.
        killer = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
        killer.start()
        try:
            code = probe.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        kernel_times.append(speed.kernel_seconds())
        shutil.rmtree(probe_dir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return times, speed.scaled(times, kernel_times)


def end_to_end(runner: Runner, args, workdir: str, setup_repeats: int) -> dict[str, float]:
    setup_raw, setup = setup_seconds(args.workload, args.seed, workdir, setup_repeats)
    runner.warm_up()
    done = runner.passes(args.seconds, MIN_PASSES)
    ops = op_seconds(done)
    raw = sum(statistics.median(run) for run in zip(*(p.latencies for p in done)))
    p = tail_percentile(len(ops))
    print(f"# setup_s: median of {len(setup)} fresh interpreters at nominal speed; "
          f"raw {[round(x, 4) for x in setup_raw]}")
    print(f"# passes: {len(done)}, raw wall {[round(sum(each.latencies), 4) for each in done]}")
    print(f"# ops: {len(ops)} samples, each an op's median over {len(done)} passes "
          f"at nominal speed; "
          f"wall_s is their sum (raw: {raw:.4f}), op_s_tail their p{p}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(ops),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": percentile(ops, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner, args, workdir: str) -> tuple[dict[str, float], list[str]]:
    runner.warm_up()
    untraced = runner.passes(args.seconds / 2, 1)
    with layers.Tracer() as tracer:
        bounds: list[int] = []
        traced = runner.passes(args.seconds / 2, 1, lambda: bounds.append(len(tracer.spans)))
    bounds.append(len(tracer.spans))
    per_pass = [layers.layer_metrics(tracer.spans, a, b) for a, b in zip(bounds, bounds[1:])]
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.overhead_s"] = sum(op_seconds(traced)) - sum(op_seconds(untraced))
    spans_path = os.path.join(workdir, "spans.tsv")
    tracer.write(spans_path)
    print(f"# per-layer: median of {len(traced)} traced passes; "
          f"overhead against {len(untraced)} untraced")
    print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    return metrics, layers.check_spans(tracer.spans, args.workload)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal op lists, for the benchmark's own tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}")
    try:
        if args.setup_probe:
            return probe_setup(args.workload, args.seed, args.setup_probe)
        shutil.rmtree(WORK_ROOT, ignore_errors=True)  # keep only the latest run's files
        cli = load_cli()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"# nonfree benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env: {json.dumps(environment())}")
    runner = Runner(cli, workloads.build(args.workload, workdir, args.seed, tiny=args.tiny))
    problems: list[str] = []
    if args.trace:
        values, problems = per_layer(runner, args, workdir)
    else:
        values = end_to_end(runner, args, workdir, 1 if args.tiny else SETUP_REPEATS)
    units = {name: layer_unit(name) for name in values} if args.trace else END_TO_END
    for line in runner.failures + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"# fail_frac: {len(runner.failures) / runner.attempted} "
          f"({len(runner.failures)} of {runner.attempted} ops)")
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0
