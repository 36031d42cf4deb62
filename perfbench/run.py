"""weyldyn benchmark: closed-loop ``weyl-dyn`` calls with output checks.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  One caller in one process calls
``weyldyn.cli.main(argv)`` on scenario files generated from the seed,
waiting for each call before the next (a closed loop).  Every op's exit
code, report lines and CSV bytes are checked.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps the package's public calls (see
tracing.py) and prints the per-layer metrics.  The last line of standard
output is one JSON object; a run record goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_STARTS = 7   # fresh interpreters per run; setup_s is their median
MIN_OPS = 110      # timed ops per run, so that 10 lie beyond p90
TRACE_ROUNDS = 4   # fixed traced rounds, so that counts repeat for a seed

# Fresh interpreter doing what every weyl-dyn call does before its command.
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import weyldyn.cli as cli; "
               "[cli.resolve_scenario(p) for p in sys.argv[2:]]")


class ProgramMissing(RuntimeError):
    pass


def load_program():
    if not (SRC / "weyldyn" / "__init__.py").is_file():
        raise ProgramMissing(f"no weyldyn package under {SRC}")
    sys.path.insert(0, str(SRC))
    import weyldyn.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"imported weyldyn from {cli.__file__}, "
                             f"not from {SRC}")
    return cli


def measure_setup(scenario_paths) -> list[float]:
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC),
                        *scenario_paths], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs ops in a closed loop, checks each one and keeps the tallies."""

    def __init__(self, cli, variants):
        self.cli = cli
        self.variants = variants
        self.references = {}   # op key -> digest of its first run
        self.attempted = 0
        self.failures = []
        self.shape_counts = Counter()
        self.shape_times = {}
        self.rows = Counter()
        self.steps = Counter()
        self.bytes = Counter()
        self.angle_err = 0.0   # law-preserving simulate ops, first runs

    def call(self, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        if op.output:
            Path(op.output).unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:    # argparse rejected the argv
            rc = exc.code
        except Exception as exc:     # a traceback counts as a failed op
            rc = None
            stderr.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        try:
            data = Path(op.output).read_bytes() if op.output else None
        except FileNotFoundError:
            data = None
        return elapsed, workloads.Outcome(rc, stdout.getvalue(),
                                          stderr.getvalue(), data)

    def run(self, op, tracer=None):
        """One timed op; returns (seconds, samples) where samples are CSV
        rows written or, for verify, random draws evaluated."""
        if tracer is not None:
            tracer.op = self.attempted
        elapsed, outcome = self.call(op)
        self.attempted += 1
        first = op.key not in self.references
        problems = workloads.check(op, outcome, self.references.get(op.key))
        if first:
            self.references[op.key] = workloads.digest(outcome)
            if not problems and op.law is not None:
                err = workloads.angle_error(op, outcome)
                self.angle_err = max(self.angle_err, err)
                if err > workloads.TOLERANCE:
                    problems.append(f"angle error {err!r} exceeds the "
                                    f"tolerance {workloads.TOLERANCE!r}")
        if problems:
            self.failures.append({"op": op.shape, "variant": op.variant,
                                  "argv": list(op.argv), "problems": problems,
                                  "stderr": outcome.stderr[-500:]})
        self.shape_counts[op.shape] += 1
        self.shape_times.setdefault(op.shape, []).append(elapsed)
        samples = op.draws
        if outcome.data is not None:
            samples = outcome.data.count(b"\n") - 1
            self.rows[op.shape] += samples
            self.bytes[op.shape] += len(outcome.data)
            if op.header == workloads.TRAJECTORY_HEADER:
                self.steps[op.shape] += samples - 1
        return elapsed, samples

    def rounds(self, count, tracer=None):
        return [self.run(op, tracer) for r in range(count)
                for op in self.variants[r % len(self.variants)]]

    def loop(self, seconds, min_ops):
        """Whole rounds until both the time and the op count are reached,
        so that every shape keeps its share of the timed ops."""
        timed, r = [], 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(timed) < min_ops:
            timed += [self.run(op)
                      for op in self.variants[r % len(self.variants)]]
            r += 1
        return timed


def latency(timed):
    """Percentiles of the timed ops, for the run record: on a CPU whose
    speed flips between two levels every few seconds, a median lands on
    either level, so run-to-run they spread wider than the means below."""
    times = [t for t, _ in timed]
    return {"ops": len(times), "op_ms_p50": 1e3 * statistics.median(times),
            "op_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8]}


def end_to_end(timed, setup):
    busy = sum(t for t, _ in timed)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(timed) / busy, "ops/s"),
        "samples_per_s": (sum(s for _, s in timed) / busy, "samples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced, runner):
    metrics = {name: (float(value(tracer)), unit)
               for name, unit, _, value, _, _ in tracing.LAYERS}
    metrics["dynamics.angle_err_max"] = (runner.angle_err, "rad")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t for t, _ in traced)
        / statistics.median(t for t, _ in untraced), "ratio")
    return metrics


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


@contextlib.contextmanager
def workspace():
    """Directory for the generated scenarios and CSVs of one run."""
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(cli, workload, seed, seconds, trace, *, min_ops=MIN_OPS,
        trace_rounds=TRACE_ROUNDS):
    """One benchmark run; returns the result line and the run record."""
    import numpy

    with workspace() as workdir:
        variants = workloads.build(workload, seed, workdir)
        setup = measure_setup(sorted({op.argv[1] for ops in variants
                                      for op in ops}))
        runner = Runner(cli, variants)
        runner.rounds(len(variants))   # warm-up: first run of every variant
        record = {}
        if not trace:
            timed = runner.loop(seconds, min_ops)
            metrics = end_to_end(timed, setup)
            record["latency"] = latency(timed)
        else:
            untraced = runner.loop(seconds / 2, 0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.rounds(trace_rounds, tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, untraced, runner)
            tracer.write(OUT / f"spans-{workload}.npz")
            record["trace"] = {
                "ops": len(traced), "spans": len(tracer),
                "op_ms_total": tracer.total_ms("cli.main"),
                "absent": tracer.absent,
                "predictions": {name: {"moves": moves, "on": where}
                                for name, *_, moves, where in tracing.LAYERS},
            }

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "error_ratio": failed / runner.attempted,
        "op_mix": [op.shape for op in variants[0]],
        "ops_per_shape": dict(runner.shape_counts),
        "op_ms_p50_per_shape": {
            shape: 1e3 * statistics.median(times)
            for shape, times in runner.shape_times.items()},
        "rows_per_shape": dict(runner.rows),
        "steps_per_shape": dict(runner.steps),
        "bytes_per_shape": dict(runner.bytes),
        "angle_err_max_rad": runner.angle_err,
        "setup_s_each": setup,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "failures": runner.failures[:20],
        "metrics": result["metrics"],
    })
    return result, record


def _tamper_checks(runner, workload):
    """A tampered output must fail the checks that guard it."""
    problems = []
    for op in runner.variants[0]:
        _, outcome = runner.call(op)
        ref = runner.references[op.key]
        cases = {"wrong exit code": (workloads.Outcome(
            1 - op.expect_rc, outcome.stdout, outcome.stderr, outcome.data),
            None)}
        if outcome.data is not None:
            data = bytearray(outcome.data)
            i = len(op.header) + 1
            data[i] = ord("7") if data[i] != ord("7") else ord("3")
            cases["flipped CSV byte"] = (workloads.Outcome(
                outcome.rc, outcome.stdout, outcome.stderr, bytes(data)), ref)
        verdict = {"verify": "overall: ", "control": "["}.get(op.argv[0])
        if verdict:
            cases["FAIL line"] = (workloads.Outcome(
                outcome.rc, outcome.stdout.replace(verdict + "PASS",
                                                   verdict + "FAIL", 1),
                outcome.stderr, outcome.data), None)
        for name, (tampered, reference) in cases.items():
            if not workloads.check(op, tampered, reference):
                problems.append(f"{workload}/{op.shape}: {name} passed")
    return problems


def self_test() -> int:
    """Short runs of every workload: every metric printed with its unit,
    tampered outputs caught, and the layer prediction map holds."""
    cli = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    listed = [(n, u, b) for n, u, b, *_ in tracing.LAYERS]
    if [d for d in declared if d not in listed] != [
            ("dynamics.angle_err_max", "rad", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYERS")
    moved = tracing.Tracer({**tracing.SPANS,
                            "moved": ["weyldyn.cli:no_such_function",
                                      "weyldyn.no_such_module:f"]})
    moved.install()
    moved.uninstall()
    if [a["target"] for a in moved.absent] != moved.spans["moved"]:
        problems.append(f"missing wrapper targets not reported: {moved.absent}")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = run(cli, workload, 1, 0.5, trace, min_ops=10,
                                 trace_rounds=1)
            wanted = spec["per_layer" if trace else "end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: metric {m['name']} missing "
                                    f"or not in {m['unit']}")
            if not result["correct"]:
                problems.append(f"{workload}: {record['failures']}")
            if trace:
                layer = {k: v["value"] for k, v in result["metrics"].items()}
                if record["trace"]["absent"]:
                    problems.append(f"absent spans: {record['trace']['absent']}")
                if workload == "simulate":
                    share = ((layer["cli.csv_write_ms"]
                              + layer["dynamics.integrate_self_ms"])
                             / record["trace"]["op_ms_total"])
                    if share < 0.8:
                        problems.append(f"simulate: CSV + integration take "
                                        f"{share:.0%} of traced op time")
                if workload == "verify":
                    problems += [f"verify: {k} = {v}" for k, v in layer.items()
                                 if k.startswith(("dynamics.", "cli.csv_"))
                                 and v != 0]
        with workspace() as workdir:
            runner = Runner(cli, workloads.build(workload, 1, workdir))
            runner.rounds(1)
            problems += _tamper_checks(runner, workload)
    for line in problems:
        print(f"self-test: {line}", file=sys.stderr)
    print("self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        cli = load_program()
        result, record = run(cli, args.workload, args.seed, args.seconds,
                                args.trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = (OUT / "records"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed; record {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
