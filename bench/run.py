#!/usr/bin/env python3
"""Benchmark for ferrocal: three workloads, a closed loop, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is simulate_write, calibrate_noisy, cli_pipeline, or all (each named
workload in its own process, one after another). Run from anywhere inside
a checkout; ferrocal is imported from the checkout's src/.

An untraced run (--trace 0) reports the end-to-end metrics: setup_s, the
median over fresh interpreters of the time until `import ferrocal` is done
and the workload's config is loaded; wall_s, the median time of one warm
pass, over the passes made in S seconds after one warm-up pass; and
peak_rss_mb. A traced run (--trace 1) reports the per-layer metrics (see
README.md). The last line of standard output is one JSON object; the full
record (environment, pass times, spans) is written under .bench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread in this process and every child: no ferrocal matrix is
# larger than 8505 x 12, and OpenBLAS's second thread makes some fresh
# processes stall in the shared-offset fit (see README.md)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("simulate_write", "calibrate_noisy", "cli_pipeline")
SETUP_INTERPRETERS = 7
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import ferrocal
t1 = time.perf_counter()
from ferrocal import config
config.load_config(sys.argv[1])
print(t1 - t0, time.perf_counter() - t1, flush=True)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def metric(value, unit):
    return {"value": value, "unit": unit}


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment():
    import numpy
    import scipy

    import ferrocal

    return {"git_revision": git_revision(), "kernel_backend": ferrocal.kernel_backend,
            "blas_threads": int(BLAS_THREADS), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "cpus": os.cpu_count()}


def measure_setup(config_path):
    """Per fresh interpreter: seconds until ready, import ferrocal, load config."""
    samples = []
    for _ in range(SETUP_INTERPRETERS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(config_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up interpreter failed: {err.strip()[-500:]}")
        samples.append((ready, *map(float, line.split())))
    return samples


class PassDirs:
    """Numbered output directories for passes, inside one workload directory."""

    def __init__(self, base):
        self.base = base
        self.count = 0

    def new(self):
        self.count += 1
        path = self.base / f"pass{self.count:03d}"
        path.mkdir(parents=True)
        return path


def timed(workload, dirs, tracer=None):
    out_dir = dirs.new()
    start = time.perf_counter()
    result = workload.run_pass(out_dir, tracer)
    return result, time.perf_counter() - start


def run_untraced(workload, seconds):
    dirs = PassDirs(workload.dir)
    ref, _ = timed(workload, dirs)  # warm-up; its outputs are the reference
    times, rss = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        result, elapsed = timed(workload, dirs)
        times.append(elapsed)
        workload.require_same(ref, result)
        shutil.rmtree(result.dir)
        attempted += result.attempted
        failed += result.failed
        rss.append(result.rss_mb)
    if rss[0] is None:
        # in-process workloads: the high-water mark after the timed passes,
        # before any check allocates
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    workload.check(ref)
    record = {"pass_s": times, "peak_rss_mb": rss}
    return attempted, failed, statistics.median(times), statistics.median(rss), record


def run_traced(workload, others, seconds):
    """Alternate untraced and traced passes of ``workload``, then trace one
    pass of every other workload, so that each layer metric is measured."""
    import ferrocal
    from spans import Tracer

    tracer = Tracer()
    everything = [workload, *others]
    dirs = {w.name: PassDirs(w.dir) for w in everything}
    refs = {w.name: timed(w, dirs[w.name])[0] for w in everything}

    def traced_pass(w, index):
        tracer.pass_label = (w.name, index)
        with tracer.installed(ferrocal), tracer.span(f"pass.{w.name}"):
            result, elapsed = timed(w, dirs[w.name], tracer)
        w.require_same(refs[w.name], result)
        shutil.rmtree(result.dir)
        return result, elapsed

    plain, traced = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        result, elapsed = timed(workload, dirs[workload.name])
        workload.require_same(refs[workload.name], result)
        shutil.rmtree(result.dir)
        plain.append(elapsed)
        attempted += result.attempted
        failed += result.failed
        result, elapsed = traced_pass(workload, len(traced))
        traced.append(elapsed)
        attempted += result.attempted
        failed += result.failed
    for other in others:
        traced_pass(other, 0)
    for w in everything:
        w.check(refs[w.name])
    overhead = statistics.median(traced) - statistics.median(plain)
    record = {"pass_s": plain, "traced_pass_s": traced, "spans": tracer.spans}
    return attempted, failed, tracer, overhead, record


def layer_metrics(tracer, setup, overhead):
    from spans import TRACED

    from workloads import CliPipeline

    spans = ([f"cli.{name}" for name, _, _ in CliPipeline.COMMANDS]
             + [f"{module}.{func}" for module, func in TRACED] + ["fitting.fit_family_shared"])
    metrics = {
        "cli.import_s": metric(statistics.median(s[1] for s in setup), "s"),
        "config.load_config_s": metric(statistics.median(s[2] for s in setup), "s"),
    }
    for name in spans:
        metrics[f"{name}_s"] = metric(tracer.layer_value(name, tracer.duration), "s")
    metrics["simulate.run_protocol_sweep_self_s"] = metric(
        tracer.layer_value("simulate.run_protocol_sweep", tracer.self_time), "s")
    metrics["fitting.fit_lorentzian_cdf_calls"] = metric(
        round(tracer.layer_value("fitting.fit_lorentzian_cdf", lambda i: 1)), "count")
    metrics["fitting.curve_markers_failed"] = metric(round(tracer.layer_value(
        "fitting.curve_markers", lambda i: tracer.spans[i]["error"] is not None)), "count")
    metrics["bench.trace_overhead_s"] = metric(overhead, "s")
    return metrics


def run_one(args):
    import workloads
    from oracles import CheckError

    workdir = OUT / f"work-{os.getpid()}"
    correct, attempted, failed, metrics, record, setup = False, 1, 0, {}, {}, []
    try:
        workloads.self_test()
        make = workloads.WORKLOADS
        workload = make[args.workload](args.seed, workdir / args.workload)
        setup = measure_setup(workload.config_path)
        if args.trace:
            others = [make[n](args.seed, workdir / n) for n in WORKLOAD_NAMES if n != args.workload]
            attempted, failed, tracer, overhead, record = run_traced(workload, others, args.seconds)
            metrics = layer_metrics(tracer, setup, overhead)
        else:
            attempted, failed, wall, rss, record = run_untraced(workload, args.seconds)
            metrics = {"setup_s": metric(statistics.median(s[0] for s in setup), "s"),
                       "wall_s": metric(wall, "s"),
                       "peak_rss_mb": metric(rss, "MB")}
        correct = True
    except CheckError as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = environment()
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(
        {"args": vars(args), "environment": env, "setup_samples": setup, **record,
         "result": result}, indent=1))
    print("environment " + json.dumps(env))
    for key, m in metrics.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} operations: {attempted} attempted, {failed} failed")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        if not lines[-1].startswith("{"):
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ferrocal" / "__init__.py").is_file():
        print(f"bench: no ferrocal sources at {SRC}; run from a ferrocal checkout",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
