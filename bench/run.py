#!/usr/bin/env python3
"""tooltrain benchmark.

Run from the repository root:

    python3 bench/run.py --workload rl-toy --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 24 --trace 1

One invocation measures one workload in this process, a single thread with
BLAS and OpenMP pinned to one thread. It times repetitions of the workload's
closed loop for ``--seconds`` (at least three), each between two runs of a
fixed reference loop that gauges the CPU's current speed, checks every
repetition's outputs, and prints a table followed by one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the run alternates untraced and traced repetitions and reports
the per-layer metrics instead. ``--workload all`` runs every workload, each in its own
process. A full record of each run, with the environment it ran in, is
written under ``.bench_out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Before numpy is first imported (by the workloads, and by every set-up
# probe, which inherits this environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_REPS = 3
SETUP_SAMPLES = 11
# Set-up time is reported as on a CPU where one run of the reference loop
# takes this long, so that it drifts with the CPU no more than throughput.
REFERENCE_CPU_S = 0.1


def reference_seconds() -> float:
    """Seconds one run of a fixed reference loop takes right now.

    A shared or virtual CPU can change speed by tens of percent over seconds
    to minutes with its neighbours' load, and that change reaches this loop
    much as it reaches the workloads. The loop does the three kinds of work
    the workloads do (interpreted Python, numpy calls on small arrays, JSON
    encoding and decoding) and never calls tooltrain, so a change to the
    library cannot move it. The CPU flips between a fast and a slow state
    every few seconds, so both are averaged over the whole run: mean
    throughput times the loop's mean time cancels most of the drift.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, 32)
    record = {"id": 1, "values": list(range(50)), "text": "word " * 20}
    start = perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i * i % 7
    for _ in range(8_000):
        y = np.exp(x - x.max())
        y /= y.sum()
    for _ in range(3_000):
        json.loads(json.dumps(record))
    return perf_counter() - start


def measure_setup(snippet: str) -> tuple[list[float], list[float]]:
    """Seconds to import tooltrain and do the workload's own one-time
    preparation, each sample in a fresh interpreter, and the times of the
    reference loop run before the first sample and after every one."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "start = time.perf_counter()\n"
            f"{snippet}\n"
            "print(repr(time.perf_counter() - start))\n")
    samples, refs = [], [reference_seconds()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
        refs.append(reference_seconds())
    return samples, refs


def run_rep(workload, workloads_mod):
    try:
        return workload.run()
    except Exception:
        traceback.print_exc()
        n = workload.ops_per_rep
        return workloads_mod.Rep(n, n, math.nan, "", ["repetition raised"])


def measure(workload, workloads_mod, seconds: float):
    """Repetitions, each between two runs of the reference loop, for
    ``seconds`` (at least MIN_REPS). Returns the repetitions and the
    reference times."""
    reps, refs = [], [reference_seconds()]
    start = perf_counter()
    while len(reps) < MIN_REPS or (
            perf_counter() - start + reps[-1].seconds + refs[-1] <= seconds):
        reps.append(run_rep(workload, workloads_mod))
        refs.append(reference_seconds())
    return reps, refs


def measure_traced(workload, workloads_mod, tracing_mod, seconds: float):
    """Pairs of one untraced and one traced repetition, at least one pair.
    The order flips in every pair so that warm-up and drift favour neither."""
    tracer = tracing_mod.Tracer()
    untraced, traced, summaries = [], [], []
    first_spans = None
    start = perf_counter()
    while not traced or (perf_counter() - start + untraced[-1].seconds
                         + traced[-1].seconds <= seconds):
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if not with_trace:
                untraced.append(run_rep(workload, workloads_mod))
                continue
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_rep(workload, workloads_mod))
            finally:
                tracer.uninstall()
            summaries.append(tracing_mod.summarize(tracer.spans, tracer.counts))
            if first_spans is None:
                first_spans = list(tracer.spans)
    return untraced, traced, summaries, first_spans


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def run_workload(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import tooltrain
    if Path(tooltrain.__file__).resolve().parent != SRC / "tooltrain":
        print(f"error: imported tooltrain from {tooltrain.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup_samples, setup_refs = measure_setup(cls.setup)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = cls(args.seed, workdir)
        if args.trace:
            untraced, traced, summaries, spans = measure_traced(
                workload, workloads, tracing, args.seconds)
            reps, ref_s = untraced + traced, None
        else:
            untraced, ref_s = measure(workload, workloads, args.seconds)
            reps = untraced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = [f"rep {i}: {e}" for i, rep in enumerate(reps) for e in rep.errors]
    if len({rep.digest for rep in reps}) != 1:
        errors.append("outputs differ between repetitions of the same seed"
                      + (" (untraced vs traced)" if args.trace else ""))
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    timed = [rep for rep in untraced if math.isfinite(rep.seconds)]
    ops_per_s = statistics.mean(rep.ops / rep.seconds for rep in timed) if timed else 0.0
    setup_s = (statistics.median(setup_samples) * REFERENCE_CPU_S
               / statistics.mean(setup_refs))

    # Everything the table shows; the JSON line carries the subset that
    # BENCHMARK.json declares for this mode.
    shown = {}
    if ref_s is not None:
        shown["ops_per_ref"] = (ops_per_s * statistics.mean(ref_s), "op/ref")
    shown.update({
        cls.op_metric: (ops_per_s, cls.op_unit),
        "setup_s": (setup_s, "s"),
        "setup_plain_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_share": (failed / attempted, "failed/attempted"),
    })
    if args.workload == "rl-toy":
        shown["rl_trailing_reward"] = (reps[0].extra.get("rl_trailing_reward", math.nan),
                                       "reward")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        finite = [(u.seconds, t.seconds) for u, t in zip(untraced, traced)
                  if math.isfinite(u.seconds) and math.isfinite(t.seconds)]
        overhead = (statistics.median(t for _, t in finite)
                    / statistics.median(u for u, _ in finite)) if finite else 0.0
        layers = tracing.layer_metrics(summaries, workload.positions_per_rep, overhead)
        shown.update({m["name"]: (layers[m["name"]], m["unit"]) for m in declared
                      if m["name"] in layers})
        values = layers
    else:
        values = {name: value for name, (value, _) in shown.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run does not "
              f"compute: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracing.write_spans(OUT / f"{stem}.spans.tsv", spans)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "properties": workload.properties,
        "setup_samples_s": setup_samples,
        "setup_reference_seconds": setup_refs,
        "rep_seconds": [rep.seconds for rep in reps],
        "reference_seconds": ref_s,
        "rep_extra": [rep.extra for rep in reps],
        "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "errors": errors, "attempted": attempted, "failed": failed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reps {len(reps)}  commit {record['environment']['git_commit'][:12]}")
    for key, value in workload.properties.items():
        print(f"  property {key} = {value}")
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value!r} {unit}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process; prints their tables and one JSON
    line whose metric names are prefixed with the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tooltrain" / "__init__.py").is_file():
        print(f"error: no tooltrain sources under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
