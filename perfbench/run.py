"""Run one lpdist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coverage-mcf --seed 1 --seconds 22 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's ``src/``.  The workload runs in this one process, single
threaded, in chunks until ``--seconds`` have passed; times are in
reference seconds (see ``refclock``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
(chunk quartiles, checks, output digest, machine) goes to
``perfbench/out/``.  Exit status: 0 when every output check passes, 1 when
one fails, 2 when the checkout has no ``src/lpdist``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in batches: a batch repeats it until SETUP_BATCH_SECONDS
# pass and records the mean; at least SETUP_MIN_BATCHES batches run, and
# more until SETUP_MIN_SECONDS have been spent
SETUP_BATCH_SECONDS = 0.25
SETUP_MIN_BATCHES = 3
SETUP_MIN_SECONDS = 2.0
WARMUP_CHUNK = 2**32 - 1  # chunk index never reached by a timed phase
RATE_GROUPS = 5
OVERHEAD = "trace.overhead_ratio"
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "fraction"}


def per_layer_units(span_names, count_names) -> dict:
    units = {}
    for name in span_names:
        units[f"{name}.self_us"] = "us"
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.share"] = "fraction"
    units.update({name: "fraction" for name in count_names})
    units[OVERHEAD] = "ratio"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def machine() -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "platform": platform.platform(),
    }


def measure_setup(workload, warmup_seed, clock):
    """Mean set-up time of each batch, in reference seconds (see ``refclock``);
    a set-up is construction plus one warm-up op."""
    batches = []
    spent = 0.0
    while len(batches) < SETUP_MIN_BATCHES or spent < SETUP_MIN_SECONDS:
        repeats = 0
        start = time.perf_counter()
        while not repeats or time.perf_counter() - start < SETUP_BATCH_SECONDS:
            state = workload.setup()
            workload.warmup(state, warmup_seed)
            repeats += 1
        end = time.perf_counter()
        spent += end - start
        batches.append(clock.reference_seconds(start, end) / repeats)
    return state, batches


def timed_chunks(run, seed_of, seconds, min_chunks, clock, max_chunks=None):
    """Run chunk 0, 1, ... until ``seconds`` of wall time pass, at least
    ``min_chunks`` and at most ``max_chunks`` of them; chunk ``i`` gets seed
    ``seed_of(i)``.  Returns the chunks, their times in reference seconds
    (see ``refclock``) and their wall times."""
    chunks, times, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while len(chunks) < min_chunks or time.perf_counter() < deadline:
        if max_chunks is not None and len(chunks) >= max_chunks:
            break
        seed = seed_of(len(chunks))
        start = time.perf_counter()
        chunks.append(run(seed))
        end = time.perf_counter()
        walls.append(end - start)
        times.append(clock.reference_seconds(start, end))
    return chunks, times, walls


def rate_summary(chunks, times) -> dict:
    """Ops per second: the median over RATE_GROUPS groups of each group's ops
    over its time, the chunks being dealt round-robin into the groups.

    Every group samples the whole run, so a slow spell of a shared machine
    weighs on all groups alike instead of deciding which chunks are the
    median, and a disturbed chunk moves one group only.
    """
    rates = [chunk.ops / t for chunk, t in zip(chunks, times)]
    groups = min(RATE_GROUPS, len(chunks))
    group_rates = [sum(chunk.ops for chunk in chunks[g::groups]) / sum(times[g::groups])
                   for g in range(groups)]
    q1, _, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    return {"median": statistics.median(group_rates), "group_rates": group_rates,
            "chunks": len(rates), "chunk_q1": q1, "chunk_median": statistics.median(rates),
            "chunk_q3": q3, "chunk_rates": rates, "ops": sum(chunk.ops for chunk in chunks),
            "seconds": sum(times)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpdist" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'lpdist'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    from refclock import SpeedSampler

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with SpeedSampler() as clock:
        return run_workload(args, workloads.WORKLOADS[args.workload], clock)


def run_workload(args, workload, clock) -> int:
    """Measure, check and report one workload; ``clock`` is a running
    ``SpeedSampler``.  Returns the exit status."""
    import workloads
    from tracing import Tracer, summarize

    state, setup_times = measure_setup(workload,
                                       workloads.chunk_seed(args.seed, WARMUP_CHUNK), clock)
    OUT.mkdir(exist_ok=True)

    def seed_of(index):
        return workloads.chunk_seed(args.seed, index)

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    chunks, times, walls = timed_chunks(lambda s: workload.run_chunk(state, s), seed_of,
                                        untraced_seconds, workload.min_chunks, clock)
    untraced = rate_summary(chunks, times)
    untraced["wall_rate"] = untraced["ops"] / sum(walls)
    checks = workload.checks(state, chunks)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(),
              "setup_s": {"median": statistics.median(setup_times), "batch_means": setup_times},
              "ops_per_s": untraced}
    attempted = untraced["ops"]
    failed = sum(chunk.failed for chunk in chunks)

    if args.trace:
        tracer = Tracer()
        traced_chunks, traced_times, _ = timed_chunks(
            lambda s: workload.trace_chunk(state, s, tracer), seed_of,
            args.seconds / 2, 1, clock, max_chunks=len(chunks))
        mismatched = [i for i, chunk in enumerate(traced_chunks)
                      if chunk.output != chunks[i].output]
        checks.append({"check": "traced outputs equal untraced outputs",
                       "ok": not mismatched, "chunks": len(traced_chunks),
                       "mismatched": mismatched})
        traced = rate_summary(traced_chunks, traced_times)
        attempted += traced["ops"]
        failed += sum(chunk.failed for chunk in traced_chunks)
        metrics = summarize(tracer.spans, tracer.ops, workloads.SPAN_NAMES, tracer.counts,
                            workloads.COUNT_NAMES)
        metrics[OVERHEAD] = untraced["median"] / traced["median"]
        units = per_layer_units(workloads.SPAN_NAMES, workloads.COUNT_NAMES)
        record["traced_ops_per_s"] = traced
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz")
    else:
        metrics = {
            "ops_per_s": untraced["median"],
            "setup_s": record["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS

    digest_payload = workload.digest_payload(state, chunks[:workload.min_chunks])
    record["speed"] = {"readings": len(clock.speeds),
                       "quartiles": statistics.quantiles(clock.speeds, n=4)}
    record["digest"] = {"sha256": workloads.digest(digest_payload), "payload": digest_payload}
    record["checks"] = checks
    record["failed_frac"] = failed / attempted
    correct = all(check["ok"] for check in checks)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr))

    for check in checks:
        print(("ok   " if check["ok"] else "FAIL ") + json.dumps(check, default=repr))
    print(f"digest {record['digest']['sha256']} {json.dumps(digest_payload)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
