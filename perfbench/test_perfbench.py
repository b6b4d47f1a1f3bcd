"""Tests of the benchmark's own logic: span arithmetic, the reference clock, seeds,
digests, metric names."""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from refclock import SpeedSampler
from tracing import ROOT, Tracer, covered_length, self_times, summarize

HERE = Path(__file__).resolve().parent


def test_covered_length_merges_overlaps_and_skips_empty_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert covered_length([(2.0, 5.0), (1.0, 3.0)]) == 4.0
    assert covered_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert covered_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0
    assert covered_length([(3.0, 3.0), (5.0, 4.0)]) == 0.0


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("op", 0.0, 10.0, ROOT, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 5.0, 0, 0),      # overlaps a: children cover [1, 5]
        ("c", 1.5, 2.5, 1, 0),      # grandchild: only a's self time shrinks
        ("d", 8.0, 12.0, 0, 0),     # sticks out: counts [8, 10] against op
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 4.0])


def test_summary_reports_median_self_time_calls_per_op_and_share():
    spans = [
        ("op", 0.0, 4.0, ROOT, 0),
        ("x", 0.0, 1.0, 0, 0),
        ("x", 1.0, 3.0, 0, 0),
        ("op", 4.0, 6.0, ROOT, 1),
        ("x", 4.0, 5.5, 3, 1),
        ("init", 10.0, 12.0, ROOT, ROOT),
    ]
    metrics = summarize(spans, 2, ("x", "init", "never"), {"hit": [1, 4]}, ("hit", "none"))
    assert metrics["x.self_us"] == pytest.approx(1.5e6)
    assert metrics["x.calls_per_op"] == 1.5
    assert metrics["x.share"] == pytest.approx(4.5 / 8.0)
    assert metrics["init.share"] == pytest.approx(2.0 / 8.0)
    assert metrics["never.self_us"] == 0.0 and metrics["never.calls_per_op"] == 0.0
    assert metrics["hit"] == 0.25 and metrics["none"] == 0.0


def test_tracer_records_parent_and_op_ids_even_when_a_call_raises():
    tracer = Tracer()

    def inner():
        raise ValueError("boom")

    def op():
        tracer.call("ok", len, "abc")
        with pytest.raises(ValueError):
            tracer.call("fails", inner)

    tracer.call("setup", len, "")
    tracer.op(op)
    tracer.op(op)
    names = [(name, parent, op_id) for name, _, _, parent, op_id in tracer.spans]
    assert names == [("setup", ROOT, ROOT),
                     ("op", ROOT, 0), ("ok", 1, 0), ("fails", 1, 0),
                     ("op", ROOT, 1), ("ok", 4, 1), ("fails", 4, 1)]
    assert tracer.ops == 2
    assert all(start <= end for _, start, end, _, _ in tracer.spans)


def test_tracer_writes_every_span(tmp_path):
    import gzip

    tracer = Tracer()
    tracer.op(tracer.call, "x", len, "ab")
    tracer.count("c", True)
    tracer.write(tmp_path / "spans.json.gz")
    with gzip.open(tmp_path / "spans.json.gz", "rt") as fh:
        payload = json.load(fh)
    assert [payload["names"][row[0]] for row in payload["spans"]] == ["op", "x"]
    assert payload["spans"][1][3] == 0
    assert payload["counts"] == {"c": [1, 1]} and payload["ops"] == 1


def test_chunk_seed_is_a_fixed_function_of_workload_seed_and_chunk():
    assert workloads.chunk_seed(0, 0) == 15793235383387715774
    assert workloads.chunk_seed(7, 3) == 5061563556724077661
    seeds = {workloads.chunk_seed(s, c) for s in range(20) for c in range(50)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert workloads.chunk_seed(0, 1) != workloads.chunk_seed(1, 0)


def test_digest_is_canonical_and_sensitive_to_the_payload():
    a = workloads.digest({"x": [1, 2], "y": repr(0.1)})
    assert a == workloads.digest({"y": repr(0.1), "x": [1, 2]})
    assert a != workloads.digest({"x": [1, 2], "y": repr(0.1 + 1e-16)})


def _chunks(workload, state, seed, count, traced=False):
    tracer = Tracer()
    seeds = [workloads.chunk_seed(seed, i) for i in range(count)]
    if traced:
        return [workload.trace_chunk(state, s, tracer) for s in seeds]
    return [workload.run_chunk(state, s) for s in seeds]


@pytest.mark.parametrize("make", [
    lambda: workloads.Coverage(workloads.build_ot_2x2, 3, workloads.OT2X2_BANDS),
    lambda: workloads.Coverage(workloads.build_min_cost_flow, 2, workloads.MCF_BANDS),
    lambda: workloads.Limit(40),
])
def test_digest_repeats_and_traced_chunks_reproduce_untraced_ones(make):
    workload = make()
    state = workload.setup()
    first = _chunks(workload, state, 5, 2)
    again = _chunks(workload, workload.setup(), 5, 2)
    traced = _chunks(workload, state, 5, 2, traced=True)
    assert [c.output for c in traced] == [c.output for c in first]
    assert all(c.failed == 0 for c in first + traced)
    digests = {workloads.digest(workload.digest_payload(state, chunks))
               for chunks in (first, again, traced)}
    assert len(digests) == 1


def test_coverage_check_allows_the_band_widened_by_four_standard_errors():
    workload = workloads.Coverage(workloads.build_min_cost_flow, 1000, workloads.MCF_BANDS)
    config = workloads.build_min_cost_flow()
    # 0.905 is 1.6 standard errors under the floor, 0.87 is 4.7
    chunks = [workloads.Chunk(2000, 0, (905, 870))]
    assert [check["ok"] for check in workload.checks(config, chunks)] == [True, False]
    workload = workloads.Coverage(workloads.build_ot_2x2, 1000, workloads.OT2X2_BANDS)
    config = workloads.build_ot_2x2()
    # n=1 at 0.600 sits 4.6 standard errors over its band's top, 0.528
    chunks = [workloads.Chunk(4000, 0, (600, 980, 920, 950))]
    assert [check["ok"] for check in workload.checks(config, chunks)] == [
        False, True, True, True]


def test_rate_is_the_median_over_round_robin_groups_of_chunks():
    chunks = [workloads.Chunk(ops, 0, ()) for ops in (10, 10, 10, 10, 10, 10, 40)]
    summary = run.rate_summary(chunks, [1.0] * 7)
    # groups of chunks {0, 5}, {1, 6}, {2}, {3}, {4}
    assert summary["group_rates"] == [10.0, 25.0, 10.0, 10.0, 10.0]
    assert summary["median"] == 10.0 and summary["chunks"] == 7


class WallClock:
    """A clock whose reference seconds are wall seconds."""

    def reference_seconds(self, start, end):
        return end - start


def test_timed_chunks_honours_min_and_max_counts():
    chunks, times, walls = run.timed_chunks(lambda s: s, lambda i: 10 * i, 0.0, 3, WallClock())
    assert chunks == [0, 10, 20] and times == walls and len(times) == 3
    chunks, _, _ = run.timed_chunks(lambda s: s, lambda i: i, 60.0, 1, WallClock(),
                                    max_chunks=2)
    assert chunks == [0, 1]


def _sampler(readings):
    sampler = SpeedSampler(units=1)
    for start, end, speed in readings:
        sampler.starts.append(start)
        sampler.ends.append(end)
        sampler.speeds.append(speed)
    return sampler


def test_reference_seconds_take_off_the_readings_and_scale_by_their_mean_speed():
    sampler = _sampler([(1.0, 1.5, 0.5), (3.0, 3.5, 1.5), (6.0, 6.5, 2.0)])
    # readings 0 and 1 lie inside [0, 4]: 3 s of workload at mean speed 1.0
    assert sampler.reference_seconds(0.0, 4.0) == pytest.approx(3.0)
    # no reading lies inside [1.6, 2.9] or [4, 6.2]: the nearest on each side count
    assert sampler.reference_seconds(1.6, 2.9) == pytest.approx(1.3 * 1.0)
    assert sampler.reference_seconds(4.0, 6.2) == pytest.approx(2.2 * 1.75)


def test_reference_seconds_read_the_speed_when_no_reading_follows():
    sampler = _sampler([(1.0, 1.5, 0.5)])
    now = time.perf_counter()
    seconds = sampler.reference_seconds(now - 0.1, now)
    assert len(sampler.speeds) == 2
    assert seconds == pytest.approx(0.1 * (0.5 + sampler.speeds[1]) / 2.0, rel=1e-3)


def test_sampler_reads_from_its_timer_and_stops_it_on_exit():
    with SpeedSampler(units=1, period=0.001) as sampler:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    taken = len(sampler.speeds)
    assert taken >= 5 and all(speed > 0 for speed in sampler.speeds)
    assert sampler.starts == sorted(sampler.starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.01)
    assert len(sampler.speeds) == taken


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(
        workloads.SPAN_NAMES, workloads.COUNT_NAMES)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "limit-ot2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
