"""The benchmark workloads, their output checks and their digests.

Each workload runs in chunks.  ``run_chunk`` calls the public ``lpdist``
entry point a user would call; ``trace_chunk`` re-composes the same chunk
from the same public calls in the same order, with a span around each call
into a module, and must give the same ``Chunk.output``.  Every chunk gets
its own seed, derived from the workload seed by ``chunk_seed``.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from lpdist import (
    ConfidenceSet,
    LimitSample,
    LpError,
    AuxVertexEnumerator,
    basic_solution,
    build_min_cost_flow,
    build_ot_2x2,
    check_basis_inclusion,
    contains,
    distance_statistic,
    enumerate_feasible_bases,
    map_region,
    min_norm_point,
    optimal_vertices,
    run_coverage,
    sample_unique_limit,
    selection_basis,
    solve,
    stability_report,
    support,
)
from lpdist.experiments import optimal_face_vertices

# per-layer vocabulary: spans are named <module>.<function>
SPAN_NAMES = (
    "experiments.rhs_sample",
    "problem.with_rhs",
    "simplex.solve",
    "experiments.optimal_face_vertices",
    "experiments.selection_basis",
    "confidence.map_region",
    "problem.basic_solution",
    "geometry.min_norm_point",
    "confidence.contains",
    "limits.AuxVertexEnumerator.init",
    "limits.NoiseSampler.draw",
    "limits.AuxVertexEnumerator.optimal_set",
    "limits.distance_statistic",
    "stability.stability_report",
    "problem.optimal_vertices",
)
MULTI_FRAC = "experiments.optimal_face_vertices.multi_frac"
TIES_FRAC = "limits.AuxVertexEnumerator.optimal_set.ties_frac"
COUNT_NAMES = (MULTI_FRAC, TIES_FRAC)

# An output check accepts a pooled estimate within Z standard errors.
Z = 4.0
# coverage bands per sample size, as in the acceptance tests: at least 0.92
# on the min-cost flow, the reference table's windows on the transport plan
MCF_BANDS = {50: (0.92, 1.0), 500: (0.92, 1.0)}
OT2X2_BANDS = {1: (0.432, 0.528), 10: (0.968, 0.994), 100: (0.896, 0.948),
               10000: (0.929, 0.971)}
# E|W| for the 1-d limit law of the transport instance: 1/sqrt(pi).
MEAN_LIMIT_DISTANCE = 0.5641895835477563


def chunk_seed(workload_seed: int, chunk: int) -> int:
    """64-bit key for chunk ``chunk`` of a run seeded with ``workload_seed``."""
    words = np.random.SeedSequence([workload_seed, chunk]).generate_state(2, np.uint32)
    return int(words[0]) | int(words[1]) << 32


def digest(payload: dict) -> str:
    """sha256 of the payload's canonical JSON; floats go in as ``repr`` strings."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Chunk:
    ops: int  # ops attempted
    failed: int  # ops that raised LpError or failed their own check
    output: tuple  # deterministic; the traced chunk must reproduce it


def _check(name: str, ok: bool, **detail) -> dict:
    return {"check": name, "ok": bool(ok), **detail}


def _rhs_sample(config, seed, n, n_index, replicate, rate):
    # the per-replicate Philox stream of the README's Reproducibility section
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, n_index, replicate]))
    return rng, config.b_sampler.sample(config.truth_b, n, rate, rng)


def traced_replicate(config, seed, n, n_index, replicate, tracer):
    """One ``run_coverage`` replicate: covered or not, ``None`` on ``LpError``."""
    rate = float(n) ** config.rate_exponent
    rng, b_n = tracer.call("experiments.rhs_sample", _rhs_sample,
                           config, seed, n, n_index, replicate, rate)
    try:
        lp_n = tracer.call("problem.with_rhs", config.lp.with_rhs, b_n)
        result = tracer.call("simplex.solve", solve, lp_n)
        candidates = tracer.call("experiments.optimal_face_vertices",
                                 optimal_face_vertices, lp_n, result)
        tracer.count(MULTI_FRAC, len(candidates) > 1)
        _, x_hat = candidates[int(rng.integers(len(candidates)))]
        basis = tracer.call("experiments.selection_basis", selection_basis, config.lp, x_hat)
        mapped = tracer.call("confidence.map_region", map_region,
                             config.lp, basis, config.region)
        cs = ConfidenceSet(center=np.array(x_hat, dtype=float), rate=rate, mapped=mapped)
        anchor = tracer.call("problem.basic_solution", basic_solution, config.lp, basis).x
        projection, _ = tracer.call("geometry.min_norm_point", min_norm_point,
                                    config.targets, anchor)
        inside = [tracer.call("confidence.contains", contains, cs, v)
                  for v in config.targets.vertices]
        return any(inside) or tracer.call("confidence.contains", contains, cs, projection)
    except LpError:
        return None


class Coverage:
    """``run_coverage`` at the instance's own sample sizes; one op is one replicate.

    A chunk runs ``replicates`` replicates per sample size; its output is
    the covered count per sample size.  The pooled coverage at each sample
    size ``n`` must lie in the band ``bands[n]`` widened by ``Z`` standard
    errors on each side.
    """

    min_chunks = 4

    def __init__(self, build, replicates, bands):
        self.build = build
        self.replicates = replicates
        self.bands = bands

    def setup(self):
        return self.build()

    def warmup(self, config, seed):
        run_coverage(replace(config, seed=seed), n_values=config.n_values[:1], replicates=1)

    def run_chunk(self, config, seed) -> Chunk:
        report = run_coverage(replace(config, seed=seed), replicates=self.replicates,
                              keep_log=True)
        failed = sum(1 for rec in report.log if rec.error is not None)
        return Chunk(len(report.log), failed, tuple(row.covered for row in report.rows))

    def trace_chunk(self, config, seed, tracer) -> Chunk:
        covered, failed = [], 0
        for n_index, n in enumerate(config.n_values):
            hits = 0
            for rep in range(self.replicates):
                outcome = tracer.op(traced_replicate, config, seed, n, n_index, rep, tracer)
                failed += outcome is None
                hits += bool(outcome)
            covered.append(hits)
        return Chunk(len(config.n_values) * self.replicates, failed, tuple(covered))

    def checks(self, config, chunks) -> list:
        total = len(chunks) * self.replicates
        out = []
        for i, n in enumerate(config.n_values):
            p = sum(chunk.output[i] for chunk in chunks) / total
            window = Z * math.sqrt(p * (1.0 - p) / total)
            low, high = self.bands[n]
            out.append(_check(f"coverage n={n}", low - window <= p <= high + window,
                              coverage=p, band=[low, high], window=window,
                              replicates=total))
        return out

    def digest_payload(self, config, chunks) -> dict:
        return {"n_values": [int(n) for n in config.n_values],
                "replicates_per_n": len(chunks) * self.replicates,
                "covered": [sum(chunk.output[i] for chunk in chunks)
                            for i in range(len(config.n_values))]}


def _distance_summary(stats) -> tuple:
    bad = sum(1 for s in stats if not (math.isfinite(s) and s >= 0.0))
    return (len(stats), math.fsum(stats), math.fsum(s * s for s in stats), bad)


def _traced_draw(noise, enum, index, tracer):
    g = tracer.call("limits.NoiseSampler.draw", noise.draw, index)
    polytope, value = tracer.call("limits.AuxVertexEnumerator.optimal_set",
                                  enum.optimal_set, g)
    tracer.count(TIES_FRAC, len(polytope) > 1)
    sample = LimitSample(g=g, optimal_set=polytope, objective=value)
    return tracer.call("limits.distance_statistic", distance_statistic, sample)


class Limit:
    """``sample_unique_limit`` on the ot2x2 auxiliary program, then
    ``distance_statistic`` per draw; one op is one limit draw.

    A chunk's output is (draws, fsum, fsum of squares, bad draws); a draw
    is bad unless its statistic is finite and nonnegative.  The pooled mean
    must sit within ``Z`` standard errors of the closed form.
    """

    min_chunks = 4

    def __init__(self, draws):
        self.draws = draws

    def setup(self):
        return build_ot_2x2()

    def _noise(self, config, seed):
        return config.b_sampler.limit_noise(seed, config.lp.k)

    def warmup(self, config, seed):
        for sample in sample_unique_limit(config.lp, config.targets.vertices[0],
                                          self._noise(config, seed), 1):
            distance_statistic(sample)

    def run_chunk(self, config, seed) -> Chunk:
        try:
            samples = sample_unique_limit(config.lp, config.targets.vertices[0],
                                          self._noise(config, seed), self.draws)
        except LpError:
            return Chunk(self.draws, self.draws, ())
        summary = _distance_summary([distance_statistic(s) for s in samples])
        return Chunk(summary[0], summary[3], summary)

    def trace_chunk(self, config, seed, tracer) -> Chunk:
        noise = self._noise(config, seed)
        try:
            enum = tracer.call("limits.AuxVertexEnumerator.init", AuxVertexEnumerator,
                               config.lp.A, config.lp.c, support(config.targets.vertices[0]))
            stats = [tracer.op(_traced_draw, noise, enum, i, tracer)
                     for i in range(self.draws)]
        except LpError:
            return Chunk(self.draws, self.draws, ())
        summary = _distance_summary(stats)
        return Chunk(summary[0], summary[3], summary)

    def _pooled(self, chunks) -> tuple:
        count = sum(chunk.output[0] for chunk in chunks if chunk.output)
        total = math.fsum(chunk.output[1] for chunk in chunks if chunk.output)
        squares = math.fsum(chunk.output[2] for chunk in chunks if chunk.output)
        return count, total, squares

    def checks(self, config, chunks) -> list:
        count, total, squares = self._pooled(chunks)
        if count < 2:
            return [_check("limit mean", False, draws=count)]
        mean = total / count
        var = max(squares / count - mean * mean, 0.0) * count / (count - 1)
        window = Z * math.sqrt(var / count)
        return [_check("limit mean", abs(mean - MEAN_LIMIT_DISTANCE) <= window,
                       mean=mean, reference=MEAN_LIMIT_DISTANCE, window=window, draws=count)]

    def digest_payload(self, config, chunks) -> dict:
        count, total, _ = self._pooled(chunks)
        return {"draws": count, "mean": repr(total / count) if count else None}


STABILITY_FIELDS = ("delta_b0", "delta_b1", "tau", "c1", "c2", "delta_star")


def _perturbed_rhs(lp, delta_star, seed):
    """A seeded rhs at distance strictly inside ``delta_star`` of ``lp.b``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.standard_normal(lp.k)
    u /= np.linalg.norm(u)
    return lp.b + delta_star * rng.uniform(0.05, 0.999) * u


def _certification(report, included) -> Chunk:
    constants = tuple(getattr(report, f) for f in STABILITY_FIELDS)
    ok = math.isfinite(report.delta_star) and report.delta_star > 0 and included
    return Chunk(1, 0 if ok else 1, constants + (bool(included),))


class Stability:
    """``stability_report`` on the mcf program, then basis inclusion at one
    seeded rhs inside ``delta_star``; one op is one certification.

    The Slater point is the mean of the program's feasible basic points.
    An op fails unless ``delta_star`` is finite and positive and every
    optimal basis at the perturbed rhs is optimal at the original one.
    """

    min_chunks = 2

    def setup(self):
        lp = build_min_cost_flow().lp
        points = [basic_solution(lp, basis).x for basis in enumerate_feasible_bases(lp)]
        slater = np.mean(points, axis=0)
        if slater.min() <= 0.0:
            raise ValueError("mean of the feasible basic points is not strictly positive")
        return lp, slater

    def warmup(self, state, seed):
        self.run_chunk(state, seed)

    def run_chunk(self, state, seed) -> Chunk:
        lp, slater = state
        report = stability_report(lp, slater)
        if not (math.isfinite(report.delta_star) and report.delta_star > 0):
            return _certification(report, False)
        included = check_basis_inclusion(lp, _perturbed_rhs(lp, report.delta_star, seed))
        return _certification(report, included)

    def _traced_op(self, state, seed, tracer) -> Chunk:
        lp, slater = state
        report = tracer.call("stability.stability_report", stability_report, lp, slater)
        if not (math.isfinite(report.delta_star) and report.delta_star > 0):
            return _certification(report, False)
        shifted = tracer.call("problem.with_rhs", lp.with_rhs,
                              _perturbed_rhs(lp, report.delta_star, seed))
        _, optimal = tracer.call("problem.optimal_vertices", optimal_vertices, lp)
        _, optimal_shifted = tracer.call("problem.optimal_vertices", optimal_vertices, shifted)
        return _certification(report, set(optimal_shifted) <= set(optimal))

    def trace_chunk(self, state, seed, tracer) -> Chunk:
        return tracer.op(self._traced_op, state, seed, tracer)

    def checks(self, state, chunks) -> list:
        constants = {chunk.output[:-1] for chunk in chunks}
        delta_star = chunks[0].output[STABILITY_FIELDS.index("delta_star")]
        return [
            _check("delta_star finite and positive",
                   math.isfinite(delta_star) and delta_star > 0, delta_star=delta_star),
            _check("basis inclusion at every perturbation",
                   all(chunk.output[-1] for chunk in chunks), certifications=len(chunks)),
            _check("constants identical across ops", len(constants) == 1),
        ]

    def digest_payload(self, state, chunks) -> dict:
        first = chunks[0].output
        payload = {f: repr(v) for f, v in zip(STABILITY_FIELDS, first)}
        payload["included"] = [bool(chunk.output[-1]) for chunk in chunks]
        return payload


WORKLOADS = {
    "coverage-ot2x2": Coverage(build_ot_2x2, 40, OT2X2_BANDS),
    "coverage-mcf": Coverage(build_min_cost_flow, 75, MCF_BANDS),
    "limit-ot2x2": Limit(4000),
    "stability-mcf": Stability(),
}
