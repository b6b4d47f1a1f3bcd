"""Golden output of the coverage harness and the limit-law sampler.

The coverage digest covers every field of every ``run_coverage(...,
keep_log=True)`` record for both built-in experiments at two seeds.  It was
recorded before the solver re-used factorizations across replicates; a
speed-up of the coverage loop must reproduce it exactly, tie-breaking among
face vertices included.

The limit digest covers the noise, the optimal value and the optimal vertex
set of every ``sample_unique_limit`` draw on the transport instance at two
seeds; 3000 draws cross the boundaries of the sampler's blocks and of its
Philox streams.  It was re-recorded when the basis family began to solve
through its stack of inverses instead of ``getrs`` (only signed zeros
moved), and again when the draws moved from one Philox stream per draw, at
counter ``[0, 0, 0, i]``, to one stream per 1024 draws, at counter
``[0, 0, 1, i // 1024]``: every draw's noise changed, and with it every
sample.

The solve digest covers every ``solve_rows`` result on the 22 programs of
``test_iter_bases.PROGRAMS`` (both built-ins among them), each at a seeded
block of mixed-sign right-hand sides: the basis, the bytes of ``x_hat``,
``dual`` and ``slack`` and the objective's repr, or the error's type and
message.  It pins the simplex bit for bit, phase one's sign handling and
artificial evictions included.
"""
import hashlib
import json
import struct
from dataclasses import replace

import numpy as np

from lpdist import solve_rows
from lpdist.errors import LpError
from lpdist.experiments import build_min_cost_flow, build_ot_2x2, run_coverage
from lpdist.limits import sample_unique_limit
from test_iter_bases import PROGRAMS

GOLDEN_COVERAGE_LOG = "63b27fa7cf78376951a33540796a8d775f9d282d553f6797d87c09789f35b4f5"
GOLDEN_LIMIT_DRAWS = "fb4f8b69545d7f16fc95cf16c550944d214d81acace25ba3428130762ce74ed7"
GOLDEN_SOLVES = "94f3de2768c9c37ac77735f80288af26b1f42e263af0665769f7d4af949a9a66"
RUNS = ((build_ot_2x2, 300), (build_min_cost_flow, 200))
SEEDS = (0x5EED, 7)
LIMIT_DRAWS = 3000
SOLVE_ROWS = 150


def coverage_log_digest() -> str:
    records = []
    for build, replicates in RUNS:
        config = build()
        for seed in SEEDS:
            report = run_coverage(replace(config, seed=seed), replicates=replicates,
                                  keep_log=True)
            records.extend([rec.n, rec.replicate, rec.covered, list(rec.covered_targets),
                            list(rec.basis), rec.error] for rec in report.log)
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_coverage_log_matches_golden_digest():
    assert coverage_log_digest() == GOLDEN_COVERAGE_LOG


def limit_draws_digest() -> str:
    digest = hashlib.sha256()
    config = build_ot_2x2()
    for seed in (7, 0x5EED):
        noise = config.b_sampler.limit_noise(seed, config.lp.k)
        for sample in sample_unique_limit(config.lp, config.targets.vertices[0], noise,
                                          LIMIT_DRAWS):
            vertices = np.ascontiguousarray(sample.optimal_set.vertices, dtype=float)
            digest.update(np.ascontiguousarray(sample.g, dtype=float).tobytes())
            digest.update(struct.pack("<d", sample.objective))
            digest.update(struct.pack("<2q", *vertices.shape))
            digest.update(vertices.tobytes())
    return digest.hexdigest()


def test_limit_draws_match_golden_digest():
    assert limit_draws_digest() == GOLDEN_LIMIT_DRAWS


def solve_rows_block(lp, seed: int) -> np.ndarray:
    """``SOLVE_ROWS`` right-hand sides for ``lp``: a third near ``lp.b``, the
    rest Gaussian scaled by ``1 + max|b|``, and every 7th row rounded to
    integers, so that zero entries and ties occur."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
    scale = 1.0 + np.abs(lp.b).max()
    rows = scale * rng.standard_normal((SOLVE_ROWS, lp.k))
    near_b = SOLVE_ROWS // 3
    rows[:near_b] = lp.b + 0.05 * rows[:near_b]
    rows[::7] = np.round(rows[::7])
    return rows


def solves_digest() -> str:
    digest = hashlib.sha256()
    for seed, (lp, _) in enumerate(PROGRAMS):
        for result in solve_rows(lp, solve_rows_block(lp, seed)):
            if isinstance(result, LpError):
                digest.update(f"{type(result).__name__}: {result}".encode())
                continue
            digest.update(np.asarray(result.basis.indices, dtype=np.int64).tobytes())
            for arr in (result.x_hat, result.dual, result.slack):
                digest.update(arr.tobytes())
            digest.update(repr(result.objective).encode())
    return digest.hexdigest()


def test_solves_match_golden_digest():
    assert solves_digest() == GOLDEN_SOLVES
