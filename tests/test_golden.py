"""Golden output of the coverage harness and the limit-law sampler.

The coverage digest covers every field of every ``run_coverage(...,
keep_log=True)`` record for both built-in experiments at two seeds.  It was
recorded before the solver re-used factorizations across replicates; a
speed-up of the coverage loop must reproduce it exactly, tie-breaking among
optimal vertices included.  It was re-recorded once, when the reported
vertex became a uniform pick over the optimal set in family order, drawn
after the rhs on the replicate's stream: ``covered`` stayed on all 3200
records, while ``basis`` moved on 390 and ``covered_targets`` on 374.

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

The region digest covers ``map_region`` on all 4 transport bases and every
8th min-cost-flow basis, for each built-in's own region, a full-support and
a partial-support ellipsoid, a box and a segment: the ``to_dict()`` JSON,
every ``interval(pos)`` and the ``contains_rows`` mask of 16 seeded
displaced centres per map.  It pins the region images bit for bit.

The limit-statistics digest covers, for every draw of the limit digest's
runs and of a response program whose draws tie about half the time, the
carried ``distance`` (or its absence) and the bits of
``distance_statistic``; both ``run_limit_comparison`` outputs on the
transport instance; and the bytes of both ``lpdist limit-sample`` CSVs.  It
was recorded before the sampler returned its draws as one columnar block,
and pins the statistics that block gives bit for bit.  It was re-recorded
once, when the distance comparison's finite side became the distance from
``x*`` to each draw's optimal set, read from one ``optimal_rows`` block as
the Hausdorff comparison's is, instead of the distance to the simplex's
vertex: only that comparison's ``finite_mean`` moved, from
``0.5645000000000002`` to ``0.5645000000000001``; every per-draw statistic,
both KS distances, both limit means and both CSVs kept their bytes.
"""
import hashlib
import json
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from lpdist import Basis, solve_rows
from lpdist.cli import main
from lpdist.confidence import (
    BoxRegion,
    EllipsoidRegion,
    SegmentFamilyRegion,
    contains_rows,
    map_region,
)
from lpdist.errors import LpError
from lpdist.experiments import (
    build_min_cost_flow,
    build_ot_2x2,
    run_coverage,
    run_limit_comparison,
)
from lpdist.limits import distance_statistic, sample_unique_limit
from lpdist.problem import iter_bases
from test_cli import OT_DATA
from test_iter_bases import PROGRAMS
from test_limit_blocks import LIMIT_CASES

GOLDEN_COVERAGE_LOG = "9d52476840beb5d6a4132dc2d61b8872a6d44c8d5a72433dd0ac96583e1117cb"
GOLDEN_LIMIT_DRAWS = "fb4f8b69545d7f16fc95cf16c550944d214d81acace25ba3428130762ce74ed7"
GOLDEN_SOLVES = "94f3de2768c9c37ac77735f80288af26b1f42e263af0665769f7d4af949a9a66"
GOLDEN_REGIONS = "faa05f4237929fb4f773688447a916aadf84f30c2c5a71919e0aba4b602b1d29"
GOLDEN_LIMIT_STATISTICS = "aefc26008ea10626850dfa4da80b53b06c4c10963c23b0a4c374e27eabcc68b5"
RUNS = ((build_ot_2x2, 300), (build_min_cost_flow, 200))
SEEDS = (0x5EED, 7)
LIMIT_DRAWS = 3000
SOLVE_ROWS = 150
REGION_CENTRES = 16
REGION_RATE = 3.0


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


def limit_statistics_digest() -> str:
    digest = hashlib.sha256()
    config = build_ot_2x2()
    runs = [(config.lp, config.targets.vertices[0], config.b_sampler.limit_noise(seed, config.lp.k))
            for seed in (7, 0x5EED)]
    for lp, x_star, noise in runs + [LIMIT_CASES["half_tied"]()]:
        for sample in sample_unique_limit(lp, x_star, noise, LIMIT_DRAWS):
            carried = b"none" if sample.distance is None else struct.pack("<d", sample.distance)
            digest.update(carried + struct.pack("<d", distance_statistic(sample)))
    for statistic in ("distance", "hausdorff"):
        result = run_limit_comparison(config, 200, 2000, statistic=statistic)
        digest.update(json.dumps(result).encode())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ot.json").write_text(json.dumps(OT_DATA))
        (tmp / "sampler.json").write_text(json.dumps(
            {"kind": "multinomial_clt", "probabilities": [0.5, 0.5], "pad_to": 3}))
        code = main(["limit-sample", "--lp", str(tmp / "ot.json"),
                     "--sampler", str(tmp / "sampler.json"), "--draws", str(LIMIT_DRAWS),
                     "--seed", "3", "--grid-resolution", "8", "--out", str(tmp / "draws.csv"),
                     "--support-out", str(tmp / "support.csv")])
        assert code == 0
        for name in ("draws.csv", "support.csv"):
            digest.update((tmp / name).read_bytes())
    return digest.hexdigest()


def test_limit_statistics_match_golden_digest():
    assert limit_statistics_digest() == GOLDEN_LIMIT_STATISTICS


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


def digest_regions(k: int, rng) -> list:
    """A full-support and a partial-support ellipsoid, a box and a segment
    for a ``k``-row program, their numbers drawn from ``rng``."""
    root = rng.standard_normal((k, k))
    sigma = root @ root.T / k + np.eye(k)
    return [EllipsoidRegion((sigma + sigma.T) / 2.0, 0.9),
            EllipsoidRegion([[2.0, 0.5], [0.5, 1.0]], 0.8, support_indices=(k - 1, 0)),
            BoxRegion(-rng.uniform(0.2, 1.5, k), rng.uniform(0.2, 1.5, k)),
            SegmentFamilyRegion(rng.standard_normal(k), 0.7)]


def displaced_rhs(region, k: int, rng) -> np.ndarray:
    """``REGION_CENTRES`` rhs displacements ``g``: Gaussian rows, rows along
    the region's direction (a random one if it has none), and Gaussian rows
    zero off the region's support (scaled down if it has none)."""
    g = 0.5 * rng.standard_normal((REGION_CENTRES, k))
    direction = getattr(region, "direction", rng.standard_normal(k))
    g[8:12] = rng.uniform(-1.5, 1.5, (4, 1)) * direction
    support = getattr(region, "support_indices", None)
    if support is None:
        g[12:] *= 0.2
    else:
        off = np.ones(k, dtype=bool)
        off[list(support)] = False
        g[12:, off] = 0.0
    return g


def regions_digest() -> str:
    digest = hashlib.sha256()
    for seed, (build, stride) in enumerate(((build_ot_2x2, 1), (build_min_cost_flow, 8))):
        config = build()
        lp = config.lp
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
        regions = [config.region, *digest_regions(lp.k, rng)]
        for cols, _ in list(iter_bases(lp.A))[::stride]:
            off = [j for j in range(lp.m) if j not in cols]
            for region in regions:
                mapped = map_region(lp, Basis(cols), region)
                digest.update(json.dumps(mapped.to_dict()).encode())
                for pos in range(lp.k):
                    digest.update(struct.pack("<2d", *mapped.interval(pos)))
                g = displaced_rhs(region, lp.k, rng)
                y = np.zeros((REGION_CENTRES, lp.m))
                y[:, list(cols)] = np.linalg.solve(lp.A[:, list(cols)], g.T).T
                y[3::8, off[0]] = 1e-3  # leaves the pinned coordinates
                x = rng.standard_normal(lp.m)
                inside = contains_rows(mapped, REGION_RATE, x + y / REGION_RATE, x)
                digest.update(np.asarray(inside, dtype=bool).tobytes())
    return digest.hexdigest()


def test_region_images_match_golden_digest():
    assert regions_digest() == GOLDEN_REGIONS
