"""Golden output of the coverage harness.

The digest covers every field of every ``run_coverage(..., keep_log=True)``
record for both built-in experiments at two seeds.  It was recorded before
the solver re-used factorizations across replicates; a speed-up of the
coverage loop must reproduce it exactly, tie-breaking among face vertices
included.
"""
import hashlib
import json
from dataclasses import replace

from lpdist.experiments import build_min_cost_flow, build_ot_2x2, run_coverage

GOLDEN_COVERAGE_LOG = "63b27fa7cf78376951a33540796a8d775f9d282d553f6797d87c09789f35b4f5"
RUNS = ((build_ot_2x2, 300), (build_min_cost_flow, 200))
SEEDS = (0x5EED, 7)


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
