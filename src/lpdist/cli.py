"""Command-line interface: solve, stability, limit-sample, confidence,
coverage, limit-compare, and hausdorff subcommands.

Exit codes: 0 success, 1 infeasible/unbounded program, 2 input error.
All numeric output is plain CSV or JSON on stdout (or ``--out`` files).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .confidence import ConfidenceSet, confidence_rows, coordinate_interval, region_from_dict
from .errors import Infeasible, LpError, Unbounded
from .experiments import (
    BUILT_IN,
    DEFAULT_SEED,
    config_from_dict,
    run_coverage,
    run_limit_comparison,
)
from .geometry import SphereGrid, hausdorff, support_function
from .limits import LAWS, sample_unique_limit
from .problem import Polytope, build_kind, load_lp, lp_to_dict, rhs_block
from .simplex import solve, verify_kkt
from .stability import stability_report


def _parse_vector(text: str) -> np.ndarray:
    """Accept '0.5,0.5,0.5' inline or '@path' pointing at a JSON list."""
    if text.startswith("@"):
        return _float_array(_load_json(text[1:]), text[1:])
    return np.array([float(part) for part in text.split(",")], dtype=float)


def _float_array(data, path: str) -> np.ndarray:
    try:
        return np.array(data, dtype=float)
    except TypeError as exc:  # JSON that is not numbers, such as an object
        raise ValueError(f"{path}: {exc}") from exc


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _sanitize(value):
    """JSON-safe conversion; infinities become the 'unconstrained' sentinel."""
    if isinstance(value, float):
        return "unconstrained" if math.isinf(value) else value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _experiment_config(args):
    if args.experiment in BUILT_IN:
        config = BUILT_IN[args.experiment]()
    elif not args.config:
        raise ValueError("--experiment custom requires --config")
    else:
        config = config_from_dict(_load_json(args.config))
    if args.seed is not None:
        config.seed = int(args.seed)
    return config


def cmd_solve(args) -> int:
    lp = load_lp(args.lp)
    if args.emit_lp:
        with open(args.emit_lp, "w") as fh:
            json.dump(lp_to_dict(lp), fh)
    result = solve(lp)
    payload = {
        "x_hat": result.x_hat.tolist(),
        "basis": list(result.basis.indices),
        "objective": result.objective,
        "dual": result.dual.tolist(),
        "slack": result.slack.tolist(),
        "kkt_ok": verify_kkt(lp, result),
    }
    print(json.dumps(payload))
    return 0


def cmd_stability(args) -> int:
    lp = load_lp(args.lp)
    report = stability_report(lp, _parse_vector(args.slater))
    print(json.dumps(_sanitize(asdict(report))))
    return 0


def cmd_limit_sample(args) -> int:
    lp = load_lp(args.lp)
    result = solve(lp)
    sampler = build_kind(LAWS, _load_json(args.sampler), "sampler").limit_noise(args.seed, lp.k)
    samples = sample_unique_limit(lp, result.x_hat, sampler, args.draws,
                                  verify_unique=args.verify_unique)
    lines = ["draw,objective,distance," + ",".join(f"g_{i}" for i in range(lp.k))]
    columns = zip(samples.values, samples.statistic("distance").tolist(), samples.g.tolist())
    for i, (objective, distance, g) in enumerate(columns):
        lines.append(f"{i},{objective},{distance}," + ",".join(map(str, g)))
    _emit("\n".join(lines) + "\n", args.out)
    if args.grid_resolution:
        directions = SphereGrid(lp.m, args.grid_resolution).directions
        alphas = [",".join(str(float(a)) for a in direction.alpha) for direction in directions]
        rows = ["draw,direction,value," + ",".join(f"alpha_{i}" for i in range(lp.m))]
        for i, sample in enumerate(samples):
            for j, (direction, alpha) in enumerate(zip(directions, alphas)):
                value = support_function(sample.optimal_set, direction)
                rows.append(f"{i},{j},{value},{alpha}")
        _emit("\n".join(rows) + "\n", args.support_out)
    return 0


def cmd_confidence(args) -> int:
    lp = load_lp(args.lp)
    b_n = _parse_vector(args.b)
    region = region_from_dict(_load_json(args.region))
    if args.n < 1:
        raise ValueError(f"--n must be positive, not {args.n}")
    rate = float(args.n) ** args.rate_exponent
    centers, _, mapped, errors = confidence_rows(lp, region, rhs_block(lp, [b_n]), np.zeros(1))
    if errors:
        raise errors[0]
    cs = ConfidenceSet(centers[0], rate, mapped[0])
    lines = ["coordinate,lower,upper"]
    for i in range(lp.m):
        lo, hi = coordinate_interval(cs, i)
        lines.append(f"{i},{lo},{hi}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.mapped_out:
        payload = {
            "basis": list(cs.mapped.basis.indices),
            "kind": region.kind,
            "rate": rate,
            "center": cs.center.tolist(),
            **cs.mapped.to_dict(),
        }
        with open(args.mapped_out, "w") as fh:
            json.dump(_sanitize(payload), fh)
    return 0


def cmd_coverage(args) -> int:
    config = _experiment_config(args)
    n_values = ([int(part) for part in args.n_values.split(",")]
                if args.n_values else None)
    report = run_coverage(config, n_values=n_values, replicates=args.replicates)
    lines = ["n,replicates,covered,coverage,std_error,failed"]
    lines += [",".join(map(str, asdict(row).values())) for row in report.rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_limit_compare(args) -> int:
    config = _experiment_config(args)
    outcome = run_limit_comparison(config, args.n, args.draws,
                                   statistic=args.statistic)
    print(json.dumps(_sanitize(outcome)))
    return 0


def _read_polytope(path: str) -> Polytope:
    data = _load_json(path)
    if isinstance(data, dict):
        if "vertices" not in data:
            raise ValueError(f"{path}: polytope JSON object has no 'vertices' key")
        data = data["vertices"]
    return Polytope(_float_array(data, path))


def cmd_hausdorff(args) -> int:
    print(hausdorff(_read_polytope(args.p1), _read_polytope(args.p2)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpdist",
        description="Distributional analysis of linear programs with random rhs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a program and print the certificate")
    p.add_argument("--lp", required=True, help="path to problem JSON {A,b,c}")
    p.add_argument("--emit-lp", help="also write the parsed program back to JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("stability", help="perturbation radii and Lipschitz constants")
    p.add_argument("--lp", required=True)
    p.add_argument("--slater", required=True,
                   help="strictly positive feasible point: '1,2,3' or @file.json")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("limit-sample", help="sample optimal sets of the response LP")
    p.add_argument("--lp", required=True)
    p.add_argument("--sampler", required=True, help="noise sampler spec JSON path")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid-resolution", type=int, default=0,
                   help="if positive, also emit support values on a sphere grid")
    p.add_argument("--verify-unique", action="store_true",
                   help="check by enumeration that the optimum is unique; without "
                        "it the solved vertex is trusted, and at a tied optimum "
                        "each draw reports one vertex of an unbounded response set")
    p.add_argument("--out", help="per-draw CSV path (default stdout)")
    p.add_argument("--support-out", help="per-(draw,direction) CSV path")
    p.set_defaults(func=cmd_limit_sample)

    p = sub.add_parser("confidence", help="confidence set at an observed rhs")
    p.add_argument("--lp", required=True)
    p.add_argument("--region", required=True, help="region spec JSON path")
    p.add_argument("--b", required=True, help="observed rhs: '0.55,0.45,0.5' or @file")
    p.add_argument("--n", type=int, required=True, help="sample size behind the rhs")
    p.add_argument("--rate-exponent", type=float, default=0.5)
    p.add_argument("--mapped-out", help="write the mapped-set description JSON here")
    p.add_argument("--out", help="intervals CSV path (default stdout)")
    p.set_defaults(func=cmd_confidence)

    p = sub.add_parser("coverage", help="Monte Carlo coverage study")
    p.add_argument("--experiment", choices=(*BUILT_IN, "custom"), required=True)
    p.add_argument("--config", help="custom experiment JSON (with --experiment custom)")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--n-values", help="comma-separated sample sizes override")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="report CSV path (default stdout)")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("limit-compare",
                       help="KS distance between finite-sample and limit statistics")
    p.add_argument("--experiment", choices=(*BUILT_IN, "custom"), required=True)
    p.add_argument("--config")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--draws", type=int, default=2000)
    p.add_argument("--statistic", choices=("distance", "hausdorff"), default="distance")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_limit_compare)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between vertex lists")
    p.add_argument("--p1", required=True, help="JSON vertex list")
    p.add_argument("--p2", required=True, help="JSON vertex list")
    p.set_defaults(func=cmd_hausdorff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (Infeasible, Unbounded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LpError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
