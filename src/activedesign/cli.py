"""Command line entry points.

    active-design solve INSTANCE [--format csv|json] [--out FILE]
    active-design geometry INSTANCE [--format csv|json] [--out FILE]
    active-design simulate CONFIG --policy NAME --budget T [--seed S]
                           [--format csv|json] [--out FILE]
    active-design sweep CONFIG [--format csv|json] [--quiet]
    active-design verify [--trials N] [--horizon T] [--seed S]
                         [--format csv|json] [--out FILE]

Exit code 0 on success, 1 on usage or validation errors (bad flags,
malformed files, unknown names, an ``--out`` that is not a file in an
existing directory), 2 when a run fails at execution time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import problem_constants
from .environment import make_env
from .geometry import dual_feasibility, kkt_certificate
from .harness import (
    CONCENTRATION_COLUMNS,
    TRACE_COLUMNS,
    ConfigError,
    InstanceFormatError,
    build_problem,
    check_reference,
    check_runs,
    load_config,
    load_instance,
    run_sweep,
    table_text,
    trace_records,
    verify_concentration,
)
from .policies import POLICY_NAMES, run_episode
from .solver import reference_optimum


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of calling sys.exit."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="active-design", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="compute the optimal design for an instance file")
    p.add_argument("instance", help="path to an instance file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("geometry", help="report the support certificate at the optimum")
    p.add_argument("instance", help="path to an instance file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("simulate", help="run a single episode from a sweep config")
    p.add_argument("config", help="path to a JSON sweep config")
    p.add_argument("--policy", required=True, choices=POLICY_NAMES)
    p.add_argument("--budget", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the trace here instead of stdout")

    p = sub.add_parser("sweep", help="run every configured (policy, budget, seed) episode")
    p.add_argument("config", help="path to a JSON sweep config")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p = sub.add_parser("verify", help="Monte Carlo check of the variance confidence radius")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the report here instead of stdout")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report_text(report: dict, fmt: str) -> str:
    """``report`` as JSON, or as CSV lines: ``key,value`` for each scalar
    in dict order, then ``key,v1 v2 ...`` for each list."""
    if fmt != "csv":
        return table_text(fmt, [], [], report)
    scalars = [f"{k},{v}\n" for k, v in report.items() if not isinstance(v, list)]
    lists = [f"{k},{' '.join(map(str, v))}\n" for k, v in report.items() if isinstance(v, list)]
    return "".join(scalars + lists)


def _cmd_solve(args) -> int:
    problem = load_instance(args.instance)
    weights, value = check_reference(reference_optimum(problem), args.instance)
    consts = problem_constants(problem)
    report = {
        "d": problem.dimension,
        "K": problem.n_arms,
        "square": problem.is_square,
        "optimal_weights": [float(w) for w in np.asarray(weights)],
        "optimal_loss": float(value),
        "det_gram": consts.det_gram,
        "lambda_min": consts.lambda_min,
    }
    if problem.is_square:
        report.update(
            mu=consts.mu,
            eta=consts.eta,
            c_smooth=consts.c_smooth,
            hessian_diag_bound=consts.hessian_diag_bound,
        )
    _emit(_report_text(report, args.format), args.out)
    return 0


def _cmd_geometry(args) -> int:
    problem = load_instance(args.instance)
    weights, _ = check_reference(reference_optimum(problem), args.instance)
    cert = kkt_certificate(problem, weights)
    dual = dual_feasibility(problem, cert)
    report = {
        "certified": bool(cert.certified),
        "level": float(cert.level),
        "active": [int(a) for a in np.flatnonzero(cert.active)],
        "marks": [float(m) for m in cert.marks],
        "weights": [float(w) for w in np.asarray(cert.weights)],
        "dual_value": float(dual.dual_value),
        "primal_value": float(dual.primal_value),
        "duality_gap": float(dual.duality_gap),
        "dual_feasible": bool(dual.feasible),
    }
    _emit(_report_text(report, args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    options = dict(next((o for n, o in config.policies if n == args.policy), {}))
    problem, _ = build_problem(config.instance)
    reference = check_reference(reference_optimum(problem), config.instance)
    check_runs(problem, [(args.policy, options)], [args.budget])
    env = make_env(problem, args.seed)
    trace = run_episode(args.policy, env, args.budget, options=options, reference=reference)
    rows = trace_records(trace)
    payload = {
        "policy": trace.policy,
        "seed": trace.seed,
        "horizon": trace.horizon,
        "final_regret": trace.final_regret,
        "rows": rows,
    }
    _emit(table_text(args.format, TRACE_COLUMNS, rows, payload), args.out)
    print(
        f"{trace.policy} T={trace.horizon} seed={trace.seed} "
        f"final regret {trace.final_regret:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_sweep(config, quiet=args.quiet, fmt=args.format)
    if result.output_dir is not None and not args.quiet:
        print(f"wrote results to {result.output_dir}", file=sys.stderr)
    if result.failures:
        for name, horizon, seed, msg in result.failures:
            print(f"FAILED {name} T={horizon} seed={seed}: {msg}", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    rows = verify_concentration(trials=args.trials, horizon=args.horizon, seed=args.seed)
    ok = all(r["violation_rate"] <= r["bound"] + 3.0 * r["binom_se"] for r in rows)
    _emit(table_text(args.format, CONCENTRATION_COLUMNS, rows), args.out)
    print("coverage ok" if ok else "coverage VIOLATED", file=sys.stderr)
    return 0 if ok else 2


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handlers = {
        "solve": _cmd_solve,
        "geometry": _cmd_geometry,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        out = getattr(args, "out", None)
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            raise ConfigError(f"--out {out!r}: not a file in an existing directory")
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        return handlers[args.command](args)
    except (ConfigError, InstanceFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    raise SystemExit(cli_main())
