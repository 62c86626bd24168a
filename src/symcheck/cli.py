"""Command-line front end: analysis and experiments with JSON reports.

Reports are deterministic for a fixed seed and configuration: keys are
sorted, no timestamps are embedded, and all randomness is seeded, so
rerunning a command reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .exact import MinorsBudgetExceeded
from .groebner import GroebnerBudgetExceeded, MacaulayBudgetExceeded
from .operators import (
    CATALOG_NAMES,
    CatalogBudgetExceeded,
    DiffOp,
    OperatorFormatError,
    OperatorPair,
    catalog,
    load_op,
    op_to_dict,
    save_op,
)
from .analysis import (
    DEFAULT_S_MAX,
    HypothesesNotMet,
    SampleBudgetExceeded,
    SMaxExceeded,
    compute_W,
    construct_L,
    find_witness,
    is_elliptic,
    kernel_inclusion,
    quotient_spec,
    rank_profile,
)
from .numerics import (
    FieldBudgetExceeded,
    GridBudgetExceeded,
    InclusionFails,
    IllConditionedQuotient,
    NyquistViolation,
    ParameterError,
    UnboundedSuspected,
    bb_ratio_experiment,
    counterexample_blowup,
    korn_constant_p2,
    sobolev_ratio_experiment,
)

SCHEMA = "symcheck-report/1"

EXIT_OK = 0
EXIT_HYPOTHESES = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4

MULTIINDEX_NOTE = (
    "multi-index component counts use the enumeration binom(N+k-1, N-1)"
)


def _vector_json(vec):
    return [str(Fraction(c)) for c in vec]


def _witness_json(w) -> dict:
    return {
        "xi": _vector_json(w.xi),
        "v": _vector_json(w.v),
        "residual": _vector_json(w.residual),
        "real": True,
    }


def make_report(command: str, config: dict, operators: dict, results, status: str) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "operators": {
            name: {"name": op.name, "content_hash": op.content_hash()}
            for name, op in operators.items()
        },
        "results": results,
        "status": status,
    }


def emit(report: dict, out_path, summary_lines) -> None:
    for line in summary_lines:
        print(line)
    text = json.dumps(report, sort_keys=True, indent=2, separators=(",", ": "))
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _input_error(message) -> int:
    print(f"input error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _load(path) -> DiffOp:
    try:
        return load_op(path)
    except FileNotFoundError:
        raise OperatorFormatError(f"operator file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise OperatorFormatError(f"cannot read operator file {path}: {exc}")


def _pair(args, config: dict) -> OperatorPair:
    config.update({"calA": str(args.calA), "A": str(args.A)})
    return OperatorPair(calA=_load(args.calA), A=_load(args.A), mode=args.mode)


# ---------------------------------------------------------------------------
# subcommands: each report command returns (config, operators, results,
# status, exit code, summary lines), and main writes the report
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    op = _load(args.op)
    config = {"op": str(args.op), "seed": args.seed}
    profile = rank_profile(op, seed=args.seed)
    ell_R = is_elliptic(op, "R", profile=profile)
    ell_C = is_elliptic(op, "C", profile=profile)
    cancel = compute_W(op, profile=profile, seed=args.seed)
    results = {
        "N": op.N,
        "d": op.d,
        "l": op.l,
        "k": op.k,
        "elliptic_R": ell_R.status,
        "elliptic_R_value": ell_R.value,
        "elliptic_C": ell_C.value,
        "constant_rank_C": profile.constant_rank_C,
        "constant_rank_R": profile.constant_rank_R,
        "generic_rank": profile.generic_rank,
        "r": profile.kernel_dim,
        "cancelling": cancel.cancelling,
        "dim_W": len(cancel.W_basis),
        "W_basis": [_vector_json(w) for w in cancel.W_basis],
        "notes": [MULTIINDEX_NOTE],
    }
    return config, {"op": op}, results, "OK", EXIT_OK, [
        f"operator {op.name}: N={op.N} d={op.d} l={op.l} k={op.k}",
        f"  elliptic over R: {ell_R.value} ({results['elliptic_R']})",
        f"  elliptic over C: {ell_C.value}",
        f"  constant rank over C: {profile.constant_rank_C} (r = {profile.kernel_dim})",
        f"  constant rank over R: {profile.constant_rank_R}",
        f"  cancelling: {cancel.cancelling} (dim W = {len(cancel.W_basis)})",
    ]


def cmd_compare(args):
    config = {"mode": args.mode, "s_max": args.s_max, "seed": args.seed}
    pair = _pair(args, config)
    ops = {"calA": pair.calA, "A": pair.A}
    try:
        verdict = kernel_inclusion(pair)
    except HypothesesNotMet as exc:
        results = {
            "constant_rank_C": False,
            "generic_rank": exc.profile.generic_rank,
            "detail": "the inner operator is not of constant rank over C; "
            "identically vanishing inclusion minors carry no information here",
        }
        return config, ops, results, "HYPOTHESES_NOT_MET", EXIT_HYPOTHESES, [
            "HYPOTHESES_NOT_MET: inner operator lacks complex constant rank"]
    results = {
        "inclusion_holds": verdict.holds,
        "rank": verdict.rank,
        "minors_checked": verdict.minors_checked,
    }
    if verdict.holds:
        try:
            cert = construct_L(pair, args.s_max, verdict=verdict)
        except SMaxExceeded:
            return config, ops, results, "S_MAX_EXCEEDED", EXIT_BUDGET, [
                f"inclusion holds but no factorization up to s = {args.s_max}"]
        qspec = quotient_spec(pair, cert.s)
        results["factorization"] = {
            "s": cert.s, "L": op_to_dict(cert.L), "verified": cert.verified}
        results["quotient"] = {
            "degree_bound": qspec.degree_bound, "dimension": qspec.dimension}
        summary = [
            "kernel inclusion holds",
            f"  factorization certificate: s = {cert.s}, order(L) = {cert.L.k}",
            f"  quotient degree bound {qspec.degree_bound}, dimension {qspec.dimension}",
        ]
    else:
        try:
            w = find_witness(pair, verdict=verdict)
        except SampleBudgetExceeded:
            return config, ops, results, "SAMPLE_BUDGET_EXCEEDED", EXIT_BUDGET, [
                "inclusion fails but witness search exhausted its budget"]
        results["witness"] = _witness_json(w)
        results["counterexample"] = {
            "family": "u_n(x) = Re[v exp(2 pi i n xi.x)]",
            "suggested_modes": [1, 2, 4, 8],
            "suggested_grid": 256,
        }
        summary = [
            "kernel inclusion fails",
            f"  witness xi = {results['witness']['xi']}",
            f"  witness v  = {results['witness']['v']}",
        ]
    return config, ops, results, "OK", EXIT_OK, summary


# Each experiment returns (results, status, summary lines); the pair is None
# for bb, and an experiment adds its own parameters to the config.


def _korn2(args, pair, config):
    value = korn_constant_p2(pair, samples=args.trials, seed=args.seed)
    results = {
        "constant_p2": value,
        "notes": ["certified-by-Parseval reduction at p = 2 only"],
    }
    return results, "OK", [f"korn2 constant estimate: {value:.6f}"]


def _blowup(args, pair, config):
    verdict = kernel_inclusion(pair)
    if verdict.holds:
        return {"inclusion_holds": True}, "OK", [
            "inclusion holds; no counterexample family exists"]
    w = find_witness(pair, verdict=verdict)
    exp = counterexample_blowup(pair, w, modes=(1, 2, 4, 8), n_grid=args.grid, seed=args.seed)
    results = {"witness": _witness_json(w), "experiment": exp.to_dict()}
    return results, "OK", [
        "counterexample blow-up:",
        f"  rhs status: {exp.summary['rhs_status']} (symbolically zero)",
        f"  log-log slope: {exp.summary['loglog_slope']} "
        f"(expected {exp.summary['expected_slope']})",
        f"  Gram rank: {exp.summary['gram_rank']}",
    ]


def _bb(args, pair, config):
    config.update({"k": args.k, "N": args.N})
    exp = bb_ratio_experiment(
        args.k, args.N, trials=args.trials, n_grid=args.grid, seed=args.seed,
    )
    return {"experiment": exp.to_dict()}, "OK", [
        f"bb ratios: max {exp.summary['max_ratio']:.6f}, "
        f"constraint residual {exp.summary['max_constraint_residual']:.2e}",
    ]


def _sobolev(args, pair, config):
    config["p"] = args.p
    exp = sobolev_ratio_experiment(
        pair, args.p, trials=args.trials, n_grid=args.grid,
        seed=args.seed, s_max=args.s_max,
    )
    return {"experiment": exp.to_dict()}, exp.status, [
        f"sobolev ratios: max {exp.summary['max_ratio']:.6f} "
        f"(refined {exp.summary['max_ratio_refined']:.6f}), status {exp.status}",
    ]


# exception -> (report status, exit code, whether str(exc) goes into the
# report's detail and the summary line)
EXPERIMENT_FAILURES = {
    HypothesesNotMet: ("HYPOTHESES_NOT_MET", EXIT_HYPOTHESES, False),
    InclusionFails: ("INCLUSION_FAILS", EXIT_HYPOTHESES, True),
    UnboundedSuspected: ("UNBOUNDED_SUSPECTED", EXIT_HYPOTHESES, True),
    SMaxExceeded: ("S_MAX_EXCEEDED", EXIT_BUDGET, False),
    SampleBudgetExceeded: ("SAMPLE_BUDGET_EXCEEDED", EXIT_BUDGET, False),
    GridBudgetExceeded: ("GRID_BUDGET_EXCEEDED", EXIT_BUDGET, True),
    FieldBudgetExceeded: ("FIELD_BUDGET_EXCEEDED", EXIT_BUDGET, True),
    NyquistViolation: ("NYQUIST_VIOLATION", EXIT_INPUT, True),
    IllConditionedQuotient: ("ILL_CONDITIONED_QUOTIENT", EXIT_INPUT, True),
}


def cmd_experiment(args):
    config = {"kind": args.kind, "seed": args.seed, "grid": args.grid,
              "trials": args.trials, "mode": args.mode, "s_max": args.s_max}
    pair = None if args.kind == "bb" else _pair(args, config)
    ops = {} if pair is None else {"calA": pair.calA, "A": pair.A}
    run = {"korn2": _korn2, "blowup": _blowup, "bb": _bb, "sobolev": _sobolev}[args.kind]
    try:
        results, status, summary = run(args, pair, config)
    except tuple(EXPERIMENT_FAILURES) as exc:
        status, code, detailed = EXPERIMENT_FAILURES[type(exc)]
        results = {"detail": str(exc)} if detailed else {}
        return config, ops, results, status, code, [f"{status}: {exc}" if detailed else status]
    code = EXIT_OK if status in ("OK", "BOUNDED") else EXIT_HYPOTHESES
    return config, ops, results, status, code, summary


def cmd_catalog(args) -> int:
    op = catalog(args.name, args.N, k=args.k)
    if not args.out:
        print(json.dumps(op_to_dict(op), sort_keys=True, indent=2))
        return EXIT_OK
    try:
        save_op(op, args.out)
    except OSError as exc:
        return _input_error(f"cannot write the operator to {args.out}: {exc.strerror}")
    print(f"wrote {op.name} (N={op.N}, d={op.d}, l={op.l}, k={op.k}) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcheck",
        description="Symbolic and numerical checks for constant-coefficient "
        "differential operators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pair=False):
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--out", default=None, help="write the JSON report here")
        if pair:
            p.add_argument("-a", "--calA", required=True,
                           help="inner operator file (right-hand side of the inequality)")
            p.add_argument("-A", required=True, dest="A",
                           help="outer operator file (left-hand side)")
            p.add_argument("--mode", choices=("korn", "sobolev"), default="korn")
            p.add_argument("--s-max", type=int, default=DEFAULT_S_MAX, dest="s_max")

    p = sub.add_parser("analyze", help="classify a single operator")
    p.add_argument("--op", required=True, help="operator file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="kernel inclusion and factorization for a pair")
    common(p, pair=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("experiment", help="run a numerical experiment")
    p.add_argument("kind", choices=("korn2", "blowup", "bb", "sobolev"))
    common(p)
    p.add_argument("-a", "--calA", default=None,
                   help="inner operator file (korn2/blowup/sobolev)")
    p.add_argument("-A", default=None, dest="A", help="outer operator file")
    p.add_argument("--mode", choices=("korn", "sobolev"), default="korn")
    p.add_argument("--s-max", type=int, default=DEFAULT_S_MAX, dest="s_max")
    p.add_argument("--grid", type=int, default=256, help="grid resolution per axis")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--p", type=float, default=1.0, help="exponent for the sobolev kind")
    p.add_argument("--k", type=int, default=1, help="divergence order for the bb kind")
    p.add_argument("--N", type=int, default=2, help="dimension for the bb kind")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("catalog", help="write a built-in operator to a file")
    p.add_argument("name", help=", ".join(CATALOG_NAMES))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.kind != "bb" and not (args.calA and args.A):
        parser.error(f"experiment {args.kind} requires -a and -A operator files")
    try:
        if args.command == "catalog":
            return cmd_catalog(args)
        if getattr(args, "s_max", 0) < 0:
            raise ParameterError(f"--s-max must be at least 0, got {args.s_max}")
        config, ops, results, status, code, summary = args.func(args)
    except (OperatorFormatError, ParameterError) as exc:
        return _input_error(exc)
    except (MacaulayBudgetExceeded, GroebnerBudgetExceeded, CatalogBudgetExceeded,
            MinorsBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    try:
        emit(make_report(args.command, config, ops, results, status), args.out, summary)
    except OSError as exc:
        return _input_error(f"cannot write the report to {args.out}: {exc.strerror}")
    return code


if __name__ == "__main__":
    sys.exit(main())
