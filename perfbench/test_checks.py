"""The benchmark's own tests: each check accepts a correct output of the
program and rejects a corrupted one; the tracer counts and restores.

    python3 -m pytest perfbench/test_checks.py -q

Run from the root of the checkout; the program is imported from src/.
"""

import copy
import dataclasses
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from symcheck import MultiPoly, analysis, catalog, grad_power, operators, save_op  # noqa: E402
from workloads import Outcome  # noqa: E402


@pytest.fixture
def ops(tmp_path):
    paths = {}
    for name, op in [("sg2", catalog("sym_gradient", 2)), ("D2", grad_power(1, 2, 2)),
                     ("div2", catalog("divergence", 2)), ("lap2", catalog("laplacian", 2))]:
        paths[name] = tmp_path / f"{name}.json"
        save_op(op, paths[name])
    return paths


def run_cli(tmp_path, argv):
    return workloads.cli_op("test", argv, tmp_path / "out.json", None).run()


def edited(outcome, edit):
    report = json.loads(outcome.report)
    edit(report)
    return Outcome(outcome.code, outcome.stdout, outcome.stderr, json.dumps(report))


def fake(results, status="OK", code=0):
    return Outcome(code, "", "", json.dumps({"status": status, "results": results}))


def test_factorization_rejects_wrong_s_and_tampered_L(tmp_path, ops):
    out = run_cli(tmp_path, ["compare", "-a", str(ops["sg2"]), "-A", str(ops["D2"])])
    checks.check_factorization(out, ops["sg2"], ops["D2"], 1)
    with pytest.raises(CheckFailed, match="s = 1, expected 2"):
        checks.check_factorization(out, ops["sg2"], ops["D2"], 2)

    def wrong_s(r):
        r["results"]["factorization"]["s"] = 2

    with pytest.raises(CheckFailed):
        checks.check_factorization(edited(out, wrong_s), ops["sg2"], ops["D2"])

    def tamper(r):
        r["results"]["factorization"]["L"]["terms"][0]["matrix"][0][0] = "7"

    with pytest.raises(CheckFailed, match="L calA"):
        checks.check_factorization(edited(out, tamper), ops["sg2"], ops["D2"], 1)


def test_witness_rejects_v_outside_the_kernel(tmp_path, ops):
    out = run_cli(tmp_path, ["compare", "-a", str(ops["div2"]), "-A", str(ops["D2"])])
    checks.check_witness(out, ops["div2"], ops["D2"])

    def leak(r):
        w = r["results"]["witness"]
        w["v"] = w["xi"]  # div[xi] xi = |xi|^2 != 0

    with pytest.raises(CheckFailed, match=r"calA\[xi\] v != 0"):
        checks.check_witness(edited(out, leak), ops["div2"], ops["D2"])


def test_korn_constant_off_by_1e5_is_rejected():
    checks.check_korn2(fake({"constant_p2": math.sqrt(2) + 1e-7}))
    with pytest.raises(CheckFailed, match="korn2"):
        checks.check_korn2(fake({"constant_p2": math.sqrt(2) + 1e-5}))


def test_input_error_requires_exit_4_naming_the_field():
    checks.check_input_error(Outcome(4, "", "input error: missing field 'matrix'", ""), "matrix")
    with pytest.raises(CheckFailed, match="exit 1, expected 4"):
        checks.check_input_error(Outcome(1, "", "Traceback ...\nKeyError: 'matrix'", ""),
                                 "matrix")
    with pytest.raises(CheckFailed, match="name the field"):
        checks.check_input_error(Outcome(4, "", "input error: bad file", ""), "terms")


def test_an_escaping_exception_is_a_crash(tmp_path, monkeypatch):
    assert workloads.lib_op("x", lambda: 1 / 0, None).run().crashed

    def boom(argv):
        raise KeyError("matrix")

    monkeypatch.setattr(workloads.cli, "main", boom)
    out = run_cli(tmp_path, ["analyze", "--op", "x.json"])
    assert out.crashed and out.code == 1 and "KeyError" in out.stderr


def test_analyze_rejects_wrong_verdict_and_foreign_W(tmp_path, ops):
    out = run_cli(tmp_path, ["analyze", "--op", str(ops["lap2"])])
    truth = workloads._truth("laplacian", 2)
    checks.check_analyze(out, ops["lap2"], truth, 0)
    with pytest.raises(CheckFailed, match="constant_rank_C"):
        checks.check_analyze(out, ops["lap2"], dict(truth, constant_rank_C=True), 0)
    out = run_cli(tmp_path, ["analyze", "--op", str(ops["sg2"])])
    truth = workloads._truth("sym_gradient", 2)
    checks.check_analyze(out, ops["sg2"], truth, 0)

    def foreign_w(r):
        r["results"]["W_basis"] = [["1", "0", "0"]]
        r["results"]["dim_W"] = 1

    with pytest.raises(CheckFailed, match="not in the image"):
        checks.check_analyze(edited(out, foreign_w), ops["sg2"], truth, 0)


def test_oracle_matches_the_catalog(ops):
    for name, key in [("lap2", ("laplacian", 2)), ("sg2", ("sym_gradient", 2))]:
        truth = workloads._truth(*key)
        oracle = checks.oracle_profile(checks.read_op(ops[name]), 3)
        assert oracle == {k: truth[k] for k in oracle}


def test_certificates_reject_perturbations(ops):
    op = operators.load_op(ops["sg2"])
    ann = analysis.construct_annihilator(op)
    W = analysis.compute_W(op).W_basis
    C = analysis.construct_Cbeta(ann, W, op.l)
    checks.check_annihilator(ann, ops["sg2"], 0)
    checks.check_cbeta((ann, W, C), ops["sg2"], 0)
    beta = next(iter(C))
    bad = dict(C)
    bad[beta] = type(C[beta])([[x + 1 for x in row] for row in C[beta].entries])
    with pytest.raises(CheckFailed, match="P_"):
        checks.check_cbeta((ann, W, bad), ops["sg2"], 0)

    target = checks.apply_to_field(checks.read_op(ops["sg2"]),
                                   [{(2, 1): Fraction(1)}, {(0, 3): Fraction(-2)}])
    pi = [MultiPoly(2, p) for p in target]
    lift = analysis.polynomial_lift(op, pi)
    checks.check_lift(lift, ops["sg2"], target)
    shifted = copy.copy(lift.Pi[0].terms)
    shifted[(1, 1)] = shifted.get((1, 1), 0) + 1
    bad_lift = dataclasses.replace(lift, Pi=(MultiPoly(2, shifted),) + lift.Pi[1:])
    with pytest.raises(CheckFailed, match="A Pi != pi"):
        checks.check_lift(bad_lift, ops["sg2"], target)


def test_refuted_profile_rejects_a_point_off_the_zero_set(tmp_path):
    path = tmp_path / "pencil.json"
    save_op(workloads.random_op(random.Random(1), "p", 3, 1, 2, 2, planted=(1, -2, 1)), path)
    profile = analysis.rank_profile(operators.load_op(path))
    truth = checks.oracle_profile(checks.read_op(path), 1)
    checks.check_refuted_profile(profile, path, truth)
    moved = dataclasses.replace(profile, real_witness=(Fraction(5), 0, 0))
    with pytest.raises(CheckFailed, match="do not all vanish"):
        checks.check_refuted_profile(moved, path, truth)


def test_numerics_checks_reject_off_values(tmp_path, ops):
    out = run_cli(tmp_path, ["experiment", "blowup", "-a", str(ops["div2"]),
                             "-A", str(ops["D2"]), "--grid", "64", "--seed", "0"])
    checks.check_blowup(out, ops["div2"], ops["D2"])

    def steeper(r):
        r["results"]["experiment"]["summary"]["loglog_slope"] += 0.1

    with pytest.raises(CheckFailed, match="slope"):
        checks.check_blowup(edited(out, steeper), ops["div2"], ops["D2"])

    def rank3(r):
        r["results"]["experiment"]["summary"]["gram_rank"] = 3

    with pytest.raises(CheckFailed, match="Gram rank"):
        checks.check_blowup(edited(out, rank3), ops["div2"], ops["D2"])
    bb = {"experiment": {"summary": {"max_constraint_residual": 1e-13},
                         "trials": [{"ratio": 0.1}]}}
    checks.check_bb(fake(bb))
    worse = copy.deepcopy(bb)
    worse["experiment"]["summary"]["max_constraint_residual"] = 1e-11
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_bb(fake(worse))
    nan = copy.deepcopy(bb)
    nan["experiment"]["trials"].append({"ratio": float("nan")})
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_bb(fake(nan))
    checks.check_sobolev(fake({}, status="BOUNDED"))
    with pytest.raises(CheckFailed, match="status UNSTABLE"):
        checks.check_sobolev(fake({}, status="UNSTABLE"))


def test_tracer_counts_layers_and_restores(tmp_path, ops):
    from tracer import Tracer

    original = analysis.rank_profile
    tracer = Tracer()
    tracer.install()
    try:
        assert analysis.rank_profile is not original
        run_cli(tmp_path, ["analyze", "--op", str(ops["sg2"])])
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert analysis.rank_profile is original
    assert metrics["cli.main.calls"] == 1
    assert metrics["analysis.rank_profile.calls"] == 1
    assert metrics["groebner.zero_dim_origin.calls"] >= 1
    assert metrics["operators.symbol.builds"] >= 1
    assert metrics["groebner.basis.builds"] >= metrics["groebner.basis.builds_distinct"] >= 1
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) > 0


def test_tracer_counts_a_matrix_evaluation_as_one_call():
    from symcheck.exact import PolyMatrix
    from tracer import Tracer

    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    matrix = PolyMatrix([[x, y], [y, x], [x, x]])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_window()
        matrix.evaluate([1, 2])
        x.evaluate([1, 2])
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert metrics["exact.evaluate.calls"] == 2
