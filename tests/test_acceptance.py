"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS line when
its assertions hold (run with -s to see the lines as they appear).
"""

import math
import random
import time

import pytest

from symcheck.exact import MultiPoly, ScalarMatrix
from symcheck.groebner import GroebnerBasis, TermOrder, buchberger_ideal, zero_dim_origin
from symcheck.operators import OperatorPair, catalog, compose, grad_power, save_op
from symcheck.analysis import (
    HypothesesNotMet,
    NotInImage,
    compute_W,
    construct_annihilator,
    construct_Cbeta,
    construct_L,
    find_witness,
    is_elliptic,
    kernel_inclusion,
    polynomial_lift,
    rank_profile,
    verify_L_annihilates_W,
)
from symcheck.numerics import bb_ratio_experiment, counterexample_blowup, korn_constant_p2
from symcheck.cli import main
from helpers import catalog_pair_grid, rand_op, rand_point, rand_poly, scalar_zeros


def _pass(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


def full_gradient(N):
    return grad_power(1, N, N)


def test_criterion_01_catalog_classification():
    t0 = time.perf_counter()
    expected = {
        ("gradient", 2): True,
        ("gradient", 3): True,
        ("curl", 3): True,
        ("divergence", 2): True,
        ("divergence", 3): True,
        ("sym_gradient", 2): True,
        ("sym_gradient", 3): True,
        ("laplacian", 2): False,
        ("cauchy_riemann", 2): False,
    }
    for (name, N), want in expected.items():
        assert rank_profile(catalog(name, N)).constant_rank_C is want, (name, N)
    cr = catalog("cauchy_riemann", 2)
    assert is_elliptic(cr, "R").value is True
    assert is_elliptic(cr, "C").value is False
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(1, f"catalog classification exact in {elapsed:.2f}s")


def test_criterion_02_complex_ellipticity_implies_cancellation():
    checked = []
    for name, N in [("gradient", 2), ("gradient", 3), ("curl", 3),
                    ("divergence", 2), ("divergence", 3),
                    ("sym_gradient", 2), ("sym_gradient", 3),
                    ("laplacian", 2), ("cauchy_riemann", 2),
                    ("bilaplacian", 2)]:
        op = catalog(name, N)
        if not is_elliptic(op, "C").value:
            continue
        assert is_elliptic(op, "R").value, name
        rep = compute_W(op)
        assert rep.cancelling and rep.W_basis == (), name
        checked.append(name)
    assert checked  # at least the gradients and symmetric gradients
    rng = random.Random(100)
    found = 0
    while found < 100:
        op = rand_op(rng, N=2, d=rng.randint(1, 2), l=rng.randint(1, 3),
                     k=rng.randint(1, 2))
        if op.l < op.d or not is_elliptic(op, "C").value:
            continue
        assert is_elliptic(op, "R").value
        rep = compute_W(op)
        assert rep.cancelling and rep.W_basis == ()
        found += 1
    _pass(2, f"C-ellipticity implied ellipticity and W = 0 on "
             f"{len(checked)} catalog + 100 random operators")


def test_criterion_03_factorization_equivalence():
    checked = skipped = 0
    for pair in catalog_pair_grid():
        profile = rank_profile(pair.calA, want_real=False)
        if not profile.constant_rank_C:
            with pytest.raises(HypothesesNotMet):
                kernel_inclusion(pair, profile=profile)
            skipped += 1
            continue
        verdict = kernel_inclusion(pair, profile=profile)
        if verdict.holds:
            cert = construct_L(pair, 6)
            assert cert.verified and cert.s <= 6
            lhs = compose(grad_power(cert.s, pair.A.l, pair.A.N), pair.A).symbol()
            rhs = cert.L.symbol() @ pair.calA.symbol()
            assert lhs.entries == rhs.entries
        else:
            w = find_witness(pair, verdict=verdict)
            Ma = pair.calA.symbol().evaluate(list(w.xi))
            Mb = pair.A.symbol().evaluate(list(w.xi))
            assert all(c == 0 for c in Ma.apply(list(w.v)))
            assert any(c != 0 for c in Mb.apply(list(w.v)))
        checked += 1
    rng = random.Random(101)
    random_checked = 0
    while random_checked < 50:
        calA = rand_op(rng, N=2, d=rng.randint(1, 2), l=rng.randint(1, 3), k=1)
        profile = rank_profile(calA, want_real=False)
        if not profile.constant_rank_C:
            continue
        A = rand_op(rng, N=2, d=calA.d, l=rng.randint(1, 3), k=1)
        pair = OperatorPair(calA, A, "korn")
        verdict = kernel_inclusion(pair, profile=profile)
        if verdict.holds:
            cert = construct_L(pair, 6)
            assert cert.verified and cert.s <= 6
        else:
            w = find_witness(pair, verdict=verdict)
            Ma = pair.calA.symbol().evaluate(list(w.xi))
            Mb = pair.A.symbol().evaluate(list(w.xi))
            assert all(c == 0 for c in Ma.apply(list(w.v)))
            assert any(c != 0 for c in Mb.apply(list(w.v)))
        random_checked += 1
    _pass(3, f"factorization equivalence on {checked} catalog pairs "
             f"({skipped} guarded) + {random_checked} random pairs")


def test_criterion_04_korn_constant_p2():
    t0 = time.perf_counter()
    pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
    value = korn_constant_p2(pair, samples=2000, refine_iters=80, seed=0)
    elapsed = time.perf_counter() - t0
    assert abs(value - math.sqrt(2)) <= 1e-6
    assert elapsed < 60.0
    _pass(4, f"korn2 constant {value:.8f} (target sqrt(2)) in {elapsed:.1f}s")


def test_criterion_05_counterexample_blowup():
    pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
    w = find_witness(pair)
    rep = counterexample_blowup(pair, w, modes=(1, 2, 4, 8), n_grid=256, seed=0)
    assert all(t["rhs_l2"] == 0.0 for t in rep.trials)
    assert all(t["ratio"] == "INFINITE_RATIO" for t in rep.trials)
    slope = rep.summary["loglog_slope"]
    assert abs(slope - 1.0) <= 0.05
    assert rep.summary["gram_rank"] == 4
    _pass(5, f"blow-up slope {slope:.4f}, Gram rank 4, rhs symbolically zero")


def test_criterion_06_constant_rank_guard():
    pair = OperatorPair(catalog("bilaplacian", 2), catalog("d2_laplacian", 2), "korn")
    profile = rank_profile(pair.calA, want_real=False)
    assert profile.constant_rank_C is False
    with pytest.raises(HypothesesNotMet):
        kernel_inclusion(pair, profile=profile)
    # the raw inclusion minors are all zero, which is exactly why the guard
    # must fire instead of claiming a certificate
    from symcheck.analysis import _stacked_symbol

    stacked = _stacked_symbol(pair)
    rho = profile.generic_rank
    if rho + 1 <= min(stacked.rows, stacked.cols):
        assert all(m.is_zero for m in stacked.minors(rho + 1))
    _pass(6, "bilaplacian pair rejected with HYPOTHESES_NOT_MET")


def test_criterion_07_annihilator_suite():
    rng = random.Random(102)
    for name, N in [("gradient", 2), ("gradient", 3), ("sym_gradient", 2)]:
        op = catalog(name, N)
        ann = construct_annihilator(op)
        assert ann.op is not None, name
        prod = ann.op.symbol() @ op.symbol()
        assert all(p.is_zero for row in prod.entries for p in row), name
        sym, asym = op.symbol(), ann.op.symbol()
        for _ in range(100):
            xi = rand_point(rng, N)
            M, B = sym.evaluate(list(xi)), asym.evaluate(list(xi))
            image = M.column_space_basis()
            kernel = B.kernel_basis()
            assert len(image) == len(kernel), name
            combined = ScalarMatrix.from_columns(
                [list(v) for v in image] + [list(v) for v in kernel]
            )
            assert combined.rank() == len(image), name
    _pass(7, "annihilators exact for gradient(2), gradient(3), sym_gradient(2); "
             "kernel = image at 100 random points each")


def test_criterion_08_claims():
    for name in ("gradient", "sym_gradient"):
        op = catalog(name, 2)
        ann = construct_annihilator(op)
        rep = compute_W(op)
        cb = construct_Cbeta(ann, rep.W_basis, op.l)
        acc = scalar_zeros(op.l, op.l)
        for beta, C in cb.items():
            acc = acc + (C @ ScalarMatrix(ann.op.terms[beta]))
        assert acc == rep.P_Wperp, name
    annihilation_checked = 0
    for pair in catalog_pair_grid():
        profile = rank_profile(pair.calA, want_real=False)
        if not profile.constant_rank_C:
            continue
        if not kernel_inclusion(pair, profile=profile).holds:
            continue
        cert = construct_L(pair, 6)
        if cert.s < 1:
            continue
        W = compute_W(pair.calA, profile=profile).W_basis
        result = verify_L_annihilates_W(cert.L, W, cert.s)
        assert result.holds and result.s_precondition_met
        annihilation_checked += 1
    assert annihilation_checked >= 1
    _pass(8, f"projection identity exact; L[xi]w = 0 verified on "
             f"{annihilation_checked} certificates with s >= 1")


def test_criterion_09_polynomial_lifts():
    rng = random.Random(103)
    pool = [catalog("gradient", 2), catalog("divergence", 2),
            catalog("sym_gradient", 2), catalog("divergence", 3),
            catalog("laplacian", 2)]
    done = 0
    while done < 100:
        A = pool[done % len(pool)] if done % 2 else rand_op(rng, N=2, k=1)
        Pi = [rand_poly(rng, A.N, max_deg=3) for _ in range(A.d)]
        pi = A.apply_to_poly(Pi)
        deg_pi = max((p.degree() for p in pi if not p.is_zero), default=0)
        if deg_pi > 3:
            continue
        lift = polynomial_lift(A, pi)
        assert A.apply_to_poly(list(lift.Pi)) == list(pi)
        deg_lift = max((p.degree() for p in lift.Pi if not p.is_zero), default=0)
        assert deg_lift <= deg_pi + A.k
        done += 1
    g = catalog("gradient", 2)
    with pytest.raises(NotInImage):
        polynomial_lift(g, [MultiPoly.monomial(2, (0, 1)), MultiPoly.zero(2)])
    _pass(9, "100 random feasible lifts exact; infeasible target rejected")


def test_criterion_10_bb_stability():
    maxima = []
    for seed in range(5):
        rep = bb_ratio_experiment(1, 2, trials=1000, n_grid=32, seed=seed)
        assert all(math.isfinite(t["ratio"]) for t in rep.trials)
        assert rep.summary["max_constraint_residual"] <= 1e-12
        maxima.append(rep.summary["max_ratio"])
    assert max(maxima) / min(maxima) < 2.0
    _pass(10, f"bb maxima across 5 seeds in [{min(maxima):.4f}, {max(maxima):.4f}], "
              f"spread factor {max(maxima)/min(maxima):.2f}")


def test_criterion_11_groebner_engine():
    xi1 = MultiPoly.monomial(2, (1, 0))
    xi2 = MultiPoly.monomial(2, (0, 1))
    assert zero_dim_origin([xi1 * xi1, xi2 * xi2]) is True
    assert zero_dim_origin([xi1 * xi2]) is False
    assert zero_dim_origin([xi1 * xi1 + xi2 * xi2]) is False
    verified = 0
    for name, N in [("gradient", 2), ("sym_gradient", 2), ("curl", 3),
                    ("cauchy_riemann", 2)]:
        sym = catalog(name, N).symbol()
        rows = [tuple(r) for r in sym.entries if any(not p.is_zero for p in r)]
        G = GroebnerBasis(rows, TermOrder("grevlex"))
        assert G.verify()
        verified += 1
    rng = random.Random(104)
    from helpers import rand_homogeneous

    for _ in range(10):
        gens = [rand_homogeneous(rng, 2, rng.randint(1, 3)) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        assert buchberger_ideal(gens).verify()
        verified += 1
    _pass(11, f"{verified} bases passed exhaustive S-pair checks; "
              f"zero_dim_origin fixed suite exact")


def test_criterion_12_deterministic_reports(tmp_path):
    ops = tmp_path / "ops"
    ops.mkdir()
    save_op(catalog("gradient", 2), ops / "g.json")
    save_op(catalog("sym_gradient", 2), ops / "sg.json")
    save_op(full_gradient(2), ops / "fg.json")
    commands = [
        ["analyze", "--op", str(ops / "g.json"), "--seed", "5"],
        ["compare", "-a", str(ops / "sg.json"), "-A", str(ops / "fg.json"),
         "--mode", "korn", "--seed", "5"],
        ["experiment", "bb", "--k", "1", "--N", "2", "--trials", "100",
         "--grid", "32", "--seed", "5"],
        ["experiment", "korn2", "-a", str(ops / "sg.json"),
         "-A", str(ops / "fg.json"), "--trials", "200", "--seed", "5"],
    ]
    for i, cmd in enumerate(commands):
        a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), cmd
    _pass(12, f"{len(commands)} commands reran byte-identically")
