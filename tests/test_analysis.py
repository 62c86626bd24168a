import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from symcheck.exact import MultiPoly, PolyMatrix, ScalarMatrix, monomials_of_degree
from symcheck.cli import main
from symcheck.analysis import (
    DegenerateCharpoly,
    ProjectionInfeasible,
    _real_constant_rank,
    _sample_points,
    _shell,
    CERTIFIED_NO,
    CERTIFIED_YES,
    REAL_SAMPLE_BUDGET,
    SAMPLE_BLOCK,
    UNCERTIFIED_YES,
    HypothesesNotMet,
    InclusionVerdict,
    NotInImage,
    SampleBudgetExceeded,
    compute_W,
    construct_annihilator,
    construct_Cbeta,
    construct_L,
    find_witness,
    generic_rank,
    is_elliptic,
    kernel_inclusion,
    polynomial_lift,
    quotient_spec,
    rank_profile,
    verify_L_annihilates_W,
)
from symcheck.operators import (
    CATALOG_NAMES,
    DiffOp,
    OperatorFormatError,
    OperatorPair,
    catalog,
    compose,
    from_symbol,
    grad_power,
    save_op,
)
from helpers import (
    count_eliminations,
    grid_hiding_pair,
    rand_fraction,
    rand_op,
    rand_pencil,
    rand_point,
    rand_poly,
    reference_construct_Cbeta,
    reference_is_elliptic,
    reference_random_points,
    reference_real_constant_rank,
    reference_sphere_like_grid,
    scalar_zeros,
)


def full_gradient(N):
    return grad_power(1, N, N)


def shells(N, radius):
    """The shells of max-norm 1 to radius, in order: the grid find_witness
    walks."""
    return itertools.chain.from_iterable(_shell(N, s) for s in range(1, radius + 1))


class TestSphereLikeGrid:
    def test_order_matches_the_shells(self):
        expected = [
            p
            for shell in (1, 2)
            for p in itertools.product(range(-shell, shell + 1), repeat=2)
            if max(map(abs, p)) == shell
        ]
        assert list(shells(2, 2)) == expected

    def test_shells_match_the_reference(self):
        # each shell walked directly: the points of the full product walk,
        # in its order
        for N in range(1, 6):
            for radius in range(1, 4):
                assert list(shells(N, radius)) == list(
                    reference_sphere_like_grid(N, radius)), (N, radius)
        for N, s in ((1, 4), (2, 5), (3, 4)):
            assert list(_shell(N, s)) == [p for p in reference_sphere_like_grid(N, s)
                                          if max(map(abs, p)) == s]

    def test_first_points_come_without_building_the_grid(self):
        # 3^40 - 1 points in all: only a lazy shell can hand out its first few
        first = list(itertools.islice(_shell(40, 1), 4))
        assert len(first) == 4
        assert all(max(map(abs, p)) == 1 and len(p) == 40 for p in first)


class TestSamplePoints:
    @pytest.mark.parametrize("N", [1, 2, 3, 40])
    @pytest.mark.parametrize("radius", [1, 20, 50])
    def test_random_rows_are_the_randint_stream(self, N, radius):
        # read from Mersenne Twister words a block at a time, the points are
        # those of the randint loop, in its order, over several blocks; a
        # Python whose randint draws otherwise fails here
        count = 2 * SAMPLE_BLOCK + 5
        for seed in (0, 7, 2 ** 40 + 3):
            rows, blocks = [], 0
            for block in _sample_points(random.Random(seed), N, 0, radius):
                assert block.dtype == np.int64 and block.shape[1:] == (N,)
                rows += map(tuple, block.tolist())
                blocks += 1
                if len(rows) >= count:
                    break
            assert blocks >= 3
            assert rows[:count] == reference_random_points(seed, N, radius, count), (
                f"random.randint no longer draws as the sampler assumes (seed {seed})")

    def test_grid_comes_first_a_shell_at_most_per_block(self):
        blocks = _sample_points(random.Random(0), 3, 3, 50)
        grid = [next(blocks) for _ in range(3)]  # 26, 98 and 218 points
        assert [set(np.abs(b).max(axis=1).tolist()) for b in grid] == [{1}, {2}, {3}]
        assert [tuple(p) for b in grid for p in b.tolist()] == list(
            reference_sphere_like_grid(3, 3))
        assert list(map(tuple, next(blocks).tolist()[:3])) == reference_random_points(0, 3, 50, 3)
        # a shell of more than SAMPLE_BLOCK points is split: 3^8 - 1 in shell 1
        sizes = [len(b) for b in itertools.islice(_sample_points(random.Random(0), 8, 1, 50), 4)]
        assert sizes == [SAMPLE_BLOCK] * 3 + [3 ** 8 - 1 - 3 * SAMPLE_BLOCK]


class TestRankProfile:
    def test_catalog_constant_rank(self):
        expectations = {
            ("gradient", 2): True,
            ("divergence", 2): True,
            ("curl", 3): True,
            ("sym_gradient", 2): True,
            ("laplacian", 2): False,
            ("cauchy_riemann", 2): False,
        }
        for (name, N), expected in expectations.items():
            prof = rank_profile(catalog(name, N))
            assert prof.constant_rank_C is expected, name

    def test_complex_constant_rank_implies_certified_real(self):
        # real matrices have equal real and complex nullity, so the complex
        # certificate carries over to the real frequencies
        rng = random.Random(40)
        found = 0
        while found < 10:
            op = rand_op(rng)
            prof = rank_profile(op)
            if prof.constant_rank_C:
                assert prof.constant_rank_R == CERTIFIED_YES
                found += 1
            else:
                assert prof.constant_rank_R in (CERTIFIED_NO, UNCERTIFIED_YES)

    def test_real_rank_drop_is_found(self):
        # divergence-like operator that drops rank on a real hyperplane:
        # symbol (xi_1, 0) has rank 1 generically, 0 at xi = (0, 1)
        op = catalog("divergence", 2)
        prof = rank_profile(op)
        assert prof.constant_rank_C
        # the full gradient stacked on a degenerate row instead:
        from symcheck.operators import DiffOp

        deg = DiffOp("deg", 2, 1, 1, 1, {(1, 0): [[Fraction(1)]]})
        prof2 = rank_profile(deg)
        assert prof2.constant_rank_C is False
        assert prof2.constant_rank_R == CERTIFIED_NO
        assert prof2.real_witness is not None


class TestGenericRank:
    def test_climb_from_a_rank_drop_at_the_start_point(self, monkeypatch):
        # diag(xi1 - xi2, xi1 - xi2, 0) vanishes at the start point (7/4, 7/4),
        # so the climb starts at rank 0 and must stop below the zero 3-minor
        a = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
        terms = {e: [[c if i == j < 2 else 0 for j in range(3)] for i in range(3)]
                 for e, c in a.items()}
        sym = DiffOp("diagonal", 2, 3, 3, 1, terms).symbol()
        points = []
        evaluate = PolyMatrix.evaluate
        monkeypatch.setattr(
            PolyMatrix, "evaluate", lambda m, x: points.append(x) or evaluate(m, x))
        rho = generic_rank(sym)
        monkeypatch.undo()
        assert [sym.evaluate(x).rank() for x in points] == [0]
        largest = max(r for r in range(1, 4) if any(not m.is_zero for m in sym.minors(r)))
        assert rho == largest == 2


class TestEllipticity:
    def test_catalog(self):
        assert is_elliptic(catalog("gradient", 2), "C").value is True
        assert is_elliptic(catalog("gradient", 2), "R").value is True
        assert is_elliptic(catalog("divergence", 2), "C").value is False
        cr = catalog("cauchy_riemann", 2)
        assert is_elliptic(cr, "C").value is False
        vr = is_elliptic(cr, "R")
        assert vr.value is True and vr.status == UNCERTIFIED_YES
        lap = catalog("laplacian", 2)
        assert is_elliptic(lap, "C").value is False
        assert is_elliptic(lap, "R").value is True

    def test_elliptic_C_implies_elliptic_R(self):
        rng = random.Random(41)
        found = 0
        while found < 15:
            op = rand_op(rng, l=rng.randint(2, 3), d=rng.randint(1, 2))
            if is_elliptic(op, "C").value:
                assert is_elliptic(op, "R").value
                found += 1

    def test_wide_symbol_never_elliptic(self):
        op = catalog("divergence", 3)
        v = is_elliptic(op, "R")
        assert v.value is False and v.witness is not None


def _catalog_ops():
    for N in (2, 3):
        for name in CATALOG_NAMES:
            try:
                yield catalog(name, N, k=2)
            except OperatorFormatError:
                pass


def _rational_op(rng, N, d, l, k):
    terms = {
        alpha: [[rand_fraction(rng, 5) for _ in range(d)] for _ in range(l)]
        for alpha in monomials_of_degree(N, k)
    }
    return DiffOp("rational", N, d, l, k, terms)


def _differential_ops():
    """Operators covering every branch of the ellipticity decision."""
    ops = list(_catalog_ops())
    rng = random.Random(19)
    ops += [rand_op(rng, N=2, d=2, l=1) for _ in range(2)]  # l < d
    for _ in range(2):
        # rho < d <= l: the second column is a multiple of the first
        base = rand_op(rng, N=2, d=1, l=rng.randint(2, 3))
        c = rand_fraction(rng)
        terms = {a: [[row[0], c * row[0]] for row in m] for a, m in base.terms.items()}
        ops.append(DiffOp("rank-deficient", 2, 2, base.l, base.k, terms))
    # non-integer rational coefficients: generic, scalar binary quadrics
    # (complex zeros, mostly no real rational one) and a product of linear
    # forms with the rational zero (3, -2) in the grid
    ops += [_rational_op(rng, 2, 1, 1, 2) for _ in range(2)]
    ops += [_rational_op(rng, 3, 2, 3, 1)]
    a, b = Fraction(2, 3), Fraction(5, 7)
    product = {(2, 0): a * b, (1, 1): a * Fraction(3, 2) + b, (0, 2): Fraction(3, 2)}
    ops.append(DiffOp("product", 2, 1, 1, 2, {e: [[c]] for e, c in product.items()}))
    for N in (2, 3):
        ops.append(rand_pencil(rng, N, definite=True))
        ops.append(rand_pencil(rng, N, planted=(1, -2, 3)[:N]))
        ops.append(rand_pencil(rng, N, planted=(0, 3, 2)[:N]))
    # a real zero off the radius-3 grid, found among the random points
    ops.append(rand_pencil(rng, 2, planted=(7, -11)))
    return ops


DIFFERENTIAL_OPS = _differential_ops()


class TestEllipticFromProfile:
    """The profile-based decision and the integer sampling against the
    reference implementations in helpers.py."""

    @pytest.mark.parametrize("op", DIFFERENTIAL_OPS, ids=lambda op: op.name)
    def test_is_elliptic_matches_the_reference(self, op):
        seed = 5 if op.name == "pencil" else 0
        profile = rank_profile(op, seed=seed)
        for fld in ("R", "C"):
            expected = reference_is_elliptic(op, fld, seed=seed)
            assert is_elliptic(op, fld, seed=seed) == expected
            assert is_elliptic(op, fld, profile=profile) == expected

    @pytest.mark.parametrize("op", DIFFERENTIAL_OPS, ids=lambda op: op.name)
    def test_real_constant_rank_matches_the_reference(self, op):
        sym = op.symbol()
        rho = rank_profile(op, want_real=False).generic_rank
        minors = [m for m in sym.minors(rho) if not m.is_zero]
        grid = 7 ** op.N - 1  # the radius-3 grid; 5000 points reach the third random block
        for budget in (0, 1, 60, grid, grid + 1, 400, 5000):
            for seed in (0, 3):
                assert _real_constant_rank(sym, minors, budget, seed) == (
                    reference_real_constant_rank(minors, op.N, budget, seed)
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_high_powers_do_not_wrap(self, seed):
        # xi_1^16 + xi_2^16 has no real zero but 16^16 = 2^64: in wrapping
        # int64 it would "vanish" at (+-16, 0), (0, +-32), (+-48, 0), ...
        op = DiffOp("xi_1^16 + xi_2^16", 2, 1, 1, 16, {(16, 0): [[1]], (0, 16): [[1]]})
        profile = rank_profile(op, seed=seed)
        assert profile.constant_rank_R == UNCERTIFIED_YES and profile.real_witness is None
        minors = op.symbol().minors(1)
        assert reference_real_constant_rank(minors, 2, REAL_SAMPLE_BUDGET, seed) == (
            UNCERTIFIED_YES, None)

    def test_witness_in_a_later_random_block(self):
        # the only points of the planted line within radius 50 are +-(13, -29):
        # seed 0 meets (13, -29) as point 4121, seed 2 as point 9712, both
        # after the 48 grid points and a random block or more
        op = rand_pencil(random.Random(0), 2, planted=(13, -29))
        sym = op.symbol()
        minors = sym.minors(1)
        for seed, first in ((0, 4121), (2, 9712)):
            for budget in (first - 1, first, REAL_SAMPLE_BUDGET):
                expected = reference_real_constant_rank(minors, 2, budget, seed)
                assert _real_constant_rank(sym, minors, budget, seed) == expected
                assert expected == ((CERTIFIED_NO, (13, -29)) if budget >= first
                                    else (UNCERTIFIED_YES, None))

    def test_witness_is_a_real_rank_drop(self):
        op = rand_pencil(random.Random(2), 3, planted=(2, -1, 3))
        status, witness = _real_constant_rank(
            op.symbol(), op.symbol().minors(1), 10_000, 0
        )
        assert status == CERTIFIED_NO
        assert all(isinstance(c, Fraction) for c in witness)
        assert not op.symbol().evaluate(witness).rank()


class TestKernelInclusion:
    def test_sym_gradient_controls_the_full_gradient(self):
        pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
        assert kernel_inclusion(pair).holds

    def test_divergence_does_not_control_the_gradient(self):
        pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
        v = kernel_inclusion(pair)
        assert not v.holds and v.failing_minor is not None

    def test_guard_without_constant_rank(self):
        pair = OperatorPair(
            catalog("bilaplacian", 2), catalog("d2_laplacian", 2), "korn"
        )
        with pytest.raises(HypothesesNotMet):
            kernel_inclusion(pair)

    def test_holds_verdict_is_pointwise_sound(self):
        # the verdict is about complex xi: check it at Gaussian-rational
        # points, the isotropic (1, i) among them, with sympy's exact I
        sympy = pytest.importorskip("sympy")
        rng = random.Random(42)

        def rational():
            c = rand_fraction(rng)
            return sympy.Rational(c.numerator, c.denominator)

        def at(sym, x):
            return sympy.Matrix([[sympy.expand(sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(xj ** e for xj, e in zip(x, exp)))
                for exp, c in p.terms.items())) for p in row] for row in sym.entries])

        # curl(3) has the kernel span(xi) at every complex xi != 0, and the
        # sum of its first two rows vanishes there too
        curl = catalog("curl", 3)
        row_sum = DiffOp("curl rows 1 + 2", 3, 3, 1, 1, {
            a: [[m[0][j] + m[1][j] for j in range(3)]] for a, m in curl.terms.items()})
        for pair in (OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn"),
                     OperatorPair(curl, row_sum, "korn")):
            assert kernel_inclusion(pair).holds
            N = pair.calA.N
            isotropic = (sympy.Integer(1), sympy.I) + (sympy.Integer(0),) * (N - 2)
            points = [isotropic] + [
                tuple(rational() + sympy.I * rational() for _ in range(N))
                for _ in range(30)]
            points = [x for x in points if any(x)]
            kernels = 0
            for x in points:
                Ma, Mb = at(pair.calA.symbol(), x), at(pair.A.symbol(), x)
                for v in Ma.nullspace():
                    kernels += 1
                    assert all(sympy.expand(c) == 0 for c in Mb * v)
            # sym_gradient is elliptic over C; curl has one kernel vector
            assert kernels == (0 if N == 2 else len(points))

    def test_witness_is_exact(self):
        pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
        w = find_witness(pair)
        Ma = pair.calA.symbol().evaluate(list(w.xi))
        Mb = pair.A.symbol().evaluate(list(w.xi))
        assert all(c == 0 for c in Ma.apply(list(w.v)))
        assert any(c != 0 for c in Mb.apply(list(w.v)))

    def test_witness_off_the_radius_3_grid_is_real(self):
        # the failing minor (degree 16) vanishes on all 48 points of the
        # radius-3 grid; the grid of radius 8 holds a real witness
        calA, A = grid_hiding_pair()
        pair = OperatorPair(calA, A, "korn")
        verdict = kernel_inclusion(pair)
        assert not verdict.holds and verdict.failing_minor.degree() == 16
        assert all(verdict.failing_minor.evaluate(p) == 0
                   for p in reference_sphere_like_grid(2, 3))
        w = find_witness(pair, verdict=verdict)
        assert all(type(c) is Fraction for c in w.xi + w.v + w.residual)
        assert max(abs(c) for c in w.xi) == 4
        assert all(c == 0 for c in calA.symbol().evaluate(w.xi).apply(w.v))
        assert A.symbol().evaluate(w.xi).apply(w.v) == w.residual
        assert any(c != 0 for c in w.residual)

    def test_witness_budget(self):
        calA, A = grid_hiding_pair()
        pair = OperatorPair(calA, A, "korn")
        with pytest.raises(SampleBudgetExceeded):
            find_witness(pair, budget=48)  # the radius-3 grid
        # the first point of shell 4, (-4, -4), lies on the direction (1, 1)
        with pytest.raises(SampleBudgetExceeded):
            find_witness(pair, budget=49)
        assert find_witness(pair, budget=50).xi == (-4, -3)

    @pytest.mark.parametrize("seed", range(16))
    def test_first_grid_witness_on_random_pairs(self, seed):
        # every failing pair gets the first point of the shell-ordered grid
        # at which the failing minor does not vanish, and there the first
        # kernel vector of calA[xi] that A[xi] does not annihilate: the
        # internal-consistency AssertionError never fires
        rng = random.Random(seed)
        while True:
            k = rng.randint(1, 2)
            calA = rand_op(rng, d=2, l=rng.randint(1, 2), k=k)
            A = rand_op(rng, d=2, l=1, k=k)
            pair = OperatorPair(calA, A, "korn")
            try:
                verdict = kernel_inclusion(pair)
            except HypothesesNotMet:
                continue
            if not verdict.holds:
                break
        first = next(tuple(map(Fraction, p)) for p in reference_sphere_like_grid(2, 8)
                     if verdict.failing_minor.evaluate(p) != 0)
        w = find_witness(pair, verdict=verdict)
        assert w.xi == first
        A_xi = A.symbol().evaluate(first)
        leaking = [v for v in calA.symbol().evaluate(first).kernel_basis() if any(A_xi.apply(v))]
        assert leaking and w.v == tuple(leaking[0])

    def test_no_leaking_kernel_vector_is_an_internal_error(self):
        # a verdict that inclusion fails where it holds: x_1 is nonzero at
        # (-1, -1), but the gradient's symbol has no kernel there
        pair = OperatorPair(catalog("gradient", 2), catalog("gradient", 2), "korn")
        verdict = InclusionVerdict(holds=False, rank=1, minors_checked=1,
                                   failing_minor=MultiPoly.variable(2, 0))
        with pytest.raises(AssertionError, match="no kernel vector"):
            find_witness(pair, verdict=verdict)


class TestFactorization:
    def test_sym_gradient_certificate(self):
        pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
        cert = construct_L(pair, 6)
        assert cert.s == 1 and cert.verified
        lhs = compose(grad_power(cert.s, pair.A.l, 2), pair.A).symbol()
        rhs = cert.L.symbol() @ pair.calA.symbol()
        assert lhs.entries == rhs.entries

    def test_identity_pair_needs_no_derivatives(self):
        g = catalog("gradient", 2)
        pair = OperatorPair(g, g, "korn")
        cert = construct_L(pair, 6)
        assert cert.s == 0

    def test_failing_inclusion_is_rejected(self):
        pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
        with pytest.raises(ValueError):
            construct_L(pair, 6)

    def test_given_verdict_gives_the_same_certificate(self):
        pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
        cert = construct_L(pair, 6, verdict=kernel_inclusion(pair))
        assert cert == construct_L(pair, 6)

    def test_given_failing_verdict_is_rejected(self):
        pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
        with pytest.raises(ValueError):
            construct_L(pair, 6, verdict=kernel_inclusion(pair))


def planted_superspace_op():
    """N = 3, d = 2, l = 3, k = 4 with columns f (1, 1, 0) + c and c, where
    f = |xi|^4, q = xi1^4, r = xi2 (xi2 - xi1) (xi2 + xi1) xi3 and
    c = (q + f, q, r). The rank is 2 at every real xi != 0 and
    W = span (1, 1, 0)."""
    x = [MultiPoly.variable(3, i) for i in range(3)]
    f = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) ** 2
    q = x[0] ** 4
    r = x[1] * (x[1] - x[0]) * (x[1] + x[0]) * x[2]
    c = [q + f, q, r]
    columns = [[f * e + ci for e, ci in zip((1, 1, 0), c)], c]
    terms = {}
    for j, col in enumerate(columns):
        for i, p in enumerate(col):
            for exp, coef in p.terms.items():
                terms.setdefault(exp, [[0, 0] for _ in range(3)])[i][j] = coef
    return DiffOp("planted_superspace", 3, 2, 3, 4, terms)


class TestCancellation:
    def test_catalog_cancellation(self):
        assert compute_W(catalog("gradient", 2)).cancelling
        assert compute_W(catalog("sym_gradient", 2)).cancelling
        rep = compute_W(catalog("divergence", 2))
        assert not rep.cancelling and len(rep.W_basis) == 1
        rep_cr = compute_W(catalog("cauchy_riemann", 2))
        assert not rep_cr.cancelling and len(rep_cr.W_basis) == 2

    def test_W_vectors_lie_in_every_sampled_image(self):
        rng = random.Random(43)
        op = catalog("divergence", 2)
        rep = compute_W(op)
        sym = op.symbol()
        for _ in range(25):
            x = rand_point(rng, 2)
            M = sym.evaluate(list(x))
            if M.rank() != 1:
                continue
            for w in rep.W_basis:
                aug = ScalarMatrix.from_columns(
                    [ [M.entries[i][j] for i in range(op.l)] for j in range(op.d) ]
                    + [list(w)]
                )
                assert aug.rank() == M.rank()

    def test_candidate_superspace_is_cut_down_to_W(self, tmp_path):
        # the first grid points have xi1 = -1 and xi2 in {-1, 0, 1}, where
        # r = 0, so sampling settles on a plane in which no candidate basis
        # vector lies in W = span (1, 1, 0) on its own
        op = planted_superspace_op()
        rep = compute_W(op)
        assert len(rep.W_basis) == 1 and not rep.cancelling
        (w,) = rep.W_basis
        assert w[0] == w[1] != 0 and w[2] == 0
        save_op(op, tmp_path / "op.json")
        out = tmp_path / "r.json"
        assert main(["analyze", "--op", str(tmp_path / "op.json"), "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["cancelling"] is False and results["dim_W"] == 1

    def test_sampling_past_the_grid(self):
        # p vanishes on the 8 lines through the 24 points of the radius-2
        # grid, so the symbol p (1, 1) has rank 0 there: W = span (1, 1) is
        # seen only at the random points that follow
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = x1 * x2
        for a, b in ((1, 1), (1, 2), (2, 1)):
            p = p * (x1 * a - x2 * b) * (x1 * a + x2 * b)
        assert all(p.evaluate(xi) == 0 for xi in reference_sphere_like_grid(2, 2))
        op = DiffOp("p (1, 1)", 2, 1, 2, 8, {e: [[c], [c]] for e, c in p.terms.items()})
        rep = compute_W(op)
        assert not rep.cancelling and len(rep.W_basis) == 1
        (w,) = rep.W_basis
        assert w[0] == w[1] != 0

    def test_projector_annihilates_W(self):
        rep = compute_W(catalog("divergence", 2))
        for w in rep.W_basis:
            assert all(c == 0 for c in rep.P_Wperp.apply(list(w)))


class TestAnnihilator:
    def test_gradient_annihilator_is_the_curl_projector(self):
        op = catalog("gradient", 2)
        ann = construct_annihilator(op)
        assert ann.op is not None
        assert ann.order == 2
        prod = ann.op.symbol() @ op.symbol()
        assert all(p.is_zero for row in prod.entries for p in row)

    def test_surjective_symbol_gives_the_zero_annihilator(self):
        ann = construct_annihilator(catalog("divergence", 2))
        assert ann.op is None

    def test_kernel_equals_image_at_random_points(self):
        rng = random.Random(44)
        op = catalog("gradient", 3)
        ann = construct_annihilator(op)
        sym, asym = op.symbol(), ann.op.symbol()
        for _ in range(25):
            x = rand_point(rng, 3)
            M, B = sym.evaluate(list(x)), asym.evaluate(list(x))
            image = M.column_space_basis()
            kernel = B.kernel_basis()
            assert len(image) == len(kernel)
            combined = ScalarMatrix.from_columns(
                [list(v) for v in image] + [list(v) for v in kernel]
            )
            assert combined.rank() == len(image)


class TestClaims:
    def test_projection_identity_for_gradient(self):
        op = catalog("gradient", 2)
        ann = construct_annihilator(op)
        rep = compute_W(op)
        cb = construct_Cbeta(ann, rep.W_basis, op.l)
        acc = scalar_zeros(op.l, op.l)
        for beta, C in cb.items():
            acc = acc + (C @ ScalarMatrix(ann.op.terms[beta]))
        assert acc == rep.P_Wperp

    def test_zero_annihilator_with_trivial_projector(self):
        op = catalog("divergence", 2)
        ann = construct_annihilator(op)
        rep = compute_W(op)
        # W is all of R^1, so the complement projector vanishes
        assert rep.P_Wperp.is_zero
        assert construct_Cbeta(ann, rep.W_basis, op.l) == {}

    def test_factorization_annihilates_W(self):
        pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
        cert = construct_L(pair, 6)
        rep = compute_W(pair.calA)
        result = verify_L_annihilates_W(cert.L, rep.W_basis, cert.s)
        assert result.holds and result.s_precondition_met


def fixed_image_vector():
    """Symbol [[x1, x2, 0], [0, 0, x1], [0, 0, x2]]: rank 2 at every xi != 0,
    with e_1 in every image, so W is nonzero and so is the annihilator."""
    x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    zero = MultiPoly.zero(2)
    return from_symbol("fixed_e1", PolyMatrix([[x1, x2, zero], [zero, zero, x1],
                                               [zero, zero, x2]]), 1)


def certificate_operators():
    """The catalog in N = 2 and 3, an operator with W != 0, and seeded
    random operators, some of them without complex constant rank."""
    ops = [catalog(name, N, k) for name in CATALOG_NAMES for N in (2, 3)
           for k in ((1, 2) if name == "div_k" else (None,))
           if (name, N) != ("cauchy_riemann", 3)]
    rng = random.Random(48)
    ops += [rand_op(rng, N=rng.choice((2, 3)), d=rng.randint(1, 3), l=rng.randint(1, 4), k=1)
            for _ in range(10)]
    ops += [rand_op(rng, N=2, d=rng.randint(1, 2), l=rng.randint(1, 3), k=2) for _ in range(5)]
    return ops + [fixed_image_vector()]


class TestCertificateSystems:
    """The facts that let the annihilator stop its recurrence at step rho,
    and each certificate system be solved with one elimination."""

    def test_charpoly_vanishes_below_the_rank_gap(self):
        # M = S S^T has rank <= rho everywhere, and c_{l-rho} is (-1)^rho
        # times the sum of the squared rho-minors of S (Cauchy-Binet)
        lacking = 0
        for op in certificate_operators():
            sym = op.symbol()
            rho, l = generic_rank(sym), op.l
            cs = (sym @ sym.transpose()).charpoly()
            assert all(c.is_zero for c in cs[:l - rho])
            squares = sum((m * m for m in sym.minors(rho)), MultiPoly.zero(op.N))
            assert not squares.is_zero
            assert cs[l - rho] == squares * (-1) ** rho
            lacking += not rank_profile(op, want_real=False).constant_rank_C
        assert lacking >= 5

    def test_annihilator_runs_rho_steps(self, monkeypatch):
        # S S^T, rho steps of the recurrence and the check B S = 0
        matmul = PolyMatrix.__matmul__
        products = []

        def counting(a, b):
            products.append((a.rows, b.cols))
            return matmul(a, b)

        monkeypatch.setattr(PolyMatrix, "__matmul__", counting)
        built = 0
        for op in certificate_operators():
            profile = rank_profile(op)
            products.clear()
            try:
                construct_annihilator(op, profile=profile)
            except DegenerateCharpoly:
                assert profile.constant_rank_R == CERTIFIED_NO and not products
                continue
            assert len(products) == profile.generic_rank + 2
            built += 1
        assert built >= 20
        products.clear()
        construct_annihilator(catalog("sym_gradient", 3))  # l = 6, rho = 3
        assert len(products) == 5

    def test_Cbeta_matches_the_reference(self):
        for op in certificate_operators():
            try:
                ann = construct_annihilator(op)
            except DegenerateCharpoly:
                continue
            W = compute_W(op).W_basis
            assert construct_Cbeta(ann, W, op.l) == reference_construct_Cbeta(ann, W, op.l)

    def test_infeasible_identity_names_the_same_row(self):
        # without W every row of the identity asks for e_1, which every
        # B_beta kills
        op = fixed_image_vector()
        ann = construct_annihilator(op)
        with pytest.raises(ProjectionInfeasible) as got:
            construct_Cbeta(ann, [], op.l)
        with pytest.raises(ProjectionInfeasible) as ref:
            reference_construct_Cbeta(ann, [], op.l)
        assert str(got.value) == str(ref.value)
        assert got.value.data["row"] == ref.value.data["row"] == 0
        assert got.value.data["P"] == ref.value.data["P"]

    def test_Cbeta_eliminations_do_not_grow_with_l(self, monkeypatch):
        # one system for all l rows; a nonzero W adds the projector's two
        calls = count_eliminations(monkeypatch)
        ops = [catalog("gradient", N) for N in (2, 3, 4, 5)] + [
            catalog("sym_gradient", 3), catalog("d2_laplacian", 3), fixed_image_vector()]
        for op in ops:
            ann = construct_annihilator(op)
            W = compute_W(op).W_basis
            calls.clear()
            construct_Cbeta(ann, W, op.l)
            assert len(calls) == (3 if W else 1)

    def test_Cbeta_identity_is_one_product(self, monkeypatch):
        # the C_beta side by side times the B_beta stacked; a nonzero W adds
        # the projector's two
        shapes = []
        matmul = ScalarMatrix.__matmul__

        def counting(a, b):
            shapes.append((a.rows, a.cols, b.cols))
            return matmul(a, b)

        cases = []
        for op in [catalog("gradient", N) for N in (2, 3)] + [
                catalog("sym_gradient", 3), catalog("d2_laplacian", 3), fixed_image_vector()]:
            ann = construct_annihilator(op)
            W = compute_W(op).W_basis
            cases.append((op, ann, W, reference_construct_Cbeta(ann, W, op.l)))
        monkeypatch.setattr(ScalarMatrix, "__matmul__", counting)
        for op, ann, W, ref in cases:
            shapes.clear()
            C_beta = construct_Cbeta(ann, W, op.l)
            assert C_beta == ref
            assert len(shapes) == (3 if W else 1)
            assert shapes[-1] == (op.l, len(C_beta) * ann.m, op.l)


class TestEachCheckFires:
    """A changed certificate fails the one exact check made on it."""

    @pytest.mark.parametrize("name,N", [("gradient", 2), ("sym_gradient", 3)])
    def test_a_changed_Cbeta_fails_verification(self, monkeypatch, name, N):
        # W = 0 here, so the C_beta system is the only one solved
        op = catalog(name, N)
        ann = construct_annihilator(op)
        W = compute_W(op).W_basis
        assert not W
        solve_many = ScalarMatrix.solve_many

        def perturbed(system, rhss):
            out = solve_many(system, rhss)
            # an unknown whose column is nonzero moves row 0 of the product
            j = next(j for j in range(system.cols) if any(r[j] for r in system.entries))
            x = list(out[0])
            x[j] += 1
            return [tuple(x)] + out[1:]

        monkeypatch.setattr(ScalarMatrix, "solve_many", perturbed)
        with pytest.raises(AssertionError, match="C_beta identity failed exact verification"):
            construct_Cbeta(ann, W, op.l)

    @pytest.mark.parametrize("name,N", [("gradient", 2), ("sym_gradient", 3)])
    def test_a_changed_annihilator_fails_verification(self, monkeypatch, name, N):
        op = catalog(name, N)
        faddeev_leverrier = PolyMatrix.faddeev_leverrier

        def perturbed(M, steps):
            cs, B = faddeev_leverrier(M, steps)
            entries = [list(r) for r in B.entries]
            entries[0][0] = entries[0][0] + MultiPoly.const(M.nvars, 1)
            return cs, PolyMatrix(entries)

        monkeypatch.setattr(PolyMatrix, "faddeev_leverrier", perturbed)
        with pytest.raises(AssertionError, match="annihilator does not annihilate the symbol"):
            construct_annihilator(op)


class TestPolynomialLift:
    def test_random_feasible_instances(self):
        rng = random.Random(45)
        ops = [catalog("gradient", 2), catalog("divergence", 2),
               catalog("sym_gradient", 2)]
        for _ in range(30):
            A = rng.choice(ops)
            Pi = [rand_poly(rng, A.N, max_deg=3) for _ in range(A.d)]
            pi = A.apply_to_poly(Pi)
            lift = polynomial_lift(A, pi)
            assert A.apply_to_poly(list(lift.Pi)) == list(pi)
            deg_pi = max((p.degree() for p in pi if not p.is_zero), default=0)
            deg_Pi = max((p.degree() for p in lift.Pi if not p.is_zero), default=0)
            assert deg_Pi <= deg_pi + A.k

    def test_infeasible_target_is_rejected(self):
        g = catalog("gradient", 2)
        pi_bad = [MultiPoly.monomial(2, (0, 1)), MultiPoly.zero(2)]
        with pytest.raises(NotInImage):
            polynomial_lift(g, pi_bad)


class TestQuotientSpec:
    def test_degree_bound_and_dimension(self):
        pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
        q = quotient_spec(pair, 1)
        assert q.degree_bound == 3
        assert q.dimension == 2 * 10
