import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import symcheck.analysis as analysis
from symcheck.analysis import HypothesesNotMet, construct_L, generic_rank, kernel_inclusion
from symcheck import groebner
from symcheck.exact import MultiPoly, monomials_of_degree
from symcheck.groebner import (
    GroebnerBasis,
    GroebnerBudgetExceeded,
    TermOrder,
    buchberger_ideal,
    module_member_with_coeffs,
    zero_dim_origin,
)
from symcheck.operators import OperatorPair, catalog, serialize_op
from helpers import ReferenceGroebnerBasis, rand_homogeneous, rand_op, rand_poly, tf_sym_gradient


def P(nvars, terms):
    return MultiPoly(nvars, {k: Fraction(v) for k, v in terms.items()})


# ---------------------------------------------------------------------------
# an independent oracle for zero_dim_origin in two variables
# ---------------------------------------------------------------------------


def _univ_coeffs(p: MultiPoly):
    """Coefficients of p(1, t) as a dense list."""
    out = {}
    for (e1, e2), c in p.terms.items():
        out[e2] = out.get(e2, Fraction(0)) + c
    if not out:
        return []
    deg = max(out)
    return [out.get(i, Fraction(0)) for i in range(deg + 1)]


def _univ_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _univ_mod(a, b):
    a, b = _univ_trim(list(a)), _univ_trim(list(b))
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[i + shift] -= f * bc
        _univ_trim(a)
        if not a:
            break
    return a


def _univ_gcd_degree(polys):
    """Degree of gcd of nonzero univariate polynomials over Q."""
    g = []
    for c in polys:
        c = _univ_trim(list(c))
        if not c:
            continue
        if not g:
            g = c
            continue
        a, b = g, c
        while b:
            a, b = b, _univ_mod(a, b)
        g = a
    return len(g) - 1 if g else None


def zero_dim_origin_oracle_2vars(gens):
    """Homogeneous bivariate system has only the origin as a common zero iff
    the dehomogenizations p(1, t) share no root over C and the point (0, 1)
    is not a common zero."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return False
    if all(g.evaluate((Fraction(0), Fraction(1))) == 0 for g in gens):
        return False
    dehom = [_univ_coeffs(g) for g in gens]
    deg = _univ_gcd_degree(dehom)
    if deg is None:
        # every dehomogenization vanished: common zeros on the x-axis
        return False
    return deg == 0


def zero_dim_origin_by_groebner(gens):
    """The Groebner leading-term criterion: the homogeneous ideal has only
    the origin as a common zero iff its reduced grevlex basis has a pure
    power of every variable among its leading terms."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return False
    G = buchberger_ideal(gens)
    covered = set()
    for _, exp in G.leading_exponents():
        support = [i for i, e in enumerate(exp) if e]
        if not support:
            return True  # unit ideal
        if len(support) == 1:
            covered.add(support[0])
    return covered == set(range(gens[0].nvars))


@st.composite
def homogeneous_ideals(draw):
    """1-4 forms of mixed degrees 1-3 in 2 or 3 variables, small integer
    coefficients on a random subset of the monomials."""
    nvars = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        monos = monomials_of_degree(nvars, draw(st.integers(1, 3)))
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(support), max_size=len(support)))
        gens.append(MultiPoly(nvars, {m: Fraction(c) for m, c in zip(support, coeffs)}))
    return gens


# ---------------------------------------------------------------------------


class TestBuchberger:
    def test_spair_reduction_on_random_ideals(self):
        rng = random.Random(20)
        for _ in range(25):
            gens = [rand_homogeneous(rng, 2, rng.randint(1, 3)) for _ in range(2)]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            G = buchberger_ideal(gens)
            assert G.verify()

    def test_module_bases_verify(self):
        rng = random.Random(21)
        for _ in range(15):
            gens = [
                tuple(rand_homogeneous(rng, 2, 1) for _ in range(2))
                for _ in range(2)
            ]
            gens = [g for g in gens if any(not p.is_zero for p in g)]
            if not gens:
                continue
            G = GroebnerBasis(gens, TermOrder("grevlex"))
            assert G.verify()

    def test_normal_form_of_members_is_zero(self):
        rng = random.Random(22)
        for _ in range(25):
            g1 = rand_homogeneous(rng, 2, 2)
            g2 = rand_homogeneous(rng, 2, 2)
            if g1.is_zero or g2.is_zero:
                continue
            G = buchberger_ideal([g1, g2])
            q1 = rand_poly(rng, 2, max_deg=2)
            q2 = rand_poly(rng, 2, max_deg=2)
            assert G.normal_form((q1 * g1 + q2 * g2,))[0].is_zero

    def test_determinism(self):
        gens = [
            P(2, {(2, 0): 1, (1, 1): 2}),
            P(2, {(0, 2): 3, (1, 1): -1}),
        ]
        a = buchberger_ideal(gens)
        b = buchberger_ideal(gens)
        assert a.generators == b.generators
        assert a.reps == b.reps

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            buchberger_ideal([MultiPoly.zero(2)])


class TestModuleMembership:
    def test_random_combinations_are_members(self):
        rng = random.Random(23)
        for _ in range(25):
            gens = [
                tuple(rand_homogeneous(rng, 2, 1) for _ in range(2))
                for _ in range(2)
            ]
            gens = [g for g in gens if any(not p.is_zero for p in g)]
            if not gens:
                continue
            qs = [rand_poly(rng, 2, max_deg=2) for _ in gens]
            target = tuple(
                sum((q * g[j] for q, g in zip(qs, gens)), MultiPoly.zero(2))
                for j in range(2)
            )
            coeffs = module_member_with_coeffs(target, gens)
            assert coeffs is not None
            acc = tuple(
                sum((c * g[j] for c, g in zip(coeffs, gens)), MultiPoly.zero(2))
                for j in range(2)
            )
            assert acc == target

    def test_rotation_is_not_in_the_gradient_row_module(self):
        xi1 = MultiPoly.monomial(2, (1, 0))
        xi2 = MultiPoly.monomial(2, (0, 1))
        gens = [(xi1, xi2)]
        assert module_member_with_coeffs((xi2, -xi1), gens) is None

    def test_scalar_membership(self):
        xi1 = MultiPoly.monomial(2, (1, 0))
        xi2 = MultiPoly.monomial(2, (0, 1))
        gens = [(xi1 * xi1,), (xi2 * xi2,)]
        member = (xi1 * xi1 * xi2 + xi2 * xi2 * xi2,)
        assert module_member_with_coeffs(member, gens) is not None
        assert module_member_with_coeffs((xi1 * xi2,), gens) is None

    def test_zero_generators_keep_their_place(self):
        # one coefficient per generator as given, zero ones included
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        zero = MultiPoly.zero(2)
        gens = [(zero, zero), (x, y), (zero, zero)]
        assert module_member_with_coeffs((x * x, x * y), gens) == [zero, x, zero]
        G = GroebnerBasis(gens, TermOrder())
        assert G.input_gens == gens
        assert G.generators == [(x, y)] and G.reps == [[zero, MultiPoly.const(2, 1), zero]]
        for every_zero in ([], [(zero, zero)], [(zero, zero)] * 3):
            with pytest.raises(ValueError, match="all-zero"):
                GroebnerBasis(every_zero, TermOrder())

    def test_a_changed_coefficient_fails_verification(self, monkeypatch):
        # express returns what the reduction tracked; the one-shot wrapper
        # checks it as one product
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        gens = [(MultiPoly.zero(2),) * 2, (x, y), (y * y, x * x)]
        express = GroebnerBasis.express

        def perturbed(basis, target):
            coeffs = express(basis, target)
            coeffs[1] = coeffs[1] + x
            return coeffs

        monkeypatch.setattr(GroebnerBasis, "express", perturbed)
        with pytest.raises(AssertionError,
                           match="representation tracking produced a wrong identity"):
            module_member_with_coeffs((x * x + y * y, x * y + x * x), gens)

    def test_express_multiplies_nothing_out(self, monkeypatch):
        rng = random.Random(31)
        cases = []
        for _ in range(10):
            gens = [tuple(rand_homogeneous(rng, 3, 2) for _ in range(2)) for _ in range(3)]
            qs = [rand_homogeneous(rng, 3, 1) for _ in gens]
            target = tuple(sum((q * g[j] for q, g in zip(qs, gens)), MultiPoly.zero(3))
                           for j in range(2))
            G = GroebnerBasis(gens, TermOrder())
            cases.append((G, target, G.express(target)))
        assert sum(coeffs is not None for _, _, coeffs in cases) == 10

        def refuse(*args):
            raise AssertionError("express multiplied polynomials")

        monkeypatch.setattr(MultiPoly, "__mul__", refuse)
        monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
        for G, target, coeffs in cases:
            assert G.express(target) == coeffs


class TestMatchesReference:
    """The engine against the reference in helpers.py, which rebuilds tuples
    of MultiPoly on every step: equal bases, equal representations and
    equal `express` coefficients. Representations are not unique, so this
    pins the order of the operations, not only their result."""

    @pytest.mark.parametrize("rank,nvars", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_random_modules(self, rank, nvars):
        rng = random.Random(100 * rank + nvars)
        for _ in range(6):
            gens = [
                tuple(rand_homogeneous(rng, nvars, deg) for _ in range(rank))
                for deg in (rng.randint(1, 2) for _ in range(rng.randint(2, 4)))
            ]
            if all(p.is_zero for g in gens for p in g):
                continue
            G = GroebnerBasis(gens, TermOrder())
            R = ReferenceGroebnerBasis(gens, TermOrder())
            assert G.generators == R.generators
            assert G.reps == R.reps
            qs = [rand_poly(rng, nvars, max_deg=2) for _ in gens]
            member = tuple(
                sum((q * g[j] for q, g in zip(qs, gens)), MultiPoly.zero(nvars))
                for j in range(rank)
            )
            other = tuple(rand_poly(rng, nvars, max_deg=2) for _ in range(rank))
            for target in (member, other):
                assert G.express(target) == R.express(target)

    def test_tail_reduced_entry_divides_by_its_new_form(self):
        # the tail reduction changes an entry that later divides another;
        # an integer form left from before it gives other representations
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        gens = [(-x * x - x * y - 3 * y * y,), (2 * x * x,), (2 * x * x - 3 * y * y,), (2 * y,)]
        G = GroebnerBasis(gens, TermOrder())
        R = ReferenceGroebnerBasis(gens, TermOrder())
        assert G.generators == R.generators
        assert G.reps == R.reps

    def test_zero_generators(self):
        rng = random.Random(29)
        zero = (MultiPoly.zero(2),) * 2
        for _ in range(6):
            gens = [tuple(rand_homogeneous(rng, 2, 1) for _ in range(2)) for _ in range(3)]
            gens = [zero] + gens[:2] + [zero] + gens[2:]
            G = GroebnerBasis(gens, TermOrder())
            R = ReferenceGroebnerBasis(gens, TermOrder())
            assert G.generators == R.generators
            assert G.reps == R.reps and all(len(rep) == 5 for rep in G.reps)
            qs = [rand_poly(rng, 2, max_deg=2) for _ in gens]
            member = tuple(sum((q * g[j] for q, g in zip(qs, gens)), MultiPoly.zero(2))
                           for j in range(2))
            other = tuple(rand_poly(rng, 2, max_deg=2) for _ in range(2))
            for target in (member, other):
                assert G.express(target) == R.express(target)

    def test_construct_L_at_s_4(self, monkeypatch):
        # a 4x2 order-2 calA and a 1x2 order-2 A in N = 3; a 7-element basis
        rng = random.Random(0)
        while True:
            calA = rand_op(rng, N=3, d=2, l=4, k=2)
            A = rand_op(rng, N=3, d=2, l=1, k=2)
            pair = OperatorPair(calA, A, "korn")
            try:
                if kernel_inclusion(pair).holds:
                    break
            except HypothesesNotMet:
                pass
        cert = construct_L(pair, 6)
        monkeypatch.setattr(analysis, "GroebnerBasis", ReferenceGroebnerBasis)
        ref = construct_L(pair, 6)
        assert cert.s == 4
        assert cert == ref
        assert serialize_op(cert.L) == serialize_op(ref.L)


class TestZeroDimOrigin:
    def test_fixed_suite(self):
        xi1 = MultiPoly.monomial(2, (1, 0))
        xi2 = MultiPoly.monomial(2, (0, 1))
        assert zero_dim_origin([xi1 * xi1, xi2 * xi2]) is True
        assert zero_dim_origin([xi1 * xi2]) is False
        assert zero_dim_origin([xi1 * xi1 + xi2 * xi2]) is False

    def test_empty_and_unit(self):
        assert zero_dim_origin([]) is False
        assert zero_dim_origin([MultiPoly.zero(2)]) is False

    def test_inhomogeneous_rejected(self):
        p = MultiPoly(2, {(1, 0): Fraction(1), (0, 0): Fraction(1)})
        with pytest.raises(ValueError):
            zero_dim_origin([p])

    def test_against_bivariate_oracle(self):
        rng = random.Random(24)
        checked = 0
        for _ in range(200):
            gens = [
                rand_homogeneous(rng, 2, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            assert zero_dim_origin(gens) == zero_dim_origin_oracle_2vars(gens)
            checked += 1
        assert checked >= 150

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_ideals())
    def test_macaulay_against_groebner_criterion(self, gens):
        assert zero_dim_origin(gens) == zero_dim_origin_by_groebner(gens)

    @pytest.mark.parametrize(
        "name,N",
        [("gradient", 2), ("gradient", 3), ("divergence", 2), ("divergence", 3),
         ("curl", 2), ("curl", 3), ("sym_gradient", 2), ("sym_gradient", 3),
         ("laplacian", 2), ("bilaplacian", 2), ("cauchy_riemann", 2),
         ("d2_laplacian", 2)],
    )
    def test_catalog_rho_minors_against_groebner_criterion(self, name, N):
        sym = catalog(name, N).symbol()
        minors = [m for m in sym.minors(generic_rank(sym)) if not m.is_zero]
        assert zero_dim_origin(minors) == zero_dim_origin_by_groebner(minors)

    def test_fewer_generators_than_variables_answer_at_once(self):
        # Krull's height bound: one form in 40 variables vanishes on a cone;
        # the Macaulay matrix at degree 40 * 39 + 1 is never built
        xi1_40 = MultiPoly.monomial(40, (40,) + (0,) * 39)
        assert zero_dim_origin([xi1_40]) is False


class TestSPairBudget:
    def test_the_cap_counts_the_processed_pairs(self, monkeypatch):
        # the module basis of the trace-free symmetric gradient in N = 3
        # processes 66 S-pairs
        gens = tf_sym_gradient(3).symbol().entries
        monkeypatch.setattr(groebner, "GROEBNER_MAX_SPAIRS", 66)
        assert len(GroebnerBasis(gens, TermOrder()).generators) == 12
        monkeypatch.setattr(groebner, "GROEBNER_MAX_SPAIRS", 65)
        with pytest.raises(GroebnerBudgetExceeded, match="more than 65 S-pairs"):
            GroebnerBasis(gens, TermOrder())
