"""The exact kernels, which compute on integer numerators over one
denominator, against the Fraction kernels they replaced (tests/helpers.py):
equal values and the same term order, on hypothesis and seeded inputs."""

import copy
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from symcheck import exact
from symcheck.exact import MultiPoly, PolyMatrix, ScalarMatrix, cofactors, forward_eliminate
from helpers import (
    exact_div,
    rand_poly,
    reference_back_substitute,
    reference_bareiss_det,
    reference_det,
    reference_exact_div,
    reference_forward_eliminate,
    reference_matmul,
    reference_minors,
    reference_mul,
)

# nonzero rationals with assorted denominators and signs; +-1 often, so
# that sums cancel
COEFFS = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                   st.builds(Fraction, st.integers(-9, 9).filter(bool),
                             st.sampled_from([1, 2, 3, 4, 6, 9])))
SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def polys(nvars, max_deg=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return st.dictionaries(exps, COEFFS, max_size=max_terms).map(
        lambda terms: MultiPoly(nvars, terms))


def items(p: MultiPoly):
    return list(p.terms.items())


@st.composite
def low_rank(draw, n, m, entry, combine):
    """n x m entries, each row a rational combination of r drawn rows (r
    from 0 to min(n, m)), so every rank occurs; rows may be zero, repeat or
    carry different denominators."""
    r = draw(st.integers(0, min(n, m)))
    base = [[draw(entry) for _ in range(m)] for _ in range(r)]
    weights = st.one_of(st.just(Fraction(0)), COEFFS)
    if r == min(n, m):  # full rank is likely: draw the rows directly
        return [[draw(entry) for _ in range(m)] for _ in range(n)]
    return [[combine([draw(weights) for _ in range(r)], [row[j] for row in base])
             for j in range(m)] for _ in range(n)]


def _poly_combination(nvars):
    return lambda ws, ps: sum((p * w for w, p in zip(ws, ps)), MultiPoly.zero(nvars))


def _scalar_combination(ws, cs):
    return sum((w * c for w, c in zip(ws, cs)), Fraction(0))


SCALARS = st.one_of(st.just(Fraction(0)), COEFFS)


@st.composite
def poly_matrices(draw, nvars=2):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(MultiPoly.zero(nvars)), polys(nvars, max_deg=1, max_terms=3))
    return PolyMatrix(draw(low_rank(n, m, entry, _poly_combination(nvars))))


@st.composite
def scalar_matrices(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return ScalarMatrix(draw(low_rank(n, m, SCALARS, _scalar_combination)))


def _echelon(pivots):
    return [(c, list(row.items())) for c, row in pivots.items()]


class TestProducts:
    @SETTINGS
    @given(polys(3), polys(3))
    def test_product(self, p, q):
        assert items(p * q) == items(reference_mul(p, q))

    def test_a_cancelled_sum_enters_again_last(self):
        x, y = (MultiPoly.variable(2, i) for i in range(2))
        p, q = x + y + 1, y - x + x * y
        # x*y from x*y, then -x*y from y*(-x) cancels it, then 1*(x*y)
        assert items(p * q) == items(reference_mul(p, q))
        assert list((p * q).terms)[-1] == (1, 1)

    @SETTINGS
    @given(st.data())
    def test_matrix_product(self, data):
        n, k, m = (data.draw(st.integers(1, 3)) for _ in range(3))
        entry = st.one_of(st.just(MultiPoly.zero(2)), polys(2))
        P = PolyMatrix([[data.draw(entry) for _ in range(k)] for _ in range(n)])
        Q = PolyMatrix([[data.draw(entry) for _ in range(m)] for _ in range(k)])
        got, ref = P @ Q, reference_matmul(P, Q)
        assert [items(p) for row in got.entries for p in row] == \
            [items(p) for row in ref.entries for p in row]


class TestBareiss:
    @SETTINGS
    @given(poly_matrices())
    def test_every_minor(self, M):
        for size in range(1, min(M.rows, M.cols) + 1):
            assert [items(d) for d in M.minors(size)] == \
                [items(d) for d in reference_minors(M, size)]

    @SETTINGS
    @given(scalar_matrices())
    def test_scalar_determinant(self, S):
        if S.rows == S.cols:
            assert S.det() == reference_det(S)

    def test_zero_pivot_needs_a_swap_and_rows_have_other_denominators(self):
        x, y = (MultiPoly.variable(2, i) for i in range(2))
        h = Fraction(1, 2)
        M = PolyMatrix([[MultiPoly.zero(2), x * h, y],
                        [-x * Fraction(2, 3), y, x + y],
                        [y * Fraction(-5, 7), MultiPoly.zero(2), x * Fraction(3, 4)]])
        (d,) = M.minors(3)
        assert items(d) == items(reference_bareiss_det([list(r) for r in M.entries]))
        assert not d.is_zero

    def test_rows_scaled_back(self):
        # each row's lcm denominator scales the integer determinant; the
        # result is divided by their product
        S = ScalarMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 5), Fraction(2, 7)]])
        assert S.det() == Fraction(1, 2) * Fraction(2, 7) + Fraction(1, 3) * Fraction(1, 5)

    @SETTINGS
    @given(polys(2), polys(2, max_deg=1).filter(bool))
    def test_exact_division(self, p, q):
        product = p * q
        got = exact_div(product, q)
        assert got == p
        assert items(got) == items(reference_exact_div(product, q))

    def test_division_by_a_divisor_with_rational_content(self):
        rng = random.Random(5)
        for _ in range(30):
            p, q = rand_poly(rng, 3), rand_poly(rng, 3) * Fraction(2, 3)
            if q.is_zero:
                continue
            got = exact_div(p * q, q)
            assert got == p and items(got) == items(reference_exact_div(p * q, q))

    @SETTINGS
    @given(polys(2), polys(2, max_deg=1).filter(lambda q: q.degree() >= 1))
    def test_inexact_division_raises(self, p, q):
        # q does not divide p * q + 1, as it does not divide 1
        with pytest.raises(ArithmeticError):
            reference_exact_div(p * q + 1, q)
        with pytest.raises(ArithmeticError):
            exact_div(p * q + 1, q)


class TestElimination:
    @SETTINGS
    @given(scalar_matrices())
    def test_forward_eliminate(self, S):
        rows = [{j: c for j, c in enumerate(row) if c} for row in S.entries]
        for ncols in {S.cols, max(1, S.cols - 1)}:  # the early stop too
            got = forward_eliminate(copy.deepcopy(rows), ncols)
            assert _echelon(got) == _echelon(reference_forward_eliminate(copy.deepcopy(rows), ncols))

    @SETTINGS
    @given(scalar_matrices(), st.data())
    def test_matrix_methods(self, S, data):
        x = [data.draw(SCALARS) for _ in range(S.cols)]
        rhss = [S.apply(x)] + [[data.draw(SCALARS) for _ in range(S.rows)] for _ in range(2)]

        def answers():
            return (S.rank(), S.kernel_basis(), S.column_space_basis(), S.solve_many(rhss))

        with mock.patch.object(exact, "forward_eliminate", reference_forward_eliminate), \
                mock.patch.object(exact, "back_substitute", reference_back_substitute):
            ref = answers()
        got = answers()
        assert got == ref
        assert got[3][0] is not None  # S x is always feasible

    def test_infeasible_columns_and_zero_rows(self):
        S = ScalarMatrix([[Fraction(-2, 3), Fraction(1, 2), 0], [0, 0, 0],
                          [Fraction(4, 3), -1, 0], [0, Fraction(3, 5), Fraction(-7, 2)]])
        rhss = [[1, 0, 0, 0], [1, 0, -2, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        with mock.patch.object(exact, "forward_eliminate", reference_forward_eliminate), \
                mock.patch.object(exact, "back_substitute", reference_back_substitute):
            ref = S.solve_many(rhss)
        got = S.solve_many(rhss)
        assert got == ref and got[0] is None and got[2] is None and got[1] is not None

    @pytest.mark.parametrize("pivot,lead", [(6, 4), (-6, 4), (6, -4), (-6, -4), (-1, 7),
                                            (5, 5), (-5, 5), (1, -1), (-9, 3)])
    def test_cofactors_cancel_with_a_positive_scale(self, pivot, lead):
        a, b = cofactors(pivot, lead)
        assert a > 0 and math.gcd(a, b) == 1 and a * lead == b * pivot
