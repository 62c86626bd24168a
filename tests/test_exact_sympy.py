"""The Bareiss determinant (of scalar matrices, and every minor of square
and rectangular linear pencils) and the Faddeev-LeVerrier characteristic
polynomial against sympy's Berkowitz algorithm, on rational matrices of
every rank."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcheck.exact import MultiPoly, PolyMatrix, ScalarMatrix

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x0 x1")
LAMBDA = sympy.Symbol("lam")


@st.composite
def rational_matrices(draw, n, m=None):
    """n x m (default n x n) over Q with zeros mixed in. For r < min(n, m) a
    product of an n x r and an r x m factor, so every rank below min(n, m)
    occurs; for r = min(n, m) the entries are drawn directly, so zero pivots
    occur at full rank too."""
    m = n if m is None else m
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
    r = draw(st.integers(0, min(n, m)))
    if r == min(n, m):
        return [[draw(entry) for _ in range(m)] for _ in range(n)]
    left = [[draw(entry) for _ in range(r)] for _ in range(n)]
    right = [[draw(entry) for _ in range(m)] for _ in range(r)]
    return [[sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0))
             for j in range(m)] for i in range(n)]


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(rational_matrices(n)), draw(rational_matrices(n))


@st.composite
def pencil_pairs(draw):
    """Two l x d matrices, square or rectangular."""
    l, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(rational_matrices(l, d)), draw(rational_matrices(l, d))


def _rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_poly(p: MultiPoly):
    return sum((_rational(c) * sympy.Mul(*(x ** e for x, e in zip(X, exp)))
                for exp, c in p.terms.items()), sympy.Integer(0))


def _linear_pencil(F0, F1):
    """The matrix F0 x0 + F1 x1 as a PolyMatrix and as a sympy Matrix."""
    n, m = len(F0), len(F0[0])
    poly = PolyMatrix([[MultiPoly(2, {(1, 0): F0[i][j], (0, 1): F1[i][j]})
                        for j in range(m)] for i in range(n)])
    return poly, sympy.Matrix(n, m, lambda i, j: _rational(F0[i][j]) * X[0]
                              + _rational(F1[i][j]) * X[1])


class TestAgainstSympy:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5).flatmap(rational_matrices))
    def test_scalar_det(self, entries):
        expected = sympy.Matrix(entries).applyfunc(_rational).det(method="berkowitz")
        assert ScalarMatrix(entries).det() == Fraction(int(expected.p), int(expected.q))

    @settings(max_examples=60, deadline=None)
    @given(pencil_pairs())
    def test_polynomial_det(self, pair):
        poly, sym = _linear_pencil(*pair)
        for s in range(1, min(poly.rows, poly.cols) + 1):
            # minors() runs over row choices, then column choices
            subs = [sym.extract(list(r), list(c))
                    for r in itertools.combinations(range(poly.rows), s)
                    for c in itertools.combinations(range(poly.cols), s)]
            for minor, sub in zip(poly.minors(s), subs, strict=True):
                assert sympy.expand(_sympy_poly(minor) - sub.det(method="berkowitz")) == 0

    @settings(max_examples=60, deadline=None)
    @given(square_pairs())
    def test_charpoly(self, pair):
        poly, sym = _linear_pencil(*pair)
        coeffs = poly.charpoly()  # c_0..c_{n-1}, lambda^n has coefficient 1
        expected = sym.charpoly(LAMBDA).all_coeffs()[::-1]
        assert expected[-1] == 1
        for c, e in zip(coeffs, expected):
            assert sympy.expand(_sympy_poly(c) - e) == 0
