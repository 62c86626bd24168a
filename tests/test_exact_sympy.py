"""The Bareiss determinant and the Faddeev-LeVerrier characteristic
polynomial against sympy's Berkowitz algorithm, on rational matrices of
every rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcheck.exact import MultiPoly, PolyMatrix, ScalarMatrix

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x0 x1")
LAMBDA = sympy.Symbol("lam")


@st.composite
def rational_matrices(draw, n):
    """n x n over Q with zeros mixed in. For r < n a product of an n x r and
    an r x n factor, so every rank below n occurs; for r = n the entries are
    drawn directly, so zero pivots occur at full rank too."""
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))
    r = draw(st.integers(0, n))
    if r == n:
        return [[draw(entry) for _ in range(n)] for _ in range(n)]
    left = [[draw(entry) for _ in range(r)] for _ in range(n)]
    right = [[draw(entry) for _ in range(n)] for _ in range(r)]
    return [[sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0))
             for j in range(n)] for i in range(n)]


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(rational_matrices(n)), draw(rational_matrices(n))


def _rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_poly(p: MultiPoly):
    return sum((_rational(c) * sympy.Mul(*(x ** e for x, e in zip(X, exp)))
                for exp, c in p.terms.items()), sympy.Integer(0))


def _linear_pencil(F0, F1):
    """The matrix F0 x0 + F1 x1 as a PolyMatrix and as a sympy Matrix."""
    n = len(F0)
    poly = PolyMatrix([[MultiPoly(2, {(1, 0): F0[i][j], (0, 1): F1[i][j]})
                        for j in range(n)] for i in range(n)])
    return poly, sympy.Matrix(n, n, lambda i, j: _rational(F0[i][j]) * X[0]
                              + _rational(F1[i][j]) * X[1])


class TestAgainstSympy:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 5).flatmap(rational_matrices))
    def test_scalar_det(self, entries):
        expected = sympy.Matrix(entries).applyfunc(_rational).det(method="berkowitz")
        assert ScalarMatrix(entries).det() == Fraction(int(expected.p), int(expected.q))

    @settings(max_examples=60, deadline=None)
    @given(square_pairs())
    def test_polynomial_det(self, pair):
        poly, sym = _linear_pencil(*pair)
        (minor,) = poly.minors(poly.rows)
        assert sympy.expand(_sympy_poly(minor) - sym.det(method="berkowitz")) == 0

    @settings(max_examples=60, deadline=None)
    @given(square_pairs())
    def test_charpoly(self, pair):
        poly, sym = _linear_pencil(*pair)
        coeffs = poly.charpoly()  # c_0..c_{n-1}, lambda^n has coefficient 1
        expected = sym.charpoly(LAMBDA).all_coeffs()[::-1]
        assert expected[-1] == 1
        for c, e in zip(coeffs, expected):
            assert sympy.expand(_sympy_poly(c) - e) == 0
