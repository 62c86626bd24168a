import random
from fractions import Fraction

import pytest

from symcheck.exact import (
    MultiPoly,
    PolyMatrix,
    ScalarMatrix,
    monomials_of_degree,
    monomials_up_to_degree,
    projector_onto_complement,
    reduce_basis,
    subspace_intersect,
)
from helpers import (
    add_matrices,
    count_eliminations,
    exact_div,
    homogeneous_component,
    matrix_power,
    rand_fraction,
    rand_poly,
    rand_point,
    reference_monomials_of_degree,
    reference_projector_onto_complement,
    reference_subspace_intersect,
    reference_solve,
    scale_by_poly,
)


class TestMultiPoly:
    def test_ring_axioms_randomized(self):
        rng = random.Random(2)
        for _ in range(100):
            p, q, r = (rand_poly(rng, 2) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p - p == MultiPoly.zero(2)

    def test_evaluation_is_a_homomorphism(self):
        rng = random.Random(3)
        for _ in range(200):
            p = rand_poly(rng, 3)
            q = rand_poly(rng, 3)
            x = rand_point(rng, 3)
            assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
            assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)

    def test_homogeneous_degree(self):
        p = MultiPoly(2, {(2, 0): Fraction(1), (1, 1): Fraction(-3)})
        assert p.homogeneous_degree() == 2
        q = p + MultiPoly(2, {(1, 0): Fraction(1)})
        assert q.homogeneous_degree() is None
        assert homogeneous_component(q, 2) == p

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(4)
        p = rand_poly(rng, 2)
        assert p ** 3 == p * p * p
        assert p ** 0 == MultiPoly.monomial(2, (0, 0))

    def test_exact_div(self):
        rng = random.Random(5)
        for _ in range(50):
            p = rand_poly(rng, 2, n_terms=3)
            q = rand_poly(rng, 2, n_terms=3)
            if q.is_zero:
                continue
            assert exact_div(p * q, q) == p


class TestScalarMatrix:
    def test_rank_nullity_over_Q(self):
        rng = random.Random(6)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = ScalarMatrix(
                [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]
            )
            assert m.rank() + len(m.kernel_basis()) == cols

    def test_kernel_vectors_are_in_the_kernel(self):
        rng = random.Random(8)
        for _ in range(50):
            m = ScalarMatrix(
                [[rand_fraction(rng) for _ in range(4)] for _ in range(3)]
            )
            for v in m.kernel_basis():
                assert all(c == 0 for c in m.apply(v))

    def test_det_small_cases(self):
        m = ScalarMatrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
        assert m.det() == -2
        assert ScalarMatrix.identity(3).det() == 1

    def test_det_multiplicative(self):
        rng = random.Random(9)
        for _ in range(30):
            a = ScalarMatrix([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
            b = ScalarMatrix([[rand_fraction(rng) for _ in range(3)] for _ in range(3)])
            assert (a @ b).det() == a.det() * b.det()

    def test_solve(self):
        rng = random.Random(10)
        for _ in range(50):
            m = ScalarMatrix([[rand_fraction(rng) for _ in range(3)] for _ in range(4)])
            x = [rand_fraction(rng) for _ in range(3)]
            rhs = m.apply(x)
            sol = m.solve(list(rhs))
            assert sol is not None
            assert m.apply(sol) == rhs

    def test_solve_infeasible(self):
        m = ScalarMatrix([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]])
        assert m.solve([Fraction(1), Fraction(2)]) is None


# ---------------------------------------------------------------------------
# the dense Gauss-Jordan elimination the sparse kernel replaced, kept as the
# reference it is compared against
# ---------------------------------------------------------------------------


def dense_rref(entries):
    """Reduced row echelon form by dense Gauss-Jordan: (rows, pivot columns)."""
    m = [list(row) for row in entries]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_kernel_basis(entries):
    m, pivots = dense_rref(entries)
    ncols = len(entries[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def dense_solve(entries, rhs):
    ncols = len(entries[0])
    m, pivots = dense_rref([list(row) + [b] for row, b in zip(entries, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return tuple(x)


def _random_low_rank(rng, rows, cols):
    """Product of random rows x r and r x cols factors with zeros sprinkled
    in, so that ranks below min(rows, cols) and sparse rows both occur."""
    r = rng.randint(0, min(rows, cols))

    def entry():
        return Fraction(0) if rng.random() < 0.4 else rand_fraction(rng)

    left = [[entry() for _ in range(r)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(r)]
    return ScalarMatrix(
        [
            [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0))
             for j in range(cols)]
            for i in range(rows)
        ]
    )


class TestSparseEchelonAgainstDense:
    def test_kernel_rank_and_column_space(self):
        rng = random.Random(11)
        for _ in range(120):
            m = _random_low_rank(rng, rng.randint(1, 6), rng.randint(1, 6))
            _, pivots = dense_rref(m.entries)
            assert m.kernel_basis() == dense_kernel_basis(m.entries)
            assert m.rank() == len(pivots)
            assert m.column_space_basis() == [
                tuple(row[c] for row in m.entries) for c in pivots
            ]

    def test_solve(self):
        rng = random.Random(12)
        for _ in range(120):
            m = _random_low_rank(rng, rng.randint(1, 6), rng.randint(1, 6))
            if rng.random() < 0.5:
                rhs = list(m.apply([rand_fraction(rng) for _ in range(m.cols)]))
            else:
                rhs = [rand_fraction(rng) for _ in range(m.rows)]
            assert m.solve(rhs) == dense_solve(m.entries, rhs)


class TestSolveMany:
    def test_matches_one_solve_per_column(self):
        # every rank from 0 to 6 occurs, and so do infeasible columns next
        # to feasible ones
        rng = random.Random(19)
        ranks, infeasible = set(), 0
        for _ in range(200):
            m = _random_low_rank(rng, rng.randint(1, 6), rng.randint(1, 6))
            rhss = [
                list(m.apply([rand_fraction(rng) for _ in range(m.cols)]))
                if rng.random() < 0.5 else [rand_fraction(rng) for _ in range(m.rows)]
                for _ in range(rng.randint(0, 6))
            ]
            sols = m.solve_many(rhss)
            assert sols == [reference_solve(m, b) for b in rhss]
            assert sols == [dense_solve(m.entries, b) for b in rhss]
            assert sols == [m.solve(b) for b in rhss]
            ranks.add(m.rank())
            infeasible += sols.count(None)
        assert ranks == set(range(7)) and infeasible > 0

    def test_zero_columns_and_no_columns(self):
        m = ScalarMatrix([[1, 2], [2, 4]])
        assert m.solve_many([]) == []
        assert m.solve_many([[0, 0], [1, 3], [1, 2]]) == [
            (Fraction(0), Fraction(0)), None, (Fraction(1), Fraction(0))]


class TestSubspaces:
    def test_intersection(self):
        rng = random.Random(11)
        e = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(4))
        U = [e(0), e(1), e(2)]
        V = [e(1), e(2), e(3)]
        inter = subspace_intersect(U, V, 4)
        assert len(inter) == 2

    def test_projector_idempotent_symmetric(self):
        rng = random.Random(13)
        for _ in range(50):
            k = rng.randint(0, 3)
            B = [tuple(rand_fraction(rng) for _ in range(4)) for _ in range(k)]
            P = projector_onto_complement(B, 4)
            assert P @ P == P
            assert all(
                P.entries[i][j] == P.entries[j][i] for i in range(4) for j in range(4)
            )
            # kills the spanned subspace exactly
            for b in B:
                assert all(c == 0 for c in P.apply(b))

    def test_projector_matches_the_reference(self):
        rng = random.Random(14)
        for _ in range(60):
            dim = rng.randint(1, 6)
            B = [tuple(rand_fraction(rng) if rng.random() < 0.7 else Fraction(0)
                       for _ in range(dim)) for _ in range(rng.randint(0, dim + 1))]
            assert projector_onto_complement(B, dim) == reference_projector_onto_complement(B, dim)

    def test_projector_eliminates_twice_in_any_dimension(self, monkeypatch):
        # the independent subset, then one Gram system for all dim columns
        calls = count_eliminations(monkeypatch)
        for dim in range(2, 8):
            calls.clear()
            B = [tuple(Fraction(i + j * j) for i in range(dim)) for j in range(2)]
            projector_onto_complement(B, dim)
            assert len(calls) == 2

    def test_intersection_of_reduced_inputs_is_independent(self):
        # (a, b) -> U a is injective on the kernel of [U | -V], so nothing
        # is dependent or zero and nothing is left for a final reduction
        rng = random.Random(15)
        sizes = set()
        for _ in range(150):
            dim = rng.randint(1, 6)

            def vectors(k):
                return [tuple(rand_fraction(rng) if rng.random() < 0.6 else Fraction(0)
                              for _ in range(dim)) for _ in range(k)]

            common = vectors(rng.randint(0, 2))
            U = reduce_basis(common + vectors(rng.randint(0, dim)), dim)
            V = reduce_basis(vectors(rng.randint(0, 2)) + common, dim)
            inter = subspace_intersect(U, V, dim)
            assert all(any(v) for v in inter)
            assert reduce_basis(inter, dim) == inter
            sizes.add(len(inter))
            for w in inter:  # in both spans
                for basis in (U, V):
                    assert reduce_basis(list(basis) + [w], dim) == list(basis)
        assert len(sizes) >= 3


    @staticmethod
    def independent_pair(rng, dim):
        """Two independent lists in Q^dim sharing some vectors of their spans."""
        def vectors(k):
            return [tuple(rand_fraction(rng) if rng.random() < 0.6 else Fraction(0)
                          for _ in range(dim)) for _ in range(k)]

        common = vectors(rng.randint(0, 2))
        return (reduce_basis(common + vectors(rng.randint(0, dim)), dim),
                reduce_basis(vectors(rng.randint(0, 2)) + common, dim))

    def test_intersection_matches_the_reference(self):
        rng = random.Random(16)
        for _ in range(150):
            dim = rng.randint(1, 6)
            U, V = self.independent_pair(rng, dim)
            assert subspace_intersect(U, V, dim) == reference_subspace_intersect(U, V, dim)

    def test_intersection_eliminates_once(self, monkeypatch):
        # the kernel of [U | -V] only; the reference reduces U and V first
        rng = random.Random(17)
        calls = count_eliminations(monkeypatch)
        for dim in range(2, 8):
            U, V = [], []
            while not U or not V:
                U, V = self.independent_pair(rng, dim)
            calls.clear()
            subspace_intersect(U, V, dim)
            assert len(calls) == 1
            calls.clear()
            reference_subspace_intersect(U, V, dim)
            assert len(calls) == 3

    def test_reduce_basis_checks_every_length(self):
        # a longer vector after the first: not a 3-vector in the basis, nor
        # a zero projector; a shorter one: not an IndexError
        for vectors, dim in [([(1, 0), (0, 1, 7)], 2), ([(1, 0, 0), (0, 1)], 3),
                             ([(0, 1, 7)], 2)]:
            with pytest.raises(ValueError, match="ambient dimension mismatch"):
                reduce_basis(vectors, dim)
            with pytest.raises(ValueError, match="ambient dimension mismatch"):
                projector_onto_complement(vectors, dim)

    def test_reduce_basis_is_the_column_space_basis(self):
        rng = random.Random(18)
        for _ in range(60):
            dim = rng.randint(1, 5)
            vs = [tuple(rng.choice((0, 0, 1, -2)) for _ in range(dim))
                  for _ in range(rng.randint(1, 6))]
            assert reduce_basis(vs, dim) == ScalarMatrix.from_columns(vs).column_space_basis()
        assert reduce_basis([], 3) == []


class TestPolyMatrix:
    def _random_poly_matrix(self, rng, rows, cols, deg):
        from helpers import rand_homogeneous

        return PolyMatrix(
            [[rand_homogeneous(rng, 2, deg) for _ in range(cols)] for _ in range(rows)]
        )

    def test_evaluation_commutes_with_product(self):
        rng = random.Random(15)
        for _ in range(30):
            a = self._random_poly_matrix(rng, 2, 3, 1)
            b = self._random_poly_matrix(rng, 3, 2, 2)
            x = rand_point(rng, 2)
            assert (a @ b).evaluate(list(x)) == a.evaluate(list(x)) @ b.evaluate(list(x))

    def test_minors_are_homogeneous(self):
        rng = random.Random(16)
        m = self._random_poly_matrix(rng, 3, 3, 1)
        for minor in m.minors(2):
            assert minor.is_zero or minor.homogeneous_degree() == 2

    def test_minors_match_evaluated_determinants(self):
        rng = random.Random(17)
        m = self._random_poly_matrix(rng, 2, 2, 1)
        x = rand_point(rng, 2)
        minors = m.minors(2)
        assert len(minors) == 1
        assert minors[0].evaluate(list(x)) == m.evaluate(list(x)).det()

    def test_charpoly_against_direct_determinant(self):
        rng = random.Random(18)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = self._random_poly_matrix(rng, n, n, 1)
            coeffs = m.charpoly()  # c_0..c_{n-1} of det(t*Id - M)
            x = rand_point(rng, 2)
            M = m.evaluate(list(x))
            # det(t*Id - M) as a univariate polynomial via a 1-var PolyMatrix
            t = MultiPoly.monomial(1, (1,))
            entries = [
                [
                    (t if i == j else MultiPoly.zero(1))
                    - MultiPoly.monomial(1, (0,), M.entries[i][j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
            char_direct = PolyMatrix(entries).minors(n)[0]
            for j, c in enumerate(coeffs):
                assert char_direct.terms.get((j,), Fraction(0)) == c.evaluate(list(x))


    def test_faddeev_leverrier_steps(self):
        # step k: c_{n-k}..c_{n-1} of the charpoly and
        # M^k + c_{n-1} M^(k-1) + ... + c_{n-k} Id
        rng = random.Random(20)
        for _ in range(10):
            n = rng.randint(1, 4)
            m = self._random_poly_matrix(rng, n, n, 1)
            cs = m.charpoly()
            for k in range(n + 1):
                coeffs, B = m.faddeev_leverrier(k)
                assert coeffs == cs[n - k:]
                expected = matrix_power(m, k)
                for j in range(1, k + 1):
                    expected = add_matrices(
                        expected, scale_by_poly(matrix_power(m, k - j), cs[n - j]))
                assert B == expected


def test_monomials_match_the_recursive_listing():
    for nvars in range(7):
        for deg in range(-1, 7):
            assert monomials_of_degree(nvars, deg) == reference_monomials_of_degree(nvars, deg)


def test_monomials_past_the_recursion_limit():
    assert monomials_of_degree(3000, 0) == [(0,) * 3000]
    ones = monomials_of_degree(1500, 1)
    assert len(ones) == 1500 and ones[0][0] == ones[-1][-1] == 1


def test_monomial_enumeration_counts():
    assert len(monomials_of_degree(2, 3)) == 4
    assert len(monomials_up_to_degree(2, 2)) == 6
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
