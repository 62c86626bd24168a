"""Differential tests: the certificates equal those of the reference
constructions in helpers.py, as objects and as serialized operators."""

import math
import random

import pytest

from symcheck import analysis, operators
from symcheck.analysis import (
    DegenerateCharpoly,
    HypothesesNotMet,
    NotInImage,
    construct_annihilator,
    construct_L,
    kernel_inclusion,
    polynomial_lift,
)
from symcheck.exact import MultiPoly, PolyMatrix, ScalarMatrix
from symcheck.groebner import GroebnerBasis
from symcheck.operators import (
    CATALOG_NAMES,
    OperatorFormatError,
    OperatorPair,
    catalog,
    from_symbol,
    grad_power,
    multi_index,
    ordered_tuples,
)
from helpers import (
    assert_same_operator,
    catalog_pair_grid,
    homogeneous_component,
    pair_at_s_4,
    rand_field,
    rand_op,
    rand_poly,
    rand_rational_op,
    reference_annihilator,
    reference_annihilator_op,
    reference_construct_L,
    reference_polynomial_lift,
    tf_sym_gradient,
)


def assert_same_certificate(pair):
    cert = construct_L(pair, 6)
    ref = reference_construct_L(pair, 6)
    assert cert == ref
    assert_same_operator(cert.L, ref.L)
    return cert


def random_pairs(seed, count):
    """Seeded random pairs whose inclusion holds: order-1 korn pairs (s = 0
    or 1), scalar quadrics in N = 3 (s = 2) and sobolev pairs of orders 2
    and 1 (s = 2 to 4, coefficients of degree s - 1)."""
    rng = random.Random(seed)
    shapes = [
        dict(N=2, d=2, l=3, lA=2, k=1, kA=1, mode="korn"),
        dict(N=3, d=2, l=4, lA=2, k=1, kA=1, mode="korn"),
        dict(N=3, d=1, l=3, lA=1, k=2, kA=2, mode="korn"),
        dict(N=2, d=1, l=2, lA=1, k=2, kA=1, mode="sobolev"),
        dict(N=2, d=2, l=3, lA=1, k=2, kA=1, mode="sobolev"),
    ]
    pairs = []
    for shape in shapes:
        found = 0
        while found < count:
            calA = rand_op(rng, N=shape["N"], d=shape["d"], l=shape["l"], k=shape["k"])
            A = rand_op(rng, N=shape["N"], d=shape["d"], l=shape["lA"], k=shape["kA"])
            pair = OperatorPair(calA, A, shape["mode"])
            try:
                if not kernel_inclusion(pair).holds:
                    continue
            except HypothesesNotMet:
                continue
            pairs.append(pair)
            found += 1
    return pairs


class TestFactorizationMatchesReference:
    def test_catalog_pairs(self):
        holding = 0
        for pair in catalog_pair_grid():
            try:
                if not kernel_inclusion(pair).holds:
                    continue
            except HypothesesNotMet:
                continue
            assert_same_certificate(pair)
            holding += 1
        assert holding >= 10

    def test_identity_and_full_gradient_pairs(self):
        g = catalog("gradient", 2)
        assert assert_same_certificate(OperatorPair(g, g, "korn")).s == 0
        pair = OperatorPair(catalog("sym_gradient", 2), grad_power(1, 2, 2), "korn")
        assert assert_same_certificate(pair).s == 1

    def test_trace_free_sym_gradient_needs_s_2(self):
        pair = OperatorPair(tf_sym_gradient(3), grad_power(1, 3, 3), "korn")
        cert = assert_same_certificate(pair)
        assert cert.s == 2 and cert.L.l == 3 ** 2 * 9  # N^s rows per row of D

    def test_sobolev_gradient_to_identity(self):
        pair = OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")
        cert = assert_same_certificate(pair)
        assert cert.s == 1 and cert.L.k == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pairs(self, seed):
        s_values = set()
        for pair in random_pairs(seed, 2):
            s_values.add(assert_same_certificate(pair).s)
        assert max(s_values) >= 2


class TestFactorizationFromDistinctRows:
    def test_no_operator_and_one_row_per_multi_index(self, monkeypatch):
        # row (b, i) of D^s o A depends on the multi-index of b only: the
        # identity is multiplied out on the C(N+s-1, s) l distinct rows, and
        # neither D^s nor a composition is built
        pairs = [OperatorPair(catalog("curl", 3), catalog("curl", 3)),
                 OperatorPair(catalog("sym_gradient", 2), grad_power(1, 2, 2)),
                 OperatorPair(tf_sym_gradient(3), grad_power(1, 3, 3)),
                 OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")]
        cases = [(pair, kernel_inclusion(pair), reference_construct_L(pair, 6))
                 for pair in pairs + random_pairs(0, 1)]

        def refuse(*args, **kwargs):
            raise AssertionError("construct_L built D^s or a composition")

        for module in (operators, analysis):
            monkeypatch.setattr(module, "grad_power", refuse, raising=False)
            monkeypatch.setattr(module, "compose", refuse, raising=False)
        rows = []
        matmul = PolyMatrix.__matmul__

        def counting(a, b):
            rows.append(a.rows)
            return matmul(a, b)

        monkeypatch.setattr(PolyMatrix, "__matmul__", counting)
        s_values = set()
        for pair, verdict, ref in cases:
            rows.clear()
            cert = construct_L(pair, 6, verdict=verdict)
            assert cert == ref
            assert rows == [math.comb(pair.A.N + cert.s - 1, cert.s) * pair.A.l]
            s_values.add(cert.s)
        assert {0, 1, 2, 4} <= s_values

    def test_every_coefficient_is_a_form_of_the_order_of_L(self, monkeypatch):
        # construct_L keeps each coefficient whole: the rows of calA and the
        # targets are homogeneous, so is every division step and S-pair, and
        # each representation already has degree deg(target) - ord calA
        express = GroebnerBasis.express
        nonzero = []

        def homogeneous(basis, target):
            coeffs = express(basis, target)
            if coeffs is not None:
                order = max(p.degree() for p in target) - max(
                    p.degree() for g in basis.input_gens for p in g)
                assert all(c.is_zero or c.homogeneous_degree() == order for c in coeffs)
                nonzero.extend(c for c in coeffs if not c.is_zero)
            return coeffs

        monkeypatch.setattr(GroebnerBasis, "express", homogeneous)
        pairs = [pair_at_s_4()]
        for pair in catalog_pair_grid():
            try:
                if kernel_inclusion(pair).holds:
                    pairs.append(pair)
            except HypothesesNotMet:
                pass
        for seed in (0, 1, 2):
            pairs += random_pairs(seed, 2)
        s_values = {construct_L(pair, 6).s for pair in pairs}
        assert max(s_values) == 4 and len(pairs) >= 40
        assert len(nonzero) >= 500

    @pytest.mark.parametrize("b", [(1, 0), (0, 0)])
    def test_a_changed_coefficient_fails_verification(self, monkeypatch, b):
        # tf_sym_gradient(3) -> D needs s = 2: the rows of the tuple (1, 0)
        # repeat those of (0, 1), and the rows of (0, 0) are the only ones of
        # their multi-index, so only the product with calA can catch them
        pair = OperatorPair(tf_sym_gradient(3), grad_power(1, 3, 3))
        verdict = kernel_inclusion(pair)
        row = ordered_tuples(3, 2).index(b) * pair.A.l + 4  # row i = 4 of A

        def tampered(name, sym, k):
            entries = [list(r) for r in sym.entries]
            entries[row][0] += MultiPoly.monomial(3, (k, 0, 0))
            return from_symbol(name, PolyMatrix(entries), k)

        monkeypatch.setattr(analysis, "from_symbol", tampered)
        with pytest.raises(AssertionError, match="^factorization identity failed exact verification$"):
            construct_L(pair, 6, verdict=verdict)


class TestLiftMatchesReference:
    def test_random_targets_from_every_degree(self):
        rng = random.Random(46)
        ops = [catalog("gradient", 2), catalog("divergence", 2),
               catalog("sym_gradient", 2), catalog("sym_gradient", 3),
               catalog("laplacian", 2)]
        for _ in range(30):
            A = rng.choice(ops)
            Pi = [rand_poly(rng, A.N, max_deg=A.k + 2) for _ in range(A.d)]
            pi = A.apply_to_poly(Pi)
            assert polynomial_lift(A, pi) == reference_polynomial_lift(A, pi)

    def test_constant_target(self):
        g = catalog("gradient", 2)
        pi = [MultiPoly.const(2, 3), MultiPoly.const(2, -1)]
        lift = polynomial_lift(g, pi)
        assert lift == reference_polynomial_lift(g, pi)
        assert [p.degree() for p in lift.Pi] == [1]

    def test_infeasible_target_fails_in_both(self):
        g = catalog("gradient", 2)
        pi_bad = [MultiPoly.monomial(2, (0, 1)), MultiPoly.zero(2)]
        for lift in (polynomial_lift, reference_polynomial_lift):
            with pytest.raises(NotInImage):
                lift(g, pi_bad)

    @staticmethod
    def outcome(lift, A, pi):
        try:
            return lift(A, pi)
        except NotInImage as exc:
            return f"NotInImage: {exc}"

    def assert_same_lifts(self, A, rng, degrees):
        """Both lifts of a target in the image and of a random target, in
        each degree; returns how many random targets were infeasible."""
        infeasible = 0
        for t in degrees:
            for pi in (A.apply_to_poly(rand_field(rng, A.N, A.d, t + A.k)),
                       rand_field(rng, A.N, A.l, t)):
                lift = self.outcome(polynomial_lift, A, pi)
                assert lift == self.outcome(reference_polynomial_lift, A, pi)
                infeasible += isinstance(lift, str)
        return infeasible

    def test_every_catalog_entry_in_two_and_three_variables(self):
        rng = random.Random(47)
        names = [(name, None) for name in CATALOG_NAMES if name != "div_k"] + [
            ("div_k", k) for k in range(6)]
        built = infeasible = 0
        for N in (2, 3):
            for name, k in names:
                try:
                    A = catalog(name, N, k)
                except OperatorFormatError:
                    continue
                built += 1
                infeasible += self.assert_same_lifts(A, rng, range(4))
        assert built == 27 and infeasible >= 10

    def test_target_degrees_up_to_five(self):
        rng = random.Random(48)
        for A in (catalog("gradient", 2), catalog("sym_gradient", 2), catalog("curl", 3),
                  catalog("divergence", 3), catalog("cauchy_riemann", 2)):
            self.assert_same_lifts(A, rng, [4, 5] if A.N == 2 or A.l == 1 else [4])

    @pytest.mark.parametrize("seed", range(3))
    def test_random_rational_operators(self, seed):
        # l < d and l > d, in the orders A takes in korn pairs (1, 2) and in
        # sobolev pairs (0, 1)
        rng = random.Random(seed)
        infeasible = 0
        for N, d, l, k in [(2, 3, 1, 1), (2, 1, 3, 1), (3, 2, 1, 2), (2, 1, 2, 2),
                           (2, 3, 2, 0), (3, 2, 3, 0), (3, 3, 2, 1), (2, 2, 3, 1)]:
            A = rand_rational_op(rng, N, d, l, k)
            infeasible += self.assert_same_lifts(A, rng, range(4))
        assert infeasible >= 5

    def test_infeasible_only_in_a_positive_degree(self):
        x = [MultiPoly.variable(2, i) for i in range(2)]
        one, zero = MultiPoly.const(2, 1), MultiPoly.zero(2)
        # the gradient: (x_2, 0) has nonzero curl; sym_gradient: a strain
        # with e_11 = x_2^2 breaks Saint-Venant compatibility, and every
        # strain of degree 0 or 1 is compatible
        for A, low, high, s in [
                (catalog("gradient", 2), [one, zero], [x[1], zero], 1),
                (catalog("sym_gradient", 2), [one, x[0], x[1]], [x[1] * x[1], zero, zero], 2)]:
            polynomial_lift(A, low)
            pi = [p + q for p, q in zip(low, high)]
            message = f"NotInImage: homogeneous component of degree {s} is not in the image"
            assert self.outcome(polynomial_lift, A, pi) == message
            assert self.outcome(reference_polynomial_lift, A, pi) == message

    def test_one_system_per_degree_and_no_operator(self, monkeypatch):
        # each degree s is one system of C(N+s-1, s) l rows, read off the
        # coefficients of A: no operator D^s o A and no matrix product
        rng = random.Random(49)
        cases = []
        for A in (catalog("sym_gradient", 3), catalog("curl", 3), catalog("laplacian", 2),
                  rand_rational_op(rng, 2, 2, 3, 1)):
            pi = A.apply_to_poly(rand_field(rng, A.N, A.d, 3 + A.k))
            rows = [math.comb(A.N + s - 1, s) * A.l for s in range(4)
                    if any(homogeneous_component(p, s) for p in pi)]
            cases.append((A, pi, rows))

        def refuse(*args, **kwargs):
            raise AssertionError("the lift built an operator or a matrix product")

        monkeypatch.setattr(operators, "from_symbol", refuse)
        monkeypatch.setattr(analysis, "from_symbol", refuse)
        monkeypatch.setattr(PolyMatrix, "__matmul__", refuse)
        sizes = []
        solve = ScalarMatrix.solve

        def counting(self, rhs):
            sizes.append(self.rows)
            return solve(self, rhs)

        monkeypatch.setattr(ScalarMatrix, "solve", counting)
        for A, pi, rows in cases:
            sizes.clear()
            polynomial_lift(A, pi)
            assert sizes == rows and len(rows) >= 3


class TestAnnihilatorMatchesReference:
    def test_catalog_and_random_operators(self, monkeypatch):
        # the matrix polynomial B each annihilator is built from, to convert
        # it the reference way too: the reference computes another B, equal
        # but with its terms in another order
        converted = []

        def recording_from_symbol(name, sym, k):
            op = from_symbol(name, sym, k)
            converted.append((op, reference_annihilator_op(sym, name, k)))
            return op

        monkeypatch.setattr(analysis, "from_symbol", recording_from_symbol)
        ops = [catalog(n, N) for n, N in [
            ("gradient", 2), ("gradient", 3), ("divergence", 2), ("curl", 3),
            ("sym_gradient", 2), ("sym_gradient", 3), ("laplacian", 2),
        ]] + [tf_sym_gradient(3)]
        rng = random.Random(47)
        ops += [rand_op(rng, N=2, d=rng.randint(1, 2), l=3, k=1) for _ in range(6)]
        built = 0
        for op in ops:
            try:
                ann = construct_annihilator(op)
            except DegenerateCharpoly:
                with pytest.raises(DegenerateCharpoly):
                    reference_annihilator(op)
                continue
            ref = reference_annihilator(op)
            assert ann == ref
            if ann.op is not None:
                assert_same_operator(ann.op, ref.op, same_order=False)
                op, by_reference = converted.pop()
                assert op is ann.op
                assert_same_operator(op, by_reference)
            built += 1
        assert built >= 10


@pytest.mark.parametrize("N,s,e", [(1, 3, 1), (2, 0, 2), (2, 2, 1), (3, 2, 2), (3, 3, 1)])
def test_multi_index_names_the_rows_of_grad_power(N, s, e):
    D = grad_power(s, e, N)
    for t, b in enumerate(ordered_tuples(N, s)):
        alpha = multi_index(b, N)
        assert sum(alpha) == s
        for i in range(e):
            for beta, m in D.terms.items():
                assert list(m[t * e + i]) == [int(beta == alpha and j == i) for j in range(e)]
