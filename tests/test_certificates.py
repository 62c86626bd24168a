"""Differential tests: the certificates equal those of the reference
constructions in helpers.py, as objects and as serialized operators."""

import random

import pytest

from symcheck.analysis import (
    DegenerateCharpoly,
    HypothesesNotMet,
    NotInImage,
    construct_annihilator,
    construct_L,
    kernel_inclusion,
    polynomial_lift,
)
from symcheck.exact import MultiPoly
from symcheck.operators import (
    OperatorPair,
    catalog,
    grad_power,
    multi_index,
    ordered_tuples,
    serialize_op,
)
from helpers import (
    catalog_pair_grid,
    rand_op,
    rand_poly,
    reference_annihilator,
    reference_construct_L,
    reference_polynomial_lift,
    tf_sym_gradient,
)


def assert_same_certificate(pair):
    cert = construct_L(pair, 6)
    ref = reference_construct_L(pair, 6)
    assert cert == ref
    assert serialize_op(cert.L) == serialize_op(ref.L)
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


class TestAnnihilatorMatchesReference:
    def test_catalog_and_random_operators(self):
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
                assert serialize_op(ann.op) == serialize_op(ref.op)
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
