import random
import sys
from fractions import Fraction

import pytest

from symcheck.exact import MultiPoly
from symcheck import operators
from symcheck.operators import (
    CATALOG_MAX_INTEGERS,
    CATALOG_NAMES,
    DIV_K_MAX_COMPONENTS,
    QUOTED_ENTRY_CHARS,
    CatalogBudgetExceeded,
    DiffOp,
    OperatorFormatError,
    OperatorPair,
    catalog,
    catalog_integers,
    compose,
    from_symbol,
    grad_power,
    multiindex_count,
    op_from_dict,
    op_to_dict,
    parse_op,
    serialize_op,
    stack,
)
from helpers import (
    assert_same_operator,
    entry_term_orders,
    rand_op,
    rand_point,
    rand_poly,
    reference_catalog,
    reference_compose,
    reference_grad_power,
    reference_stack,
    reference_symbol,
)


class TestDiffOp:
    def test_symbol_homogeneity(self):
        rng = random.Random(30)
        for _ in range(30):
            op = rand_op(rng)
            sym = op.symbol()
            x = rand_point(rng, op.N)
            t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            scaled = tuple(t * c for c in x)
            a = sym.evaluate(list(scaled))
            b = sym.evaluate(list(x))
            factor = t ** op.k
            assert all(
                a.entries[i][j] == factor * b.entries[i][j]
                for i in range(op.l)
                for j in range(op.d)
            )

    def test_order_mismatch_rejected(self):
        with pytest.raises(OperatorFormatError, match="order mismatch"):
            DiffOp("bad", 2, 1, 1, 2, {(1, 0): [[Fraction(1)]]})

    def test_apply_to_poly_matches_direct_differentiation(self):
        rng = random.Random(31)
        for _ in range(50):
            op = rand_op(rng)
            u = [rand_poly(rng, op.N, max_deg=3) for _ in range(op.d)]
            out = op.apply_to_poly(u)
            for i in range(op.l):
                expected = MultiPoly.zero(op.N)
                for alpha, m in op.terms.items():
                    for j in range(op.d):
                        if m[i][j]:
                            expected = expected + u[j].derivative_multi(alpha) * m[i][j]
                assert out[i] == expected

    def test_content_hash_distinguishes_coefficients(self):
        g = catalog("gradient", 2)
        h = DiffOp("gradient", 2, 1, 2, 1, {
            (1, 0): [[Fraction(2)], [Fraction(0)]],
            (0, 1): [[Fraction(0)], [Fraction(1)]],
        })
        assert g.content_hash() != h.content_hash()
        assert g.content_hash() == catalog("gradient", 2).content_hash()


class TestCompose:
    def test_symbol_of_composition_is_the_product(self):
        rng = random.Random(32)
        count = 0
        while count < 50:
            A = rand_op(rng)
            L = rand_op(rng, N=A.N, d=A.l)
            c = compose(L, A)
            assert c.k == L.k + A.k
            lhs = c.symbol()
            rhs = L.symbol() @ A.symbol()
            assert lhs.entries == rhs.entries
            count += 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(catalog("gradient", 2), catalog("gradient", 2))


class TestGradPower:
    def test_shape_and_rows(self):
        D2 = grad_power(2, 1, 2)
        assert (D2.l, D2.d, D2.k) == (4, 1, 2)
        # each row of the symbol is a pure monomial xi_{b1}...xi_{bs}
        sym = D2.symbol()
        row_monos = sorted(
            next(iter(sym.entries[i][0].terms)) for i in range(D2.l)
        )
        assert row_monos == [(0, 2), (1, 1), (1, 1), (2, 0)]

    def test_degree_zero_is_identity(self):
        D0 = grad_power(0, 3, 2)
        assert (D0.l, D0.d, D0.k) == (3, 3, 0)
        sym = D0.symbol()
        for i in range(3):
            for j in range(3):
                expected = MultiPoly.monomial(2, (0, 0)) if i == j else MultiPoly.zero(2)
                assert sym.entries[i][j] == expected

    def test_tower_property(self):
        # D^(s1+s2) rows coincide with those of D^s1 composed with D^s2,
        # up to the row ordering
        c = compose(grad_power(1, 2, 2), grad_power(1, 1, 2))
        direct = grad_power(2, 1, 2)
        rows_c = sorted(tuple(p.terms.items() for p in row) for row in c.symbol().entries)
        rows_d = sorted(tuple(p.terms.items() for p in row) for row in direct.symbol().entries)
        assert rows_c == rows_d


class TestCatalog:
    def test_dimensions(self):
        table = {
            ("gradient", 2): (1, 2, 1),
            ("gradient", 3): (1, 3, 1),
            ("divergence", 2): (2, 1, 1),
            ("divergence", 3): (3, 1, 1),
            ("curl", 3): (3, 3, 1),
            ("curl", 2): (2, 1, 1),
            ("sym_gradient", 2): (2, 3, 1),
            ("sym_gradient", 3): (3, 6, 1),
            ("laplacian", 2): (1, 1, 2),
            ("bilaplacian", 2): (1, 1, 4),
            ("cauchy_riemann", 2): (2, 2, 1),
            ("d2_laplacian", 2): (1, 4, 4),
        }
        for (name, N), (d, l, k) in table.items():
            op = catalog(name, N)
            assert (op.d, op.l, op.k) == (d, l, k), name

    def test_curl_of_a_gradient_vanishes(self):
        rng = random.Random(33)
        f = rand_poly(rng, 3, max_deg=4)
        grad_f = catalog("gradient", 3).apply_to_poly([f])
        out = catalog("curl", 3).apply_to_poly(grad_f)
        assert all(p.is_zero for p in out)

    def test_divergence_of_a_curl_vanishes(self):
        rng = random.Random(34)
        u = [rand_poly(rng, 3, max_deg=4) for _ in range(3)]
        curl_u = catalog("curl", 3).apply_to_poly(u)
        out = catalog("divergence", 3).apply_to_poly(curl_u)
        assert all(p.is_zero for p in out)

    def test_bilaplacian_is_laplacian_squared(self):
        lap = catalog("laplacian", 2)
        bilap = catalog("bilaplacian", 2)
        assert bilap.symbol().entries == compose(lap, lap).symbol().entries

    def test_div_k_component_count(self):
        op = catalog("div_k", 2, k=2)
        assert op.d == multiindex_count(2, 2) == 3
        assert multiindex_count(3, 2) == 6

    def test_sym_gradient_weights(self):
        op = catalog("sym_gradient", 2)
        assert op.weights == (Fraction(1), Fraction(1), Fraction(2))

    def test_unknown_name(self):
        with pytest.raises((KeyError, ValueError)):
            catalog("nonsense", 2)

    def test_div_k_past_the_budget(self, monkeypatch):
        # N = 2 has k + 1 components: one past the budget, refused before
        # the monomials are listed
        def refuse(*args):
            raise AssertionError("div_k started work past the budget")
        monkeypatch.setattr(operators, "monomials_of_degree", refuse)
        with pytest.raises(CatalogBudgetExceeded, match=f"{DIV_K_MAX_COMPONENTS + 1} components"):
            catalog("div_k", 2, k=DIV_K_MAX_COMPONENTS)

    def test_integers_in_closed_form(self):
        # one multi-index of N entries and one l x d matrix per term
        checked = 0
        for name in CATALOG_NAMES:
            for N in range(1, 7):
                for k in (range(6) if name == "div_k" else (None,)):
                    try:
                        op = catalog(name, N, k)
                    except OperatorFormatError:
                        continue
                    assert catalog_integers(name, N, k) == len(op.terms) * (N + op.l * op.d)
                    checked += 1
        # five names in every N, curl and sym_gradient in two, cauchy_riemann in one
        assert checked == 5 * 6 + 2 + 2 + 1 + 6 * 6

    @pytest.mark.parametrize("name,N,size", [("gradient", 3000, 18_000_000),
                                             ("d2_laplacian", 24, 4_154_400),
                                             ("div_k", 2_000_000, 2_000_001)])
    def test_past_the_integer_budget(self, monkeypatch, name, N, size):
        # refused before the variables or the monomials are built
        def refuse(*args):
            raise AssertionError("catalog started work past the budget")
        monkeypatch.setattr(MultiPoly, "variable", refuse)
        monkeypatch.setattr(operators, "monomials_of_degree", refuse)
        with pytest.raises(CatalogBudgetExceeded, match=f"stores {size} integers"):
            catalog(name, N, 0 if name == "div_k" else None)

    def test_div_k_at_its_component_budget_is_within_the_integer_budget(self):
        k = DIV_K_MAX_COMPONENTS - 1
        assert catalog_integers("div_k", 2, k) == CATALOG_MAX_INTEGERS
        assert catalog("div_k", 2, k).d == DIV_K_MAX_COMPONENTS

    @pytest.mark.parametrize("k", [-1, -7])
    def test_div_k_negative_order(self, k):
        with pytest.raises(OperatorFormatError, match=f"k to be nonnegative, got k = {k}"):
            catalog("div_k", 2, k=k)


class TestStack:
    def test_stacked_symbol(self):
        g = catalog("gradient", 2)
        s = stack(g, g)
        assert s.l == 4
        sym = s.symbol()
        for i in range(2):
            for j in range(g.d):
                assert sym.entries[i][j] == sym.entries[i + 2][j]


class TestMatchesReference:
    """Operators built from their symbols against the reference
    constructions in helpers.py, which multiply and merge coefficient
    matrices: equal operators, serializations and symbols; D^s and the
    catalog composites also list their multi-indices in the same order."""

    def test_symbol(self):
        rng = random.Random(36)
        for _ in range(40):
            op = rand_op(rng, N=rng.randint(1, 3), d=rng.randint(1, 3), l=rng.randint(1, 3))
            assert op.symbol() == reference_symbol(op)
            assert entry_term_orders(op.symbol()) == entry_term_orders(reference_symbol(op))

    def test_from_symbol_inverts_symbol(self):
        rng = random.Random(37)
        for _ in range(40):
            op = rand_op(rng, N=rng.randint(1, 3), d=rng.randint(1, 3), l=rng.randint(1, 3))
            assert from_symbol(op.name, op.symbol(), op.k) == op

    def test_compose(self):
        rng = random.Random(38)
        built = 0
        while built < 40:
            A = rand_op(rng, N=rng.randint(2, 3), d=rng.randint(1, 3), l=rng.randint(1, 3))
            L = rand_op(rng, N=A.N, d=A.l, l=rng.randint(1, 3))
            try:
                ref = reference_compose(L, A)
            except OperatorFormatError:  # the product symbol is zero
                with pytest.raises(OperatorFormatError):
                    compose(L, A)
                continue
            assert_same_operator(compose(L, A), ref, same_order=False)
            built += 1

    @pytest.mark.parametrize("s,e,N", [(0, 1, 1), (0, 3, 2), (1, 2, 2), (2, 1, 3),
                                       (2, 3, 3), (3, 2, 2), (4, 1, 3)])
    def test_grad_power(self, s, e, N):
        assert_same_operator(grad_power(s, e, N), reference_grad_power(s, e, N))

    def test_stack(self):
        rng = random.Random(39)
        for _ in range(40):
            N, d, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
            A1 = rand_op(rng, N=N, d=d, k=k, l=rng.randint(1, 3))
            A2 = rand_op(rng, N=N, d=d, k=k, l=rng.randint(1, 3))
            assert_same_operator(stack(A1, A2), reference_stack(A1, A2), same_order=False)
        sg, D = catalog("sym_gradient", 3), grad_power(1, 3, 3)
        for A1, A2 in ((sg, D), (D, sg), (sg, sg)):  # weights on one side or both
            assert_same_operator(stack(A1, A2), reference_stack(A1, A2), same_order=False)

    @pytest.mark.parametrize("N", [2, 3])
    def test_catalog_composites(self, N):
        lap = catalog("laplacian", N)
        bilap = reference_compose(lap, lap)
        assert_same_operator(catalog("bilaplacian", N),
                             DiffOp("bilaplacian", N, 1, 1, 4, bilap.terms))
        d2lap = reference_compose(reference_grad_power(2, 1, N), lap)
        assert_same_operator(catalog("d2_laplacian", N),
                             DiffOp("d2_laplacian", N, 1, d2lap.l, 4, d2lap.terms))

    @pytest.mark.parametrize("name,N,k", [(name, N, None) for name in CATALOG_NAMES
                                          for N in range(1, 5)]
                             + [("div_k", N, k) for N in range(1, 5) for k in range(5)])
    def test_catalog(self, name, N, k):
        # curl lists its multi-indices in another order than the reference;
        # each of its symbol entries has a single term
        try:
            ref = reference_catalog(name, N, k)
        except OperatorFormatError as exc:
            with pytest.raises(OperatorFormatError) as err:
                catalog(name, N, k)
            assert str(err.value) == str(exc)
            return
        op = catalog(name, N, k)
        assert_same_operator(op, ref, same_order=name != "curl")
        assert (op.content_hash(), op.weights) == (ref.content_hash(), ref.weights)


class TestSerialization:
    def test_round_trip_randomized(self):
        rng = random.Random(35)
        for _ in range(50):
            op = rand_op(rng)
            back = parse_op(serialize_op(op))
            assert back.terms == op.terms
            assert (back.N, back.d, back.l, back.k) == (op.N, op.d, op.l, op.k)

    def test_round_trip_preserves_weights(self):
        op = catalog("sym_gradient", 2)
        assert parse_op(serialize_op(op)).weights == op.weights

    def test_zero_denominator(self):
        data = op_to_dict(catalog("gradient", 2))
        data["terms"][0]["matrix"][0][0] = "1/0"
        with pytest.raises(OperatorFormatError, match="zero denominator"):
            op_from_dict(data)

    def test_malformed_rational(self):
        data = op_to_dict(catalog("gradient", 2))
        data["terms"][0]["matrix"][0][0] = "one half"
        with pytest.raises(OperatorFormatError, match="malformed rational"):
            op_from_dict(data)

    def test_malformed_rational_names_its_field(self):
        for (t, r, c), entry, message in [
                ((1, 2, 0), "0.5", "malformed rational '0.5'"),
                ((0, 0, 1), "3/0", "zero denominator in rational '3/0'"),
                ((1, 0, 0), "1/", "malformed rational '1/'")]:
            data = op_to_dict(catalog("sym_gradient", 2))
            data["terms"][t]["matrix"][r][c] = entry
            with pytest.raises(OperatorFormatError) as err:
                op_from_dict(data)
            assert str(err.value) == f"terms[{t}].matrix[{r}][{c}]: {message}"
        data = op_to_dict(catalog("sym_gradient", 2))
        data["weights"][2] = "two"
        with pytest.raises(OperatorFormatError) as err:
            op_from_dict(data)
        assert str(err.value) == "weights[2]: malformed rational 'two'"

    def test_entry_past_the_digit_limit_names_its_field(self):
        data = op_to_dict(catalog("gradient", 2))
        data["terms"][0]["matrix"][1][0] = "7" * 5000
        with pytest.raises(OperatorFormatError, match=r"^terms\[0\]\.matrix\[1\]\[0\]: malformed rational") as err:
            op_from_dict(data)
        # a prefix of the entry and its length, not all 5000 digits
        assert len(str(err.value)) < 200
        assert str(err.value).endswith(f"'{'7' * QUOTED_ENTRY_CHARS}'... (5000 characters)")

    def test_digit_limit_is_named(self):
        limit = sys.get_int_max_str_digits()
        for entry in ("7" * (limit + 1), "-1/" + "3" * (limit + 1), "7" * (limit + 1) + "."):
            data = op_to_dict(catalog("gradient", 2))
            data["terms"][0]["matrix"][1][0] = entry
            with pytest.raises(OperatorFormatError) as err:
                op_from_dict(data)
            assert str(err.value).startswith(
                f"terms[0].matrix[1][0]: malformed rational, an integer past Python's "
                f"limit of {limit} digits, {entry[:QUOTED_ENTRY_CHARS]!r}...")
        # an entry of `limit` digits parses, and one with no run that long
        # does not name the limit
        data["terms"][0]["matrix"][1][0] = "7" * limit
        alpha = tuple(data["terms"][0]["alpha"])
        assert op_from_dict(data).terms[alpha][1][0] == int("7" * limit)
        data["terms"][0]["matrix"][1][0] = "7" * (limit - 1) + "/x"
        with pytest.raises(OperatorFormatError) as err:
            op_from_dict(data)
        assert "limit" not in str(err.value)

    def test_long_entries_are_clipped(self):
        for entry, message in [
                ("7" * QUOTED_ENTRY_CHARS + ".", "malformed rational"),
                ("7" * 4000 + "/0", "zero denominator in rational")]:
            data = op_to_dict(catalog("gradient", 2))
            data["terms"][1]["matrix"][0][0] = entry
            with pytest.raises(OperatorFormatError) as err:
                op_from_dict(data)
            assert str(err.value) == (f"terms[1].matrix[0][0]: {message} {entry[:QUOTED_ENTRY_CHARS]!r}"
                                      f"... ({len(entry)} characters)")
        # an entry of QUOTED_ENTRY_CHARS characters is quoted whole
        data["terms"][1]["matrix"][0][0] = entry = "7" * (QUOTED_ENTRY_CHARS - 1) + "."
        with pytest.raises(OperatorFormatError) as err:
            op_from_dict(data)
        assert str(err.value) == f"terms[1].matrix[0][0]: malformed rational {entry!r}"

    def test_order_mismatch_diagnostic(self):
        data = op_to_dict(catalog("gradient", 2))
        data["terms"].append({"alpha": [1, 1], "matrix": [["1"], ["0"]]})
        with pytest.raises(OperatorFormatError, match="order mismatch"):
            op_from_dict(data)

    def test_serialization_is_canonical(self):
        op = catalog("sym_gradient", 3)
        assert serialize_op(op) == serialize_op(parse_op(serialize_op(op)))


class TestOperatorPair:
    def test_korn_requires_equal_order(self):
        with pytest.raises(ValueError):
            OperatorPair(catalog("laplacian", 2), catalog("gradient", 2), "korn")

    def test_sobolev_requires_order_drop(self):
        pair = OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")
        assert pair.mode == "sobolev"

    def test_unknown_mode(self):
        g = catalog("gradient", 2)
        with pytest.raises(ValueError):
            OperatorPair(g, g, "weird")
