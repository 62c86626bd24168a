"""Buchberger engine for ideals and free-module submodules over Q, and the
origin-only test for homogeneous ideals.

Module elements are tuples of MultiPoly (rank-m free module over the
polynomial ring); ideals are the rank-1 case.  Every basis tracks exact
representation coefficients in terms of the original generators, so that
membership certificates come out of the reduction itself: one in-place
multiply-add on term maps serves division, representations and S-pairs.
The origin-only test needs no Groebner basis: `zero_dim_origin` decides it
by the rank of one Macaulay matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, sub
from typing import Optional, Sequence

from .exact import (
    MultiPoly,
    PolyMatrix,
    as_fractions,
    cofactors,
    common_denominator,
    forward_eliminate,
    grevlex_key,
    integer_form,
    monomials_of_degree,
    numerators,
)

ModuleElement = tuple  # tuple[MultiPoly, ...]

# Widest Macaulay matrix zero_dim_origin builds; past it the origin test
# raises MacaulayBudgetExceeded (the command line exits 3).
MACAULAY_MAX_COLUMNS = 2000
# Most S-pairs one Buchberger run processes (GroebnerBudgetExceeded, exit 3).
GROEBNER_MAX_SPAIRS = 5000


class MacaulayBudgetExceeded(Exception):
    """The origin-only test would need a Macaulay matrix with more than
    MACAULAY_MAX_COLUMNS columns."""

    def __init__(self, columns: int):
        super().__init__(
            f"origin test needs a Macaulay matrix with {columns} columns "
            f"(budget {MACAULAY_MAX_COLUMNS})"
        )
        self.columns = columns


class GroebnerBudgetExceeded(Exception):
    """A Buchberger run would process more than GROEBNER_MAX_SPAIRS S-pairs."""


class TermOrder:
    """Graded reverse lexicographic order on the ring, extended
    position-over-term (graded) to free modules.

    kind: "grevlex", the only order.  The module order compares total degree
    first, then prefers lower positions, then the ring order.
    """

    def __init__(self, kind: str = "grevlex"):
        if kind != "grevlex":
            raise ValueError(f"unknown term order {kind!r}")
        self.kind = kind

    def module_key(self, term: tuple[int, tuple[int, ...]]):
        pos, exp = term
        return (sum(exp), -pos, grevlex_key(exp))

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


def _term_map(g: ModuleElement) -> dict:
    return {(pos, exp): c for pos, p in enumerate(g) for exp, c in p.terms.items()}


def _polys(m: dict, length: int, nvars: int) -> list[MultiPoly]:
    """The term map m as `length` polynomials, one per position."""
    parts: list[dict] = [{} for _ in range(length)]
    for (pos, exp), c in m.items():
        parts[pos][exp] = c
    return [MultiPoly(nvars, p) for p in parts]


def _add_multiple(target: dict, c: int, shift: tuple[int, ...], source: dict):
    """target += c * x^shift * source, in place; terms that cancel are dropped."""
    for (pos, exp), v in source.items():
        key = (pos, tuple(map(add, exp, shift)))
        s = target.get(key, 0) + c * v
        if s:
            target[key] = s
        else:
            del target[key]


class GroebnerBasis:
    """Reduced Groebner basis with representation tracking.

    `generators` are the reduced basis elements (module elements); `reps[i]`
    expresses generators[i] as a polynomial combination of the original
    input generators.  Inside, each basis entry is (element, representation,
    leading term, integer form): term maps {(position, exponent): Fraction},
    a representation's positions being the input generators, and (G, Grep,
    den), their numerators over one positive common denominator.
    """

    def __init__(self, gens: Sequence[ModuleElement], order: TermOrder):
        # a zero generator seeds nothing but keeps its position in `reps`
        gens = [tuple(g) for g in gens]
        if not any(map(any, gens)):
            raise ValueError("empty (or all-zero) generator list")
        self.rank = len(gens[0])
        self.nvars = gens[0][0].nvars
        self.order = order
        self.input_gens = gens
        self._basis = self._autoreduce(self._buchberger())
        nv = self.nvars
        self.generators = [tuple(_polys(b[0], self.rank, nv)) for b in self._basis]
        self.reps = [_polys(b[1], len(gens), nv) for b in self._basis]

    # -- construction ----------------------------------------------------

    def _lead(self, g: dict) -> tuple[int, tuple[int, ...]]:
        return max(g, key=self.order.module_key)

    def _entry(self, g: dict, rep: dict) -> tuple:
        den = common_denominator(g, rep)
        return g, rep, self._lead(g), (numerators(g, den), numerators(rep, den), den)

    def _reduce(self, F: dict, R: Optional[dict], den: int, basis) -> tuple[dict, int]:
        """Division of F / den by `basis` (first divisor wins), consuming the
        integer term maps F and R (a representation, or None).

        Returns the remainder, as Fractions, no term of which is divisible
        by a leading term of the basis, and the denominator R ends over.
        With (G, Grep) the integer form of the divisor g, a step scales F, R
        and den by a and subtracts b * x^u * (G, Grep) (`cofactors`).
        """
        rem = {}
        while F:
            lead = self._lead(F)
            pos, exp = lead
            hit = next((b for b in basis if b[2][0] == pos
                        and all(x <= y for x, y in zip(b[2][1], exp))), None)
            if hit is None:
                rem[lead] = Fraction(F.pop(lead), den)
                continue
            _, _, glead, (G, Grep, _) = hit
            shift = tuple(map(sub, exp, glead[1]))
            a, b = cofactors(G[glead], F[lead])
            if a != 1:
                den *= a
                for m in (F, R or {}):
                    for k in m:
                        m[k] *= a
            _add_multiple(F, -b, shift, G)
            if R is not None:
                _add_multiple(R, -b, shift, Grep)
        return rem, den

    @staticmethod
    def _spair(a, b):
        """S-pair of two basis entries and its representation, as integer
        term maps over one denominator, and that denominator; None when
        their leading terms sit in different positions."""
        (gp, ge), (hp, he) = a[2], b[2]
        if gp != hp:
            return None
        top = tuple(map(max, ge, he))
        (G, Grep, _), (H, Hrep, _) = a[3], b[3]
        den = lcm(G[gp, ge], H[hp, he])
        s, rep = {}, {}
        for target, x, y in ((s, G, H), (rep, Grep, Hrep)):
            _add_multiple(target, den // G[gp, ge], tuple(map(sub, top, ge)), x)
            _add_multiple(target, -(den // H[hp, he]), tuple(map(sub, top, he)), y)
        return s, rep, den

    def _buchberger(self) -> list:
        basis: list = []

        def add(F, R, den) -> bool:
            rem, den = self._reduce(F, R, den, basis)
            if rem:
                basis.append(self._entry(rem, as_fractions(R, den)))
            return bool(rem)

        zero = (0,) * self.nvars
        for i, g in enumerate(self.input_gens):
            F, den = integer_form(_term_map(g))
            add(F, {(i, zero): den}, den)
        pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
        processed = 0
        while pairs:
            processed += 1
            if processed > GROEBNER_MAX_SPAIRS:
                raise GroebnerBudgetExceeded(
                    f"Groebner basis needs more than {GROEBNER_MAX_SPAIRS} S-pairs")
            i, j = pairs.pop(0)
            n = len(basis)
            pair = self._spair(basis[i], basis[j])
            if pair is not None and add(*pair):
                pairs.extend((n, t) for t in range(n))
        return basis

    def _autoreduce(self, basis: list) -> list:
        # tail-reduce every element, then normalize leading coefficients
        changed = True
        while changed:
            changed = False
            for i, (g, _, _, (G, Grep, den)) in enumerate(basis):
                R = dict(Grep)
                rem, den = self._reduce(dict(G), R, den, basis[:i] + basis[i + 1 :])
                if not rem:
                    del basis[i]
                    changed = True
                    break
                changed = changed or rem != g
                basis[i] = self._entry(rem, as_fractions(R, den))
        for i, (g, rep, lead, _) in enumerate(basis):
            inv = Fraction(1) / g[lead]
            basis[i] = self._entry({k: v * inv for k, v in g.items()},
                                   {k: v * inv for k, v in rep.items()})
        # deterministic ordering by leading term
        basis.sort(key=lambda b: self.order.module_key(b[2]))
        return basis

    # -- queries ----------------------------------------------------------

    def _remainder(self, f: ModuleElement, R: Optional[dict] = None) -> tuple[dict, int]:
        f = tuple(f)
        if len(f) != self.rank:
            raise ValueError("module rank mismatch")
        F, den = integer_form(_term_map(f))
        return self._reduce(F, R, den, self._basis)

    def normal_form(self, f: ModuleElement) -> ModuleElement:
        """Unique remainder of f modulo the basis."""
        return tuple(_polys(self._remainder(f)[0], self.rank, self.nvars))

    def express(self, target: ModuleElement):
        """Coefficients q_1..q_n with target = sum q_j * input_gens[j], or
        None if target is not in the module.

        Reducing target to zero tracks -sum q_j * input_gens[j] in `R`;
        the coefficients are read off it and not multiplied out here, so a
        caller checks the identity it relies on (as `construct_L` and
        `module_member_with_coeffs` do).
        """
        R: dict = {}
        rem, den = self._remainder(target, R)
        if rem:
            return None
        return _polys(as_fractions(R, -den), len(self.input_gens), self.nvars)

    def contains(self, f: ModuleElement) -> bool:
        return not self._remainder(f)[0]

    def leading_exponents(self) -> list[tuple[int, tuple[int, ...]]]:
        return [b[2] for b in self._basis]

    def verify(self) -> bool:
        """Buchberger criterion: every S-pair reduces to zero (exhaustive)."""
        basis = self._basis
        for i, a in enumerate(basis):
            for b in basis[:i]:
                pair = self._spair(a, b)
                if pair is not None and self._reduce(pair[0], None, pair[2], basis)[0]:
                    return False
        # the input generators must reduce to zero as well
        return all(self.contains(g) for g in self.input_gens)


# ---------------------------------------------------------------------------
# Ideal-level wrappers
# ---------------------------------------------------------------------------


def buchberger_ideal(gens: Sequence[MultiPoly]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    return GroebnerBasis([(g,) for g in gens], TermOrder())


def zero_dim_origin(gens: Sequence[MultiPoly]) -> bool:
    """True iff the homogeneous system has no common complex zero but 0.

    Macaulay's degree bound: let M be the largest generator degree and
    D = N(M-1)+1.  An ideal generated by forms of degree <= M whose only
    zero is the origin contains every form of degree D, and conversely
    x_i^D in I leaves only the origin.  So the answer is whether the
    products x^c g of degree D span all monomials of degree D, the full
    column rank of one sparse Macaulay matrix.  (Multiplying a generator of
    lower degree up to M first spans the same rows.)

    Two exact answers come before any enumeration: fewer than N generators
    cut out a positive-dimensional cone (Krull's height bound), and fewer
    rows than columns cannot have full column rank.  A matrix wider than
    MACAULAY_MAX_COLUMNS raises MacaulayBudgetExceeded.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return False
    degrees = [g.homogeneous_degree() for g in gens]
    if None in degrees:
        raise ValueError("zero_dim_origin requires homogeneous generators")
    nvars = gens[0].nvars
    if nvars == 0 or 0 in degrees:
        return True  # a nonzero constant generates the unit ideal
    if len(gens) < nvars:
        return False
    D = nvars * (max(degrees) - 1) + 1
    ncols = comb(D + nvars - 1, nvars - 1)
    if sum(comb(D - d + nvars - 1, nvars - 1) for d in degrees) < ncols:
        return False
    if ncols > MACAULAY_MAX_COLUMNS:
        raise MacaulayBudgetExceeded(ncols)
    # grevlex-descending columns: the elimination fills in less than in lex
    monomials = sorted(monomials_of_degree(nvars, D), key=grevlex_key, reverse=True)
    column = {m: j for j, m in enumerate(monomials)}
    # each generator scaled to integers once: scaling a row keeps the rank
    rows = (
        {column[tuple(map(add, c, e))]: v for e, v in g.items()}
        for g, d in zip([integer_form(g.terms)[0] for g in gens], degrees)
        for c in monomials_of_degree(nvars, D - d)
    )
    return len(forward_eliminate(rows, ncols)) == ncols


def module_member_with_coeffs(target: ModuleElement, gens: Sequence[ModuleElement]):
    """Express `target` in the module generated by `gens`, or return None.

    On success returns polynomials q_1..q_n, one per generator (zero ones
    included), with target = sum q_j * gens[j], re-verified as one matrix
    product.  To test several targets against the same generators, build
    one GroebnerBasis, call its `express` and check what the caller uses.
    """
    basis = GroebnerBasis(gens, TermOrder())
    coeffs = basis.express(target)
    if coeffs is not None and (PolyMatrix([coeffs]) @ PolyMatrix(basis.input_gens)
                               != PolyMatrix([target])):
        raise AssertionError("representation tracking produced a wrong identity")
    return coeffs
