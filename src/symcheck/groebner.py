"""Buchberger engine for ideals and free-module submodules over Q, and the
origin-only test for homogeneous ideals.

Module elements are tuples of MultiPoly (rank-m free module over the
polynomial ring); ideals are the rank-1 case.  Every basis tracks exact
representation coefficients in terms of the original generators, so that
membership certificates come out of the reduction itself.  The origin-only
test needs no Groebner basis: `zero_dim_origin` decides it by the rank of
one Macaulay matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .exact import (
    MultiPoly,
    forward_eliminate,
    grevlex_key,
    monomials_of_degree,
)

ModuleElement = tuple  # tuple[MultiPoly, ...]

# Widest Macaulay matrix zero_dim_origin builds; past it the origin test
# raises MacaulayBudgetExceeded (the command line exits 3).
MACAULAY_MAX_COLUMNS = 2000


class MacaulayBudgetExceeded(Exception):
    """The origin-only test would need a Macaulay matrix with more than
    MACAULAY_MAX_COLUMNS columns."""

    def __init__(self, columns: int):
        super().__init__(
            f"origin test needs a Macaulay matrix with {columns} columns "
            f"(budget {MACAULAY_MAX_COLUMNS})"
        )
        self.columns = columns


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

    def key(self, exp: tuple[int, ...]):
        return grevlex_key(exp)

    def module_key(self, term: tuple[int, tuple[int, ...]]):
        pos, exp = term
        return (sum(exp), -pos, grevlex_key(exp))

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


def _leading_term(g: ModuleElement, order: TermOrder):
    """Leading (position, exponent) and coefficient of a module element."""
    best = None
    for pos, p in enumerate(g):
        for exp in p.terms:
            t = (pos, exp)
            if best is None or order.module_key(t) > order.module_key(best):
                best = t
    if best is None:
        return None, None
    return best, g[best[0]].terms[best[1]]


def _mono_mul(g: ModuleElement, exp: tuple[int, ...], c) -> ModuleElement:
    nv = g[0].nvars
    m = MultiPoly.monomial(nv, exp, c)
    return tuple(p * m for p in g)


def _sub(g: ModuleElement, h: ModuleElement) -> ModuleElement:
    return tuple(a - b for a, b in zip(g, h))


def _is_zero_elt(g: ModuleElement) -> bool:
    return all(p.is_zero for p in g)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


class GroebnerBasis:
    """Reduced Groebner basis with representation tracking.

    `generators` are the reduced basis elements (module elements); `reps[i]`
    expresses generators[i] as a polynomial combination of the original
    input generators.
    """

    def __init__(self, gens: Sequence[ModuleElement], order: TermOrder):
        gens = [tuple(g) for g in gens if not _is_zero_elt(g)]
        if not gens:
            raise ValueError("empty (or all-zero) generator list")
        self.rank = len(gens[0])
        self.nvars = gens[0][0].nvars
        self.order = order
        self.input_gens = list(gens)
        self.generators: list[ModuleElement] = []
        self.reps: list[list[MultiPoly]] = []
        self._buchberger()
        self._autoreduce()

    # -- construction ----------------------------------------------------

    def _divide(self, f: ModuleElement, basis):
        """Division of f by `basis` (first divisor wins).

        Returns the remainder, no term of which is divisible by a leading
        term of the basis, and quotients q_i with
        f = sum q_i * basis[i] + remainder.
        """
        order = self.order
        leads = [_leading_term(g, order) for g in basis]
        zero = MultiPoly.zero(self.nvars)
        quots = [zero] * len(basis)
        rem = (zero,) * self.rank
        work = f
        while not _is_zero_elt(work):
            (pos, exp), lc = _leading_term(work, order)
            hit = next(
                (
                    i
                    for i, ((gpos, gexp), _) in enumerate(leads)
                    if gpos == pos and _divides(gexp, exp)
                ),
                None,
            )
            if hit is None:
                # move the leading term to the remainder
                mono = MultiPoly.monomial(self.nvars, exp, lc)
                rem = tuple(r + mono if j == pos else r for j, r in enumerate(rem))
                work = tuple(w - mono if j == pos else w for j, w in enumerate(work))
                continue
            (_, gexp), gc = leads[hit]
            qexp = tuple(a - b for a, b in zip(exp, gexp))
            qc = lc / gc
            quots[hit] = quots[hit] + MultiPoly.monomial(self.nvars, qexp, qc)
            work = _sub(work, _mono_mul(basis[hit], qexp, qc))
        return rem, quots

    def _reduce_full(self, f: ModuleElement, rep: list[MultiPoly], basis, reps):
        """Remainder of f modulo basis, with its representation: rep minus
        the quotients applied to the basis elements' representations."""
        rem, quots = self._divide(f, basis)
        for q, qrep in zip(quots, reps):
            if not q.is_zero:
                rep = [r - q * gr for r, gr in zip(rep, qrep)]
        return rem, list(rep)

    def _buchberger(self):
        n_in = len(self.input_gens)
        basis: list[ModuleElement] = []
        reps: list[list[MultiPoly]] = []
        for i, g in enumerate(self.input_gens):
            rep = [
                MultiPoly.const(self.nvars, 1) if j == i else MultiPoly.zero(self.nvars)
                for j in range(n_in)
            ]
            rem, rrep = self._reduce_full(g, rep, basis, reps)
            if not _is_zero_elt(rem):
                basis.append(rem)
                reps.append(rrep)
        pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
        while pairs:
            i, j = pairs.pop(0)
            s, srep = self._spair(basis[i], reps[i], basis[j], reps[j])
            if s is None:
                continue
            rem, rrep = self._reduce_full(s, srep, basis, reps)
            if not _is_zero_elt(rem):
                pairs.extend((len(basis), t) for t in range(len(basis)))
                basis.append(rem)
                reps.append(rrep)
        self.generators = basis
        self.reps = reps

    def _spair(self, g, grep, h, hrep):
        (gp, ge), gc = _leading_term(g, self.order)
        (hp, he), hc = _leading_term(h, self.order)
        if gp != hp:
            return None, None
        lcm = tuple(max(a, b) for a, b in zip(ge, he))
        ug = tuple(a - b for a, b in zip(lcm, ge))
        uh = tuple(a - b for a, b in zip(lcm, he))
        s = _sub(
            _mono_mul(g, ug, Fraction(1) / gc),
            _mono_mul(h, uh, Fraction(1) / hc),
        )
        mg = MultiPoly.monomial(self.nvars, ug, Fraction(1) / gc)
        mh = MultiPoly.monomial(self.nvars, uh, Fraction(1) / hc)
        rep = [mg * a - mh * b for a, b in zip(grep, hrep)]
        return s, rep

    def _autoreduce(self):
        # normalize leading coefficients and tail-reduce every element
        changed = True
        while changed:
            changed = False
            for i in range(len(self.generators)):
                others = self.generators[:i] + self.generators[i + 1 :]
                oreps = self.reps[:i] + self.reps[i + 1 :]
                rem, rrep = self._reduce_full(
                    self.generators[i], self.reps[i], others, oreps
                )
                if _is_zero_elt(rem):
                    del self.generators[i]
                    del self.reps[i]
                    changed = True
                    break
                if rem != self.generators[i]:
                    changed = True
                self.generators[i] = rem
                self.reps[i] = rrep
        for i, g in enumerate(self.generators):
            _, lc = _leading_term(g, self.order)
            inv = Fraction(1) / lc
            self.generators[i] = tuple(p * inv for p in g)
            self.reps[i] = [p * inv for p in self.reps[i]]
        # deterministic ordering by leading term
        idx = sorted(
            range(len(self.generators)),
            key=lambda i: self.order.module_key(
                _leading_term(self.generators[i], self.order)[0]
            ),
        )
        self.generators = [self.generators[i] for i in idx]
        self.reps = [self.reps[i] for i in idx]

    # -- queries ----------------------------------------------------------

    def normal_form(self, f: ModuleElement, with_quotients: bool = False):
        """Unique remainder of f modulo the basis.

        With with_quotients=True also returns quotients q_i against the
        reduced basis such that f = sum q_i * generators[i] + remainder.
        """
        f = tuple(f)
        if len(f) != self.rank:
            raise ValueError("module rank mismatch")
        rem, quots = self._divide(f, self.generators)
        if with_quotients:
            return rem, quots
        return rem

    def express(self, target: ModuleElement):
        """Coefficients q_1..q_n with target = sum q_j * input_gens[j], or
        None if target is not in the module; re-verified by exact expansion."""
        rem, quots = self.normal_form(target, with_quotients=True)
        if not _is_zero_elt(rem):
            return None
        nv = self.nvars
        coeffs = [MultiPoly.zero(nv) for _ in self.input_gens]
        for q, rep in zip(quots, self.reps):
            if not q.is_zero:
                coeffs = [c + q * r for c, r in zip(coeffs, rep)]
        acc = tuple(MultiPoly.zero(nv) for _ in range(self.rank))
        for c, g in zip(coeffs, self.input_gens):
            acc = tuple(a + c * p for a, p in zip(acc, g))
        if acc != tuple(target):
            raise AssertionError("representation tracking produced a wrong identity")
        return coeffs

    def contains(self, f: ModuleElement) -> bool:
        return _is_zero_elt(self.normal_form(f))

    def leading_exponents(self) -> list[tuple[int, tuple[int, ...]]]:
        return [_leading_term(g, self.order)[0] for g in self.generators]

    def verify(self) -> bool:
        """Buchberger criterion: every S-pair reduces to zero (exhaustive)."""
        for i in range(len(self.generators)):
            for j in range(i):
                s, _ = self._spair(
                    self.generators[i], self.reps[i], self.generators[j], self.reps[j]
                )
                if s is None:
                    continue
                if not _is_zero_elt(self.normal_form(s)):
                    return False
        # the input generators must reduce to zero as well
        return all(self.contains(g) for g in self.input_gens)


# ---------------------------------------------------------------------------
# Ideal-level wrappers
# ---------------------------------------------------------------------------


def buchberger_ideal(gens: Sequence[MultiPoly], order: Optional[TermOrder] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    order = order or TermOrder("grevlex")
    wrapped = [(g,) for g in gens if not g.is_zero]
    if not wrapped:
        raise ValueError("empty (or all-zero) generator list")
    return GroebnerBasis(wrapped, order)


def normal_form_ideal(f: MultiPoly, G: GroebnerBasis) -> MultiPoly:
    if G.rank != 1:
        raise ValueError("not an ideal basis")
    return G.normal_form((f,))[0]


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
    rows = (
        {column[tuple(a + b for a, b in zip(c, e))]: v for e, v in g.terms.items()}
        for g, d in zip(gens, degrees)
        for c in monomials_of_degree(nvars, D - d)
    )
    return len(forward_eliminate(rows, ncols)) == ncols


def module_member_with_coeffs(
    target: ModuleElement,
    gens: Sequence[ModuleElement],
    order: Optional[TermOrder] = None,
):
    """Express `target` in the module generated by `gens`, or return None.

    On success returns polynomials q_1..q_n with target = sum q_j * gens[j],
    re-verified by exact expansion.  To test several targets against the
    same generators, build one GroebnerBasis and call its `express`.
    """
    return GroebnerBasis(gens, order or TermOrder("grevlex")).express(target)
