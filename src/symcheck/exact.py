"""Exact multivariate polynomials and linear algebra over Q.

Everything in this module is immutable after construction and all operations
are pure.  The zero polynomial is the empty term map; there are no epsilon
comparisons anywhere.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence


def monomials_of_degree(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """All exponent vectors in `nvars` variables of total degree `deg`, in
    decreasing lexicographic order. Each next vector moves one unit from the
    last nonzero entry before the final one into the entry after it, which
    also takes what the final entry held."""
    if nvars == 0 or deg < 0:
        return [()] if nvars == deg == 0 else []
    e = [deg] + [0] * (nvars - 1)
    out = [tuple(e)]
    while e[-1] != deg:
        i = nvars - 2
        while not e[i]:
            i -= 1
        last, e[-1] = e[-1], 0
        e[i] -= 1
        e[i + 1] = last + 1
        out.append(tuple(e))
    return out


def monomials_up_to_degree(nvars: int, deg: int) -> list[tuple[int, ...]]:
    out = []
    for d in range(deg + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


# The kernels compute on integer numerators over one positive common
# denominator and return canonical Fractions.


def common_denominator(*maps: dict) -> int:
    """The lcm of the denominators of the maps' values (1 for none)."""
    return math.lcm(*(c.denominator for m in maps for c in m.values()))


def numerators(m: dict, den: int) -> dict:
    """The values of m (Fractions or ints) times den, a multiple of theirs."""
    return {k: c.numerator * (den // c.denominator) for k, c in m.items()}


def integer_form(m: dict) -> tuple[dict, int]:
    """The values of m as integer numerators over their lcm denominator."""
    den = common_denominator(m)
    return numerators(m, den), den


def as_fractions(m: dict, den: int) -> dict:
    """The integer values of m over den, as canonical Fractions."""
    return {k: Fraction(v, den) for k, v in m.items()}


def cofactors(pivot: int, lead: int) -> tuple[int, int]:
    """Coprime (a, b) with a * lead == b * pivot: a * row - b * pivot_row
    cancels the lead, and a > 0 keeps a denominator scaled by a positive."""
    g = math.gcd(pivot, lead)
    a, b = pivot // g, lead // g
    return (a, b) if a > 0 else (-a, -b)


def _add_scaled(target: dict, c, source: dict) -> None:
    """target += c * source, in place: new keys go last and entries that
    cancel are dropped."""
    for k, v in source.items():
        s = target.get(k, 0) + c * v
        if s:
            target[k] = s
        else:
            del target[k]


def _shift(m: dict, u: tuple) -> dict:
    return {tuple(map(add, e, u)): c for e, c in m.items()}


def _product(p: dict, q: dict) -> dict:
    """Product of two term maps, accumulated term by term of p, then of q."""
    out: dict = {}
    for e, c in p.items():
        _add_scaled(out, c, _shift(q, e))
    return out


def _divide_exact(rem: dict, divisor: dict) -> dict:
    """Quotient of integer term maps by division in grlex order, its terms
    in decreasing grlex order, consuming rem; ArithmeticError unless it is
    exact in integers."""
    dexp = max(divisor, key=grlex_key)
    dc = divisor[dexp]
    q = {}
    while rem:
        rexp = max(rem, key=grlex_key)
        qexp = tuple(map(sub, rexp, dexp))
        q[qexp], r = divmod(rem[rexp], dc)
        if r or min(qexp, default=0) < 0:
            raise ArithmeticError("inexact polynomial division")
        _add_scaled(rem, -q[qexp], _shift(divisor, qexp))
    return q


class MultiPoly:
    """Multivariate polynomial with exact coefficients in canonical form.

    The term map sends exponent tuples of length `nvars` to nonzero
    Fractions.  Two equal polynomials have identical term maps.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        cleaned = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}"
                    )
                if isinstance(c, int):
                    c = Fraction(c)
                if c != 0:
                    cleaned[tuple(exp)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], c=Fraction(1)) -> "MultiPoly":
        return cls(nvars, {tuple(exp): c})

    # -- ring structure -----------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return MultiPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        (p, dp), (q, dq) = integer_form(self.terms), integer_form(other.terms)
        return MultiPoly(self.nvars, as_fractions(_product(p, q), dp * dq))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- queries --------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous.

        The zero polynomial counts as homogeneous of every degree and
        returns -1.
        """
        degs = {sum(e) for e in self.terms}
        if not degs:
            return -1
        if len(degs) == 1:
            return degs.pop()
        return None

    def evaluate(self, point: Sequence):
        """Exact evaluation at a point of Fractions (or ints)."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = None
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v = v * x ** e
            total = v if total is None else total + v
        if total is None:
            return Fraction(0)
        return total

    def derivative(self, var: int) -> "MultiPoly":
        terms = {}
        for exp, c in self.terms.items():
            if exp[var] == 0:
                continue
            e = list(exp)
            e[var] -= 1
            terms[tuple(e)] = c * exp[var]
        return MultiPoly(self.nvars, terms)

    def derivative_multi(self, alpha: Sequence[int]) -> "MultiPoly":
        p = self
        for v, e in enumerate(alpha):
            for _ in range(e):
                p = p.derivative(v)
        return p

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(exp)
                if e
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


def grevlex_key(exp: tuple[int, ...]):
    return (sum(exp), tuple(-e for e in reversed(exp)))


# ---------------------------------------------------------------------------
# Sparse exact elimination
# ---------------------------------------------------------------------------


def forward_eliminate(rows: Iterable[dict], ncols: int) -> dict[int, dict]:
    """Row echelon form of sparse rows over Q.

    A row maps column indices to nonzero rationals.  Returns the pivot rows
    keyed by their pivot column: each is scaled to 1 at its pivot and has no
    entry left of it.  The pivot columns are those of the reduced row
    echelon form, so their number is the rank.  Rows are consumed lazily,
    and the pass stops as soon as every column has a pivot.

    Each row is scaled to integers, loses its content before each step and
    is reduced as a * row - b * pivot (`cofactors`): a nonzero multiple of
    the row over Q, with the same entries in the same order.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = integer_form(row)[0]
        while row:
            content = math.gcd(*row.values())
            if content != 1:
                row = {j: v // content for j, v in row.items()}
            c = min(row)
            p = pivots.get(c)
            if p is None:
                pivots[c] = row
                break
            a, b = cofactors(p[c], row[c])
            if a != 1:
                for j in row:
                    row[j] *= a
            _add_scaled(row, -b, p)
        if len(pivots) == ncols:
            break
    return {c: as_fractions(p, p[c]) for c, p in pivots.items()}


def back_substitute(pivots: dict[int, dict]) -> dict[int, dict]:
    """Turn the output of forward_eliminate into the reduced row echelon
    form, in place: no pivot row keeps an entry in another pivot column."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            # pivots[j] is already reduced, so this clears column j of row
            # and touches no other pivot column
            _add_scaled(row, -row[j], pivots[j])
    return pivots


# ---------------------------------------------------------------------------
# Exact matrices over Q
# ---------------------------------------------------------------------------


class ScalarMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(
            tuple(Fraction(c) if isinstance(c, int) else c for c in row)
            for row in entries
        )
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "ScalarMatrix":
        dim = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(dim)])

    def __eq__(self, other):
        return (
            isinstance(other, ScalarMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(list(zip(*self.entries)))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return ScalarMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def __mul__(self, scalar):
        return ScalarMatrix(
            [[c * scalar for c in row] for row in self.entries]
        )

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ot = list(zip(*other.entries))
        return ScalarMatrix(
            [
                [sum(a * b for a, b in zip(row, col) if a and b) for col in ot]
                for row in self.entries
            ]
        )

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for row in self.entries for c in row)

    # -- elimination ----------------------------------------------------

    def _sparse_rows(self) -> list[dict]:
        return [{j: c for j, c in enumerate(row) if c} for row in self.entries]

    def rank(self) -> int:
        return len(forward_eliminate(self._sparse_rows(), self.cols))

    def kernel_basis(self) -> list[tuple]:
        """Exact basis of the right kernel; len = cols - rank."""
        rref = back_substitute(forward_eliminate(self._sparse_rows(), self.cols))
        basis = []
        for fc in range(self.cols):
            if fc in rref:
                continue
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for pc, row in rref.items():
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(tuple(v))
        return basis

    def solve(self, rhs: Sequence):
        """One exact solution of self @ x = rhs, or None if infeasible."""
        return self.solve_many([rhs])[0]

    def solve_many(self, rhss: Sequence[Sequence]) -> list:
        """For each right-hand side b, the solution of self @ x = b with its
        free variables zero, or None if infeasible, from one elimination of
        [self | b_1 ... b_m]. b_t is infeasible exactly when an echelon row
        that is zero on self is nonzero in column t; such rows change no
        feasible column, so each solution is the one [self | b_t] gives."""
        if any(len(rhs) != self.rows for rhs in rhss):
            raise ValueError("rhs dimension mismatch")
        n = self.cols
        rows = self._sparse_rows()
        for t, rhs in enumerate(rhss, n):
            for row, b in zip(rows, rhs):
                if b:
                    row[t] = Fraction(b) if isinstance(b, int) else b
        rref = back_substitute(forward_eliminate(rows, n + len(rhss)))
        infeasible = {t for c, row in rref.items() if c >= n for t in row}
        out = []
        for t in range(n, n + len(rhss)):
            x = [Fraction(0)] * n
            for pc, row in rref.items():
                if pc < n and t in row:
                    x[pc] = row[t]
            out.append(None if t in infeasible else tuple(x))
        return out

    def column_space_basis(self) -> list[tuple]:
        """Basis of the column span, as vectors in the row-count dimension."""
        pivots = forward_eliminate(self._sparse_rows(), self.cols)
        cols = list(zip(*self.entries))
        return [tuple(cols[c]) for c in sorted(pivots)]

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination, run on the
        entries as constants in zero variables."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        rows, dens = _integer_rows([[{(): c} if c else {} for c in r] for r in self.entries])
        return _bareiss_det(rows, math.prod(dens), 0).terms.get((), Fraction(0))

    def __repr__(self):
        return f"ScalarMatrix({[list(map(str, r)) for r in self.entries]})"


def _integer_rows(rows: list[list[dict]]) -> tuple[list[list[dict]], list[int]]:
    """The rows of term maps, each over its lcm denominator, and those."""
    dens = [common_denominator(*row) for row in rows]
    return [[numerators(m, d) for m in row] for row, d in zip(rows, dens)], dens


def _bareiss_det(m: list[list[dict]], scale: int, nvars: int) -> MultiPoly:
    """Bareiss determinant of a square matrix of integer term maps, in place,
    over `scale`, the product of the factors that made its rows integral.
    Every entry is a minor of that matrix, so each division is exact in Z[x]."""
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return MultiPoly.zero(nvars)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _product(m[k][k], m[i][j])
                _add_scaled(num, -1, _product(m[i][k], m[k][j]))
                m[i][j] = num if prev is None else _divide_exact(num, prev)
        prev = m[k][k]
    return MultiPoly(nvars, as_fractions(m[n - 1][n - 1], sign * scale))


# ---------------------------------------------------------------------------
# Subspace operations over Q
# ---------------------------------------------------------------------------


def reduce_basis(vectors: Sequence[Sequence], dim: int) -> list[tuple]:
    """Independent subset spanning the same subspace (possibly empty)."""
    if any(len(v) != dim for v in vectors):
        raise ValueError("ambient dimension mismatch")
    return ScalarMatrix.from_columns(vectors).column_space_basis() if vectors else []


def subspace_intersect(U: Sequence[Sequence], V: Sequence[Sequence], dim: int) -> list[tuple]:
    """Basis of span(U) ∩ span(V) inside Q^dim, for independent U and V."""
    if not U or not V:
        return []
    # Solve U a = V b: kernel of [U | -V] stacked column-wise.
    # With U and V independent, (a, b) -> U a is injective on the kernel
    # of [U | -V], so the images of its basis are independent and nonzero.
    cols = [list(u) for u in U] + [[-c for c in v] for v in V]
    M = ScalarMatrix.from_columns(cols)
    return [
        tuple(sum(ai * u[i] for ai, u in zip(sol, U)) for i in range(dim))
        for sol in M.kernel_basis()
    ]


def projector_onto_complement(B: Sequence[Sequence], dim: int) -> ScalarMatrix:
    """Exact projector Id - B (B^T B)^{-1} B^T onto span(B)^perp."""
    B = reduce_basis(B, dim)
    if not B:
        return ScalarMatrix.identity(dim)
    Bm = ScalarMatrix.from_columns(B)  # dim x r
    G = Bm.transpose() @ Bm  # r x r Gram, invertible for independent basis
    # G X = B^T: column j of B^T is row j of Bm
    X = ScalarMatrix.from_columns(G.solve_many(Bm.entries))  # r x dim
    return ScalarMatrix.identity(dim) - Bm @ X


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


# Most minors one PolyMatrix.minors call computes; a call that would compute
# more raises MinorsBudgetExceeded (the command line exits 3) before any.
MINORS_MAX = 5000


class MinorsBudgetExceeded(Exception):
    """PolyMatrix.minors would compute more than MINORS_MAX determinants."""


class PolyMatrix:
    """Matrix of MultiPoly entries."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Iterable[Iterable[MultiPoly]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("PolyMatrix needs at least one entry")
        nvars = rows[0][0].nvars
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValueError("ragged PolyMatrix")
            for p in row:
                if p.nvars != nvars:
                    raise ValueError("variable-count mismatch inside PolyMatrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]))
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        return cls(
            [
                [
                    MultiPoly.const(nvars, 1) if i == j else MultiPoly.zero(nvars)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(list(zip(*self.entries)))

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[p * c for p in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in PolyMatrix product")
        left = [[integer_form(p.terms) for p in row] for row in self.entries]
        right = [[integer_form(p.terms) for p in col] for col in zip(*other.entries)]
        out = []
        for row in left:
            out_row = []
            for col in right:
                # each product cancels on its own, then joins the sum over one lcm
                pairs = [(a, b, da * db) for (a, da), (b, db) in zip(row, col) if a and b]
                den = math.lcm(*(d for _, _, d in pairs))
                acc: dict = {}
                for a, b, d in pairs:
                    _add_scaled(acc, den // d, _product(a, b))
                out_row.append(MultiPoly(self.nvars, as_fractions(acc, den)))
            out.append(out_row)
        return PolyMatrix(out)

    def stack(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vertical stack")
        return PolyMatrix(self.entries + other.entries)

    def evaluate(self, point: Sequence) -> ScalarMatrix:
        return ScalarMatrix(
            [[p.evaluate(point) for p in row] for row in self.entries]
        )

    def apply_vector(self, vec: Sequence) -> list[MultiPoly]:
        """Multiply by a constant vector on the right."""
        if len(vec) != self.cols:
            raise ValueError("vector dimension mismatch")
        zero = MultiPoly.zero(self.nvars)
        return [sum((p * c for p, c in zip(row, vec)), zero) for row in self.entries]

    def minors(self, size: int) -> list[MultiPoly]:
        """All size x size minor determinants, via Bareiss elimination."""
        if size < 1 or size > min(self.rows, self.cols):
            raise ValueError(
                f"minor size {size} out of range for {self.rows}x{self.cols}"
            )
        if (count := math.comb(self.rows, size) * math.comb(self.cols, size)) > MINORS_MAX:
            raise MinorsBudgetExceeded(f"{count} minors of size {size} of a {self.rows}x"
                                       f"{self.cols} symbol exceed the budget of {MINORS_MAX}")
        rows, dens = _integer_rows([[p.terms for p in row] for row in self.entries])
        out = []
        for rsel in itertools.combinations(range(self.rows), size):
            scale = math.prod(dens[i] for i in rsel)
            for csel in itertools.combinations(range(self.cols), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                out.append(_bareiss_det(sub, scale, self.nvars))
        return out

    def charpoly(self) -> list[MultiPoly]:
        """Coefficients c_0..c_{n-1} of det(lambda*Id - M), leading term 1."""
        return self.faddeev_leverrier(self.rows)[0]

    def faddeev_leverrier(self, steps: int) -> tuple[list[MultiPoly], "PolyMatrix"]:
        """The first `steps` steps of the Faddeev-LeVerrier recurrence of the
        square matrix M: c_{n-steps}..c_{n-1} of det(lambda*Id - M) and
        M^steps + c_{n-1} M^(steps-1) + ... + c_{n-steps} Id. Step k multiplies
        by M and adds c_{n-k} Id, c_{n-k} being minus the trace over k, so the
        only divisions are by integers."""
        if self.rows != self.cols:
            raise ValueError("charpoly of a non-square matrix")
        cs = []
        B = PolyMatrix.identity(self.rows, self.nvars)
        for k in range(1, steps + 1):
            A = self @ B
            c = sum((A.entries[i][i] for i in range(self.rows)), MultiPoly.zero(self.nvars))
            cs.append(c * Fraction(-1, k))
            B = PolyMatrix([[p + cs[-1] if i == j else p for j, p in enumerate(row)]
                            for i, row in enumerate(A.entries)])
        return cs[::-1], B

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"
