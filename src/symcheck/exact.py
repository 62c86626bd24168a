"""Exact multivariate polynomials and linear algebra over Q.

Everything in this module is immutable after construction and all operations
are pure.  The zero polynomial is the empty term map; there are no epsilon
comparisons anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence


def monomials_of_degree(nvars: int, deg: int) -> list[tuple[int, ...]]:
    """All exponent vectors in `nvars` variables of total degree `deg`."""
    if nvars == 0:
        return [()] if deg == 0 else []
    out = []
    for head in range(deg, -1, -1):
        for tail in monomials_of_degree(nvars - 1, deg - head):
            out.append((head,) + tail)
    return out


def monomials_up_to_degree(nvars: int, deg: int) -> list[tuple[int, ...]]:
    out = []
    for d in range(deg + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


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
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(self.nvars, terms)

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

    def homogeneous_component(self, deg: int) -> "MultiPoly":
        return MultiPoly(
            self.nvars, {e: c for e, c in self.terms.items() if sum(e) == deg}
        )

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

    def leading(self, key) -> tuple[tuple[int, ...], object]:
        """Leading (exponent, coefficient) under the given monomial key."""
        exp = max(self.terms, key=key)
        return exp, self.terms[exp]

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / divisor; raises if the division is inexact.

        Used by the fraction-free (Bareiss) routines, where divisibility is
        guaranteed.
        """
        self._check(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        key = grlex_key
        dexp, dc = divisor.leading(key)
        rem = self
        qterms: dict = {}
        while not rem.is_zero:
            rexp, rc = rem.leading(key)
            qexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(e < 0 for e in qexp):
                raise ArithmeticError("inexact polynomial division")
            qc = rc / dc
            qterms[qexp] = qterms.get(qexp, 0) + qc
            rem = rem - MultiPoly.monomial(self.nvars, qexp, qc) * divisor
        return MultiPoly(self.nvars, qterms)

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

    A row maps column indices to nonzero scalars.  Returns the pivot rows
    keyed by their pivot column: each is scaled to 1 at its pivot and has no
    entry left of it.  The pivot columns are those of the reduced row
    echelon form, so their number is the rank.  Rows are consumed lazily,
    reduced in place, and the pass stops as soon as every column has a pivot.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                inv = 1 / row[c]
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            _subtract_multiple(row, row[c], p)
        if len(pivots) == ncols:
            break
    return pivots


def back_substitute(pivots: dict[int, dict]) -> dict[int, dict]:
    """Turn the output of forward_eliminate into the reduced row echelon
    form, in place: no pivot row keeps an entry in another pivot column."""
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            # pivots[j] is already reduced, so this clears column j of row
            # and touches no other pivot column
            _subtract_multiple(row, row[j], pivots[j])
    return pivots


def _subtract_multiple(row: dict, f, pivot_row: dict) -> None:
    """row -= f * pivot_row, in place, dropping entries that cancel."""
    for j, v in pivot_row.items():
        if j in row:
            x = row[j] - f * v
            if x:
                row[j] = x
            else:
                del row[j]
        else:
            row[j] = -(f * v)


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
    def zeros(cls, rows: int, cols: int) -> "ScalarMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

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
                [sum(a * b for a, b in zip(row, col)) for col in ot]
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
        if len(rhs) != self.rows:
            raise ValueError("rhs dimension mismatch")
        n = self.cols
        rows = self._sparse_rows()
        for row, b in zip(rows, rhs):
            if b:
                row[n] = Fraction(b) if isinstance(b, int) else b
        rref = back_substitute(forward_eliminate(rows, n + 1))
        if n in rref:
            return None  # pivot in the rhs column: inconsistent
        x = [Fraction(0)] * n
        for pc, row in rref.items():
            if n in row:
                x[pc] = row[n]
        return tuple(x)

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
        d = _bareiss_det([[MultiPoly.const(0, c) for c in r] for r in self.entries])
        return d.terms.get((), Fraction(0))

    def __repr__(self):
        return f"ScalarMatrix({[list(map(str, r)) for r in self.entries]})"


def _bareiss_det(m: list[list[MultiPoly]]) -> MultiPoly:
    """Bareiss determinant of a square matrix of polynomials, in place.

    Every division is exact, so it runs through MultiPoly.exact_div.
    """
    n = len(m)
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return MultiPoly.zero(m[k][k].nvars)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else num.exact_div(prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


# ---------------------------------------------------------------------------
# Subspace operations over Q
# ---------------------------------------------------------------------------


def reduce_basis(vectors: Sequence[Sequence], dim: int) -> list[tuple]:
    """Independent subset spanning the same subspace (possibly empty)."""
    vecs = [tuple(Fraction(c) if isinstance(c, int) else c for c in v) for v in vectors]
    if not vecs:
        return []
    mat = ScalarMatrix.from_columns(vecs) if len(vecs[0]) == dim else None
    if mat is None:
        raise ValueError("ambient dimension mismatch")
    pivots = forward_eliminate(mat._sparse_rows(), mat.cols)
    return [vecs[c] for c in sorted(pivots)]


def subspace_intersect(U: Sequence[Sequence], V: Sequence[Sequence], dim: int) -> list[tuple]:
    """Basis of span(U) ∩ span(V) inside Q^dim."""
    U = reduce_basis(U, dim)
    V = reduce_basis(V, dim)
    if not U or not V:
        return []
    # Solve U a = V b: kernel of [U | -V] stacked column-wise.
    cols = [list(u) for u in U] + [[-c for c in v] for v in V]
    M = ScalarMatrix.from_columns(cols)
    basis = []
    for sol in M.kernel_basis():
        a = sol[: len(U)]
        vec = tuple(
            sum(ai * u[i] for ai, u in zip(a, U)) for i in range(dim)
        )
        if any(c != 0 for c in vec):
            basis.append(vec)
    return reduce_basis(basis, dim)


def projector_onto_complement(B: Sequence[Sequence], dim: int) -> ScalarMatrix:
    """Exact projector Id - B (B^T B)^{-1} B^T onto span(B)^perp."""
    B = reduce_basis(B, dim)
    if not B:
        return ScalarMatrix.identity(dim)
    Bm = ScalarMatrix.from_columns(B)  # dim x r
    G = Bm.transpose() @ Bm  # r x r Gram, invertible for independent basis
    r = len(B)
    # Solve G X = B^T for X, column by column.
    Bt = Bm.transpose()
    Xcols = []
    for j in range(dim):
        col = [Bt.entries[i][j] for i in range(r)]
        sol = G.solve(col)
        assert sol is not None, "Gram matrix singular on independent basis"
        Xcols.append(sol)
    X = ScalarMatrix.from_columns(Xcols)  # r x dim
    P_onto = Bm @ X
    return ScalarMatrix.identity(dim) - P_onto


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Matrix of MultiPoly entries, optionally tagged homogeneous."""

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

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[p * c for p in row] for row in self.entries])

    def scale_poly(self, q: MultiPoly) -> "PolyMatrix":
        return PolyMatrix([[p * q for p in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in PolyMatrix product")
        ot = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out_row = []
            for col in ot:
                acc = MultiPoly.zero(self.nvars)
                for a, b in zip(row, col):
                    if a and b:
                        acc = acc + a * b
                out_row.append(acc)
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
        out = []
        for row in self.entries:
            acc = MultiPoly.zero(self.nvars)
            for p, c in zip(row, vec):
                acc = acc + p * c
            out.append(acc)
        return out

    def homogeneous_degree(self):
        """Common degree of all nonzero entries, or None."""
        degs = {
            p.homogeneous_degree()
            for row in self.entries
            for p in row
            if not p.is_zero
        }
        if None in degs:
            return None
        if not degs:
            return -1
        if len(degs) == 1:
            return degs.pop()
        return None

    def minors(self, size: int) -> list[MultiPoly]:
        """All size x size minor determinants, via Bareiss elimination."""
        if size < 1 or size > min(self.rows, self.cols):
            raise ValueError(
                f"minor size {size} out of range for {self.rows}x{self.cols}"
            )
        out = []
        for rsel in itertools.combinations(range(self.rows), size):
            for csel in itertools.combinations(range(self.cols), size):
                sub = [[self.entries[i][j] for j in csel] for i in rsel]
                out.append(_bareiss_det(sub))
        return out

    def charpoly(self) -> list[MultiPoly]:
        """Coefficients c_0..c_{n-1} of det(lambda*Id - M), leading term 1.

        Faddeev-LeVerrier recurrence; the only divisions are by integers.
        """
        if self.rows != self.cols:
            raise ValueError("charpoly of a non-square matrix")
        n = self.rows
        nv = self.nvars
        cs = [MultiPoly.zero(nv)] * n
        B = PolyMatrix.identity(n, nv)
        for k in range(1, n + 1):
            A = self @ B
            tr = MultiPoly.zero(nv)
            for i in range(n):
                tr = tr + A.entries[i][i]
            c = tr * Fraction(-1, k)
            cs[n - k] = c
            if k < n:
                B = A + PolyMatrix.identity(n, nv).scale_poly(c)
        return cs

    def power(self, e: int) -> "PolyMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        out = PolyMatrix.identity(self.rows, self.nvars)
        for _ in range(e):
            out = out @ self
        return out

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"
