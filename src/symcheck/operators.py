"""Homogeneous constant-coefficient differential operators.

A DiffOp maps smooth R^d-valued fields on R^N to R^l-valued fields and is
determined by one rational l x d matrix per multi-index of order k.  The
Fourier symbol is the l x d polynomial matrix sum_alpha A_alpha xi^alpha.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    MultiPoly,
    PolyMatrix,
    monomials_of_degree,
)


class OperatorFormatError(ValueError):
    """Raised on malformed operator files, with a field-level diagnostic."""


def _freeze_matrix(matrix) -> tuple:
    rows = []
    for row in matrix:
        rows.append(tuple(Fraction(c) if isinstance(c, int) else c for c in row))
    return tuple(rows)


class DiffOp:
    """Homogeneous constant-coefficient operator of order k.

    terms maps multi-indices alpha (len N, |alpha| = k) to l x d rational
    matrices, stored as nested tuples of Fractions.  `weights` are optional
    per-component quadratic weights used by the numerical norms only (the
    symmetric gradient stores off-diagonal components once, with weight 2,
    so that the numerics reproduce the Frobenius norm of the full tensor).
    """

    __slots__ = ("name", "N", "d", "l", "k", "terms", "weights", "_symbol")

    def __init__(self, name, N, d, l, k, terms, weights=None):
        frozen = {}
        for alpha, matrix in terms.items():
            alpha = tuple(alpha)
            if len(alpha) != N:
                raise OperatorFormatError(
                    f"multi-index {alpha} has length {len(alpha)}, expected N={N}"
                )
            if any(a < 0 for a in alpha):
                raise OperatorFormatError(f"negative entry in multi-index {alpha}")
            if sum(alpha) != k:
                raise OperatorFormatError(
                    f"multi-index order mismatch: |{alpha}| != k={k}"
                )
            m = _freeze_matrix(matrix)
            if len(m) != l or any(len(r) != d for r in m):
                raise OperatorFormatError(
                    f"matrix for {alpha} is not {l}x{d}"
                )
            if any(c != 0 for r in m for c in r):
                frozen[alpha] = m
        if not frozen:
            raise OperatorFormatError("operator has no nonzero coefficient matrix")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", frozen)
        if weights is not None:
            weights = tuple(Fraction(w) if isinstance(w, int) else w for w in weights)
            if len(weights) != l:
                raise OperatorFormatError("weights length must equal l")
            if any(w < 0 for w in weights):
                raise OperatorFormatError("weights must be nonnegative: they define a norm")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_symbol", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiffOp is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DiffOp)
            and (self.name, self.N, self.d, self.l, self.k)
            == (other.name, other.N, other.d, other.l, other.k)
            and self.terms == other.terms
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.name, self.N, self.d, self.l, self.k))

    def __repr__(self):
        return f"DiffOp({self.name!r}, N={self.N}, d={self.d}, l={self.l}, k={self.k})"

    def symbol(self) -> PolyMatrix:
        """The Fourier symbol as an l x d PolyMatrix, homogeneous of degree k."""
        if self._symbol is not None:
            return self._symbol
        cells = [[{} for _ in range(self.d)] for _ in range(self.l)]
        for alpha, m in self.terms.items():
            for cell_row, row in zip(cells, m):
                for cell, c in zip(cell_row, row):
                    if c:
                        cell[alpha] = c
        sym = PolyMatrix([[MultiPoly(self.N, t) for t in row] for row in cells])
        object.__setattr__(self, "_symbol", sym)
        return sym

    def apply_to_poly(self, u: Sequence[MultiPoly]) -> list[MultiPoly]:
        """Formal application to a polynomial field (exact differentiation)."""
        if len(u) != self.d:
            raise ValueError("field dimension mismatch")
        out = [MultiPoly.zero(self.N) for _ in range(self.l)]
        for alpha, m in self.terms.items():
            du = [p.derivative_multi(alpha) for p in u]
            for i in range(self.l):
                for j in range(self.d):
                    if m[i][j] != 0:
                        out[i] = out[i] + du[j] * m[i][j]
        return out

    def content_hash(self) -> str:
        return hashlib.sha256(serialize_op(self).encode()).hexdigest()


class OperatorPair:
    """A right-hand operator calA and a left-hand operator A.

    korn mode requires ord A = ord calA; sobolev mode ord A = ord calA - 1.
    """

    __slots__ = ("calA", "A", "mode")

    def __init__(self, calA: DiffOp, A: DiffOp, mode: str = "korn"):
        if mode not in ("korn", "sobolev"):
            raise OperatorFormatError(f"unknown mode {mode!r}")
        if calA.N != A.N or calA.d != A.d:
            raise OperatorFormatError(
                f"operator pair must share N and d: calA has N={calA.N}, "
                f"d={calA.d}; A has N={A.N}, d={A.d}"
            )
        expected = calA.k if mode == "korn" else calA.k - 1
        if A.k != expected:
            raise OperatorFormatError(
                f"mode {mode}: order of A must be {expected}, got {A.k}"
            )
        object.__setattr__(self, "calA", calA)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("OperatorPair is immutable")


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def from_symbol(name: str, sym: PolyMatrix, k: int, weights=None) -> DiffOp:
    """The operator of order k whose symbol is `sym`: the inverse of
    DiffOp.symbol. Its multi-indices come in the order in which they first
    occur when the entries are read row by row."""
    alphas = dict.fromkeys(exp for row in sym.entries for p in row for exp in p.terms)
    terms = {
        alpha: [[p.terms.get(alpha, 0) for p in row] for row in sym.entries]
        for alpha in alphas
    }
    return DiffOp(name, sym.nvars, sym.cols, sym.rows, k, terms, weights)


def compose(L: DiffOp, A: DiffOp) -> DiffOp:
    """Operator composition; symbol(compose) = symbol(L) @ symbol(A)."""
    if L.N != A.N:
        raise ValueError("composition across different space dimensions")
    if L.d != A.l:
        raise ValueError(
            f"composition mismatch: L acts on R^{L.d}, A maps into R^{A.l}"
        )
    return from_symbol(f"({L.name}.{A.name})", L.symbol() @ A.symbol(), L.k + A.k)


def ordered_tuples(N: int, s: int) -> list[tuple[int, ...]]:
    """All ordered index tuples in {0..N-1}^s (full tensor convention)."""
    return list(itertools.product(range(N), repeat=s))


def multi_index(b: Sequence[int], N: int) -> tuple[int, ...]:
    """The multi-index alpha of xi_b1 * ... * xi_bs: alpha_j counts j in b."""
    alpha = [0] * N
    for j in b:
        alpha[j] += 1
    return tuple(alpha)


def grad_power(s: int, e: int, N: int) -> DiffOp:
    """The operator D^s on R^e-valued fields, rows indexed by (tuple, i).

    Rows are indexed by ordered tuples b in {1..N}^s with repetition (full
    tensor, no symmetrization) paired with the field component i; the row
    symbol is xi_b1 * ... * xi_bs times the i-th unit row.  D^0 = identity.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    zero = MultiPoly.zero(N)
    rows = []
    for b in ordered_tuples(N, s):
        mono = MultiPoly.monomial(N, multi_index(b, N))
        rows.extend([mono if j == i else zero for j in range(e)] for i in range(e))
    return from_symbol(f"D^{s}", PolyMatrix(rows), s)


def stack(A1: DiffOp, A2: DiffOp) -> DiffOp:
    """Vertical concatenation of two operators with identical (N, d, k)."""
    if (A1.N, A1.d, A1.k) != (A2.N, A2.d, A2.k):
        raise ValueError("stack requires identical N, d and order")
    w1 = A1.weights or (Fraction(1),) * A1.l
    w2 = A2.weights or (Fraction(1),) * A2.l
    weights = None
    if A1.weights is not None or A2.weights is not None:
        weights = w1 + w2
    return from_symbol(f"[{A1.name};{A2.name}]", A1.symbol().stack(A2.symbol()), A1.k, weights)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = (
    "gradient",
    "divergence",
    "curl",
    "sym_gradient",
    "laplacian",
    "bilaplacian",
    "cauchy_riemann",
    "d2_laplacian",
    "div_k",
)


def _unit_alpha(N: int, i: int, order: int = 1) -> tuple[int, ...]:
    a = [0] * N
    a[i] = order
    return tuple(a)


def catalog(name: str, N: int, k: Optional[int] = None) -> DiffOp:
    """Standard operators with exact rational coefficients."""
    if name == "gradient":
        terms = {}
        for i in range(N):
            m = [[Fraction(0)] for _ in range(N)]
            m[i][0] = Fraction(1)
            terms[_unit_alpha(N, i)] = m
        return DiffOp("gradient", N, 1, N, 1, terms)

    if name == "divergence":
        terms = {}
        for i in range(N):
            row = [Fraction(0)] * N
            row[i] = Fraction(1)
            terms[_unit_alpha(N, i)] = [row]
        return DiffOp("divergence", N, N, 1, 1, terms)

    if name == "curl":
        if N == 3:
            eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                   (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
            terms = {}
            for j in range(3):
                m = [[Fraction(0)] * 3 for _ in range(3)]
                for i in range(3):
                    for t in range(3):
                        sgn = eps.get((i, j, t), 0)
                        if sgn:
                            m[i][t] = Fraction(sgn)
                terms[_unit_alpha(3, j)] = m
            return DiffOp("curl", 3, 3, 3, 1, terms)
        if N == 2:
            # scalar curl: du2/dx1 - du1/dx2
            return DiffOp(
                "curl",
                2,
                2,
                1,
                1,
                {
                    (1, 0): [[Fraction(0), Fraction(1)]],
                    (0, 1): [[Fraction(-1), Fraction(0)]],
                },
            )
        raise OperatorFormatError("curl requires N = 3 (or the scalar curl, N = 2)")

    if name == "sym_gradient":
        if N not in (2, 3):
            raise OperatorFormatError("sym_gradient catalog entry supports N in {2, 3}")
        pairs = [(i, i) for i in range(N)] + [
            (i, j) for i in range(N) for j in range(i + 1, N)
        ]
        l = len(pairs)
        terms: dict = {}
        for r, (i, j) in enumerate(pairs):
            # row r carries (d_i u_j + d_j u_i) / 2
            for var, comp in ((i, j), (j, i)):
                alpha = _unit_alpha(N, var)
                m = terms.setdefault(alpha, [[Fraction(0)] * N for _ in range(l)])
                m[r][comp] += Fraction(1, 2)
        weights = tuple(
            Fraction(1) if i == j else Fraction(2) for (i, j) in pairs
        )
        return DiffOp("sym_gradient", N, N, l, 1, terms, weights)

    if name == "laplacian":
        terms = {}
        for i in range(N):
            terms[_unit_alpha(N, i, 2)] = [[Fraction(1)]]
        return DiffOp("laplacian", N, 1, 1, 2, terms)

    if name == "bilaplacian":
        lap = catalog("laplacian", N).symbol()
        return from_symbol("bilaplacian", lap @ lap, 4)

    if name == "cauchy_riemann":
        if N != 2:
            raise OperatorFormatError("cauchy_riemann requires N = 2")
        return DiffOp(
            "cauchy_riemann",
            2,
            2,
            2,
            1,
            {
                (1, 0): [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
                (0, 1): [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]],
            },
        )

    if name == "d2_laplacian":
        sym = grad_power(2, 1, N).symbol() @ catalog("laplacian", N).symbol()
        return from_symbol("d2_laplacian", sym, 4)

    if name == "div_k":
        if k is None:
            raise OperatorFormatError("div_k requires the order k")
        betas = monomials_of_degree(N, k)
        d = len(betas)
        terms = {}
        for j, beta in enumerate(betas):
            row = [Fraction(0)] * d
            row[j] = Fraction(1)
            terms[beta] = [row]
        return DiffOp(f"div_{k}", N, d, 1, k, terms)

    raise OperatorFormatError(f"unknown catalog operator {name!r}")


def multiindex_count(N: int, k: int) -> int:
    """Number of multi-indices |beta| = k in N variables: binom(N+k-1, N-1).

    Note: this is the enumeration count used throughout; it differs from
    binom(N+k-1, N) for general N, k.
    """
    return math.comb(N + k - 1, N - 1)


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


def _fraction_to_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)


def _fraction_from_str(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        try:
            num_i, den_i = int(num), int(den)
        except ValueError as e:
            raise OperatorFormatError(f"malformed rational {s!r}") from e
        if den_i == 0:
            raise OperatorFormatError(f"zero denominator in rational {s!r}")
        return Fraction(num_i, den_i)
    try:
        return Fraction(int(s))
    except ValueError as e:
        raise OperatorFormatError(f"malformed rational {s!r}") from e


def op_to_dict(op: DiffOp) -> dict:
    terms = []
    for alpha in sorted(op.terms):
        terms.append(
            {
                "alpha": list(alpha),
                "matrix": [
                    [_fraction_to_str(c) for c in row] for row in op.terms[alpha]
                ],
            }
        )
    out = {
        "name": op.name,
        "N": op.N,
        "d": op.d,
        "l": op.l,
        "k": op.k,
        "terms": terms,
    }
    if op.weights is not None:
        out["weights"] = [_fraction_to_str(w) for w in op.weights]
    return out


def op_from_dict(data: dict) -> DiffOp:
    for field in ("name", "N", "d", "l", "k", "terms"):
        if field not in data:
            raise OperatorFormatError(f"missing field {field!r}")
    if not isinstance(data["name"], str):
        raise OperatorFormatError("name must be a string")
    # type() and not isinstance(): JSON true and false load as bools, a subclass of int
    N, d, l, k = data["N"], data["d"], data["l"], data["k"]
    for field, value in (("N", N), ("d", d), ("l", l)):
        if type(value) is not int or value < 1:
            raise OperatorFormatError(f"{field} must be a positive integer")
    if type(k) is not int or k < 0:
        raise OperatorFormatError("k must be a nonnegative integer")
    if not isinstance(data["terms"], list):
        raise OperatorFormatError("terms must be a list of {alpha, matrix} objects")
    terms = {}
    for i, entry in enumerate(data["terms"]):
        if not isinstance(entry, dict):
            raise OperatorFormatError(f"terms[{i}] must be an object with alpha and matrix")
        for field in ("alpha", "matrix"):
            if field not in entry:
                raise OperatorFormatError(f"terms[{i}] has no field {field!r}")
        alpha = entry["alpha"]
        if not isinstance(alpha, list) or not all(type(a) is int for a in alpha):
            raise OperatorFormatError(f"terms[{i}].alpha must be a list of integers")
        alpha = tuple(alpha)
        matrix = entry["matrix"]
        if not isinstance(matrix, list) or not all(
            isinstance(row, list) and all(isinstance(c, str) for c in row)
            for row in matrix
        ):
            raise OperatorFormatError(
                f"terms[{i}].matrix must be a list of rows of rational strings "
                "such as \"-1/2\""
            )
        if alpha in terms:
            raise OperatorFormatError(f"duplicate multi-index {alpha}")
        terms[alpha] = [[_fraction_from_str(c) for c in row] for row in matrix]
    weights = data.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not all(isinstance(w, str) for w in weights):
            raise OperatorFormatError("weights must be a list of rational strings")
        weights = [_fraction_from_str(w) for w in weights]
    return DiffOp(data["name"], N, d, l, k, terms, weights)


def serialize_op(op: DiffOp) -> str:
    """Canonical JSON text; parse(serialize(op)) == op bit-exactly."""
    return json.dumps(op_to_dict(op), sort_keys=True, separators=(",", ":"))


def parse_op(text: str) -> DiffOp:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise OperatorFormatError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise OperatorFormatError("operator file must contain a JSON object")
    return op_from_dict(data)


def load_op(path) -> DiffOp:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_op(fh.read())


def save_op(op: DiffOp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_op(op))
        fh.write("\n")
