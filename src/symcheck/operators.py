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
import re
import sys
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
                f"mode {mode}: order of A must be {expected}, got k = {A.k}"
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
    zero = Fraction(0)  # shared: DiffOp turns each int 0 into a new Fraction
    terms = {}
    for i, row in enumerate(sym.entries):
        for j, p in enumerate(row):
            for alpha, c in p.terms.items():
                if alpha not in terms:
                    terms[alpha] = [[zero] * sym.cols for _ in range(sym.rows)]
                terms[alpha][i][j] = c
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

CATALOG_NAMES = ("gradient", "divergence", "curl", "sym_gradient", "laplacian",
                 "bilaplacian", "cauchy_riemann", "d2_laplacian", "div_k")

# div_k has d = C(N+k-1, N-1) components and one 1 x d coefficient matrix
# per component (d = 1000 takes about a second and 120 MB to write out):
# past this many components catalog raises CatalogBudgetExceeded before
# building anything (the command line exits 3).
DIV_K_MAX_COMPONENTS = 1000
# Every entry stores one multi-index of N integers and one l x d matrix per
# term; past this many integers, what div_k stores at its component budget
# in N = 2, catalog raises CatalogBudgetExceeded before building anything.
CATALOG_MAX_INTEGERS = DIV_K_MAX_COMPONENTS * (2 + DIV_K_MAX_COMPONENTS)


class CatalogBudgetExceeded(Exception):
    """The catalog entry would store more than CATALOG_MAX_INTEGERS
    integers, or div_k would have more than DIV_K_MAX_COMPONENTS components."""


def catalog(name: str, N: int, k: Optional[int] = None) -> DiffOp:
    """Standard operators with exact rational coefficients, each built from
    its symbol in the variables x = (xi_1, ..., xi_N)."""
    if N < 1:
        raise OperatorFormatError(f"N must be at least 1, got N = {N}")
    if name not in CATALOG_NAMES:
        raise OperatorFormatError(f"unknown catalog operator {name!r}")
    if name == "curl" and N not in (2, 3):
        raise OperatorFormatError("curl requires N = 3 (or the scalar curl, N = 2)")
    if name == "sym_gradient" and N not in (2, 3):
        raise OperatorFormatError("sym_gradient catalog entry supports N in {2, 3}")
    if name == "cauchy_riemann" and N != 2:
        raise OperatorFormatError("cauchy_riemann requires N = 2")
    if name == "div_k":
        if k is None:
            raise OperatorFormatError("div_k requires the order k")
        if k < 0:
            raise OperatorFormatError(f"div_k needs k to be nonnegative, got k = {k}")
        if (d := multiindex_count(N, k)) > DIV_K_MAX_COMPONENTS:
            raise CatalogBudgetExceeded(f"div_k with N = {N}, k = {k} has {d} components "
                                        f"(budget {DIV_K_MAX_COMPONENTS})")
    if (size := catalog_integers(name, N, k)) > CATALOG_MAX_INTEGERS:
        raise CatalogBudgetExceeded(f"{name} with N = {N} stores {size} integers "
                                    f"(budget {CATALOG_MAX_INTEGERS})")
    if name == "div_k":
        row = [MultiPoly.monomial(N, beta) for beta in monomials_of_degree(N, k)]
        return from_symbol(f"div_{k}", PolyMatrix([row]), k)
    x = [MultiPoly.variable(N, i) for i in range(N)]
    zero = MultiPoly.zero(N)
    if name == "gradient":
        return from_symbol(name, PolyMatrix([[xi] for xi in x]), 1)
    if name == "divergence":
        return from_symbol(name, PolyMatrix([x]), 1)
    if name == "curl" and N == 3:
        x1, x2, x3 = x
        rows = [[zero, -x3, x2], [x3, zero, -x1], [-x2, x1, zero]]
        return from_symbol(name, PolyMatrix(rows), 1)
    if name == "curl":  # the scalar curl du2/dx1 - du1/dx2
        return from_symbol(name, PolyMatrix([[-x[1], x[0]]]), 1)
    if name == "sym_gradient":
        pairs = [(i, i) for i in range(N)] + [(i, j) for i in range(N) for j in range(i + 1, N)]
        # row (i, j) carries (d_i u_j + d_j u_i) / 2
        rows = [[(x[i] if c == j else zero) + (x[j] if c == i else zero) for c in range(N)]
                for i, j in pairs]
        weights = [1 if i == j else 2 for i, j in pairs]
        return from_symbol(name, PolyMatrix(rows).scale(Fraction(1, 2)), 1, weights)
    if name == "cauchy_riemann":
        x1, x2 = x
        return from_symbol(name, PolyMatrix([[x1, -x2], [x2, x1]]), 1)
    # the sum of the xi^2 as one term map: N - 1 additions copy O(N^2) terms
    lap = MultiPoly(N, {sq: 1 for xi in x for sq in (xi * xi).terms})
    if name == "laplacian":
        return from_symbol(name, PolyMatrix([[lap]]), 2)
    if name == "bilaplacian":
        return from_symbol(name, PolyMatrix([[lap * lap]]), 4)
    # d2_laplacian
    rows = [[x[a] * x[b] * lap] for a, b in ordered_tuples(N, 2)]
    return from_symbol(name, PolyMatrix(rows), 4)


def catalog_integers(name: str, N: int, k: Optional[int] = None) -> int:
    """The integers that the catalog entry stores, in closed form: its
    multi-indices times (N + l d)."""
    if name == "div_k":
        d = multiindex_count(N, k)
        return d * (N + d)  # one term per component, l = 1
    terms, l, d = {
        "gradient": (N, N, 1),
        "divergence": (N, 1, N),
        "curl": (N, 3 if N == 3 else 1, N),
        "sym_gradient": (N, N * (N + 1) // 2, N),
        "laplacian": (N, 1, 1),
        "bilaplacian": (math.comb(N + 1, 2), 1, 1),  # the xi_i^4 and xi_i^2 xi_j^2
        "cauchy_riemann": (N, N, N),
        # the degree-4 monomials but the squarefree ones
        "d2_laplacian": (math.comb(N + 3, 4) - math.comb(N, 4), N * N, 1),
    }[name]
    return terms * (N + l * d)


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


# Characters of a malformed entry that its error message quotes.
QUOTED_ENTRY_CHARS = 32


def _quoted(s: str) -> str:
    """s quoted, or its first QUOTED_ENTRY_CHARS characters and its length."""
    if len(s) <= QUOTED_ENTRY_CHARS:
        return repr(s)
    return f"{s[:QUOTED_ENTRY_CHARS]!r}... ({len(s)} characters)"


def _fraction_from_str(s: str, where: str) -> Fraction:
    """The rational in s; a malformed one is reported at `where`, its field."""
    s = s.strip()
    num, slash, den = s.partition("/")
    try:
        num_i, den_i = int(num), int(den) if slash else 1
    except ValueError as e:
        limit = sys.get_int_max_str_digits()  # int() refuses a string of more digits
        past = f", an integer past Python's limit of {limit} digits," if (
            limit and re.search(rf"\d{{{limit + 1}}}", s)) else ""
        raise OperatorFormatError(f"{where}: malformed rational{past} {_quoted(s)}") from e
    if den_i == 0:
        raise OperatorFormatError(f"{where}: zero denominator in rational {_quoted(s)}")
    return Fraction(num_i, den_i)


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
        terms[alpha] = [[_fraction_from_str(c, f"terms[{i}].matrix[{r}][{j}]") for j, c in enumerate(row)]
                        for r, row in enumerate(matrix)]
    weights = data.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or not all(isinstance(w, str) for w in weights):
            raise OperatorFormatError("weights must be a list of rational strings")
        weights = [_fraction_from_str(w, f"weights[{j}]") for j, w in enumerate(weights)]
    return DiffOp(data["name"], N, d, l, k, terms, weights)


def serialize_op(op: DiffOp) -> str:
    """Canonical JSON text; parse(serialize(op)) == op bit-exactly."""
    return json.dumps(op_to_dict(op), sort_keys=True, separators=(",", ":"))


def _int_or_text(literal: str):
    """A JSON integer literal as an int; one past Python's digit limit stays
    text, so that the field holding it is named as malformed."""
    try:
        return int(literal)
    except ValueError:
        return literal


def parse_op(text: str) -> DiffOp:
    try:
        data = json.loads(text, parse_int=_int_or_text)
    except (json.JSONDecodeError, RecursionError) as e:  # nested past the stack
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
