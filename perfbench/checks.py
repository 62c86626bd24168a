"""Independent checks of symcheck's outputs.

Nothing here imports symcheck. Operators are read from their JSON files and
reports from the JSON the program wrote. The algebra is done with
``fractions.Fraction`` and the small Gaussian-rational type below; the one
ideal question (does a set of minors vanish only at the origin over C?) is
answered by sympy's Groebner bases. Known numerical values come from the
mathematics, never from a stored copy of an earlier output.

Every check raises ``CheckFailed`` with a message that names what is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from fractions import Fraction


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact scalars and polynomials
# ---------------------------------------------------------------------------


class QI:
    """Gaussian rational a + b i with Fraction parts (+, *, == only)."""

    __slots__ = ("re", "im")

    def __init__(self, re_part, im_part=0):
        self.re = Fraction(re_part)
        self.im = Fraction(im_part)

    @staticmethod
    def of(x):
        return x if isinstance(x, QI) else QI(x)

    def __add__(self, other):
        other = QI.of(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, other):
        other = QI.of(other)
        return QI(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = QI.of(other)
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


_SCALAR = re.compile(r"^([-+]?\d+(?:/\d+)?)(?:([-+]\d+(?:/\d+)?)i)?$")


def parse_scalar(text: str) -> QI:
    """Parse the report's scalar format: "p/q" or "p/q+r/si"."""
    m = _SCALAR.match(text.strip())
    require(m is not None, f"unparseable scalar {text!r}")
    re_part, im_part = m.groups()
    return QI(Fraction(re_part), Fraction(im_part) if im_part else 0)


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_eval(p: dict, point):
    total = QI(0)
    for e, c in p.items():
        term = QI(c)
        for x, k in zip(point, e):
            for _ in range(k):
                term = term * x
        total = total + term
    return total


def poly_derivative(p: dict, alpha) -> dict:
    out = {}
    for e, c in p.items():
        if all(a <= b for a, b in zip(alpha, e)):
            f = 1
            for a, b in zip(alpha, e):
                f *= math.factorial(b) // math.factorial(b - a)
            out[tuple(b - a for a, b in zip(alpha, e))] = c * f
    return out


def mat_mul(A, B):
    """Product of two matrices of polynomials (lists of lists of dicts)."""
    out = []
    for row in A:
        new_row = []
        for j in range(len(B[0])):
            acc: dict = {}
            for t, a in enumerate(row):
                if a and B[t][j]:
                    acc = poly_add(acc, poly_mul(a, B[t][j]))
            new_row.append(acc)
        out.append(new_row)
    return out


# ---------------------------------------------------------------------------
# operators as data
# ---------------------------------------------------------------------------


def read_op(source) -> dict:
    """Operator file (path) or report dict -> {N, d, l, k, terms}."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    terms = {
        tuple(t["alpha"]): [[Fraction(c) for c in row] for row in t["matrix"]]
        for t in data["terms"]
    }
    return {"N": data["N"], "d": data["d"], "l": data["l"], "k": data["k"],
            "terms": terms}


def symbol(op: dict):
    """The l x d matrix of polynomials sum_alpha A_alpha xi^alpha."""
    S = [[{} for _ in range(op["d"])] for _ in range(op["l"])]
    for alpha, m in op["terms"].items():
        for i in range(op["l"]):
            for j in range(op["d"]):
                if m[i][j]:
                    S[i][j] = poly_add(S[i][j], {alpha: m[i][j]})
    return S


def symbol_at(op: dict, point):
    return [[poly_eval(p, point) for p in row] for row in symbol(op)]


def apply_to_field(op: dict, u):
    """(A u)_i = sum_alpha sum_j A_alpha[i][j] d^alpha u_j for polynomial u."""
    out = [{} for _ in range(op["l"])]
    for alpha, m in op["terms"].items():
        du = [poly_derivative(p, alpha) for p in u]
        for i in range(op["l"]):
            for j in range(op["d"]):
                if m[i][j]:
                    out[i] = poly_add(out[i], {e: c * m[i][j] for e, c in du[j].items()})
    return out


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------


def _real(M):
    return [[x.re if isinstance(x, QI) else Fraction(x) for x in row] for row in M]


def rref(M):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    m = [list(row) for row in M]
    pivots = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(M) -> int:
    return len(rref(M)[1]) if M and M[0] else 0


def nullspace(M):
    m, pivots = rref(M)
    cols = len(M[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        basis.append(v)
    return basis


def transpose(M):
    return [list(col) for col in zip(*M)]


def column_basis(M):
    _, pivots = rref(M)
    cols = transpose(M)
    return [cols[c] for c in pivots]


def intersect(U, V):
    """Basis of span(U) & span(V), both given as lists of vectors."""
    if not U or not V:
        return []
    system = transpose(U + [[-x for x in v] for v in V])
    dim = len(U[0])
    out = []
    for coeffs in nullspace(system):
        out.append([sum(c * u[i] for c, u in zip(coeffs, U)) for i in range(dim)])
    return column_basis(transpose(out)) if out else []


def projector_onto_complement(W, dim):
    """P = I - W (W^T W)^{-1} W^T over Q (identity for empty W)."""
    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    if not W:
        return ident
    n = len(W)
    gram = [[sum(a * b for a, b in zip(W[i], W[j])) for j in range(n)] for i in range(n)]
    aug = [gram[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, _ = rref(aug)
    inv = [row[n:] for row in m]
    P = [row[:] for row in ident]
    for i in range(dim):
        for j in range(dim):
            P[i][j] -= sum(W[a][i] * inv[a][b] * W[b][j] for a in range(n) for b in range(n))
    return P


def random_points(N, count, seed):
    rng = random.Random(seed)
    return [tuple(QI(Fraction(rng.randint(-9, 9), rng.randint(1, 7))) for _ in range(N))
            for _ in range(count)]


def generic_rank(op, points):
    return max(rank(_real(symbol_at(op, p))) for p in points)


# ---------------------------------------------------------------------------
# the ideal oracle (sympy)
# ---------------------------------------------------------------------------


def vanishes_only_at_origin(op, rho) -> bool:
    """Do the nonzero rho-minors of the symbol have only the origin as a
    common complex zero?  sympy computes the minors and a Groebner basis."""
    import sympy

    xs = sympy.symbols(f"x0:{op['N']}")

    def to_expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[x ** e for x, e in zip(xs, exp)])
                    for exp, c in p.items()), sympy.Integer(0))

    M = sympy.Matrix([[to_expr(p) for p in row] for row in symbol(op)])
    minors = []
    for rows in itertools.combinations(range(op["l"]), rho):
        for cols in itertools.combinations(range(op["d"]), rho):
            m = sympy.expand(M.extract(list(rows), list(cols)).det(method="berkowitz"))
            if m != 0:
                minors.append(m)
    require(minors, "no nonzero minor of the generic rank")
    return bool(sympy.groebner(minors, *xs, order="grevlex").is_zero_dimensional)


def oracle_profile(op, seed) -> dict:
    """Generic rank, complex constant rank and complex ellipticity."""
    rho = generic_rank(op, random_points(op["N"], 4, seed))
    const_c = vanishes_only_at_origin(op, rho)
    return {"generic_rank": rho, "constant_rank_C": const_c,
            "elliptic_C": rho == op["d"] and const_c}


def image_intersection(op, points):
    """Intersection of the symbol images at the given points."""
    current = None
    for p in points:
        image = column_basis(_real(symbol_at(op, p)))
        current = image if current is None else intersect(current, image)
    return current


# ---------------------------------------------------------------------------
# checks, one per kind of operation
# ---------------------------------------------------------------------------

REFUTED = "CERTIFIED_NO"


def _report(outcome, status, code):
    require(outcome.code == code,
            f"exit {outcome.code}, expected {code}: {outcome.stderr.strip()[-200:]}")
    rep = json.loads(outcome.report)
    require(rep["status"] == status, f"status {rep['status']}, expected {status}")
    return rep


def check_analyze(outcome, op_path, truth, seed):
    """truth: generic_rank, constant_rank_C, elliptic_C, and where known
    elliptic_R, real_constant_rank (bool) and dim_W."""
    op = read_op(op_path)
    res = _report(outcome, "OK", 0)["results"]
    for key in ("N", "d", "l", "k"):
        require(res[key] == op[key], f"{key} = {res[key]}, operator has {op[key]}")
    rho = truth["generic_rank"]
    require(res["generic_rank"] == rho, f"generic rank {res['generic_rank']}, expected {rho}")
    require(res["r"] == op["d"] - rho, f"kernel dimension {res['r']}, expected {op['d'] - rho}")
    require(res["constant_rank_C"] == truth["constant_rank_C"],
            f"constant_rank_C {res['constant_rank_C']}, expected {truth['constant_rank_C']}")
    require(res["elliptic_C"] == truth["elliptic_C"],
            f"elliptic_C {res['elliptic_C']}, expected {truth['elliptic_C']}")
    if truth["constant_rank_C"]:
        require(res["constant_rank_R"] == "CERTIFIED_YES",
                f"constant_rank_R {res['constant_rank_R']} under complex constant rank")
    elif truth.get("real_constant_rank"):
        require(res["constant_rank_R"] != REFUTED, "real constant rank refuted, but it holds")
    require(res["elliptic_R_value"] == (res["elliptic_R"] != REFUTED),
            f"elliptic_R value {res['elliptic_R_value']} with status {res['elliptic_R']}")
    if "elliptic_R" in truth:
        require(res["elliptic_R_value"] == truth["elliptic_R"],
                f"elliptic_R {res['elliptic_R_value']}, expected {truth['elliptic_R']}")
    # W: every basis vector lies in the symbol image at sample points, and
    # the dimension matches the mathematics or the sampled intersection
    W = [[parse_scalar(c).re for c in w] for w in res["W_basis"]]
    points = random_points(op["N"], 3, seed + 1)
    for w in W:
        for p in points:
            S = _real(symbol_at(op, p))
            aug = [row + [c] for row, c in zip(S, w)]
            require(rank(aug) == rank(S), f"W vector {w} is not in the image at {p}")
    require(len(W) == res["dim_W"] and rank(W or [[0]]) == len(W), "W_basis is not a basis")
    dim_w = truth.get("dim_W")
    if dim_w is None:
        dim_w = len(image_intersection(op, points))
    require(res["dim_W"] == dim_w, f"dim W {res['dim_W']}, expected {dim_w}")
    require(res["cancelling"] == (dim_w == 0), "cancelling disagrees with dim W")


def check_refuted_profile(profile, op_path, truth):
    """rank_profile on an operator with a planted real rank-drop point."""
    op = read_op(op_path)
    require(profile.generic_rank == truth["generic_rank"], "generic rank disagrees")
    require(profile.constant_rank_C == truth["constant_rank_C"], "constant_rank_C disagrees")
    require(profile.constant_rank_R == REFUTED,
            f"constant_rank_R {profile.constant_rank_R}, a rational rank drop was planted")
    point = [QI(Fraction(c)) for c in profile.real_witness]
    require(any(point), "CERTIFIED_NO point is the origin")
    S = _real(symbol_at(op, point))
    require(rank(S) < truth["generic_rank"],
            f"the rho-minors do not all vanish at the CERTIFIED_NO point {point}")


def _d_power_symbol(A, s):
    """Rows xi^b A_i[xi] for ordered b in {0..N-1}^s, the row order of D^s A."""
    SA = symbol(A)
    rows = []
    for b in itertools.product(range(A["N"]), repeat=s):
        exp = [0] * A["N"]
        for j in b:
            exp[j] += 1
        mono = {tuple(exp): Fraction(1)}
        rows.extend([[poly_mul(mono, p) for p in row] for row in SA])
    return rows


def check_factorization(outcome, calA_path, A_path, expected_s=None):
    calA, A = read_op(calA_path), read_op(A_path)
    res = _report(outcome, "OK", 0)["results"]
    require(res["inclusion_holds"] is True, "kernel inclusion reported to fail")
    fac = res["factorization"]
    s = fac["s"]
    if expected_s is not None:
        require(s == expected_s, f"factorization s = {s}, expected {expected_s}")
    L = read_op(fac["L"])
    require(L["d"] == calA["l"], "L does not act on the range of calA")
    require(mat_mul(symbol(L), symbol(calA)) == _d_power_symbol(A, s),
            f"D^{s} A != L calA")


def check_inclusion_holds(calA_path, A_path, seed):
    """Hypotheses of a random pair: complex constant rank, and equal generic
    rank of calA and of the stacked symbol [calA; A]."""
    calA, A = read_op(calA_path), read_op(A_path)
    truth = oracle_profile(calA, seed)
    require(truth["constant_rank_C"], "generated calA lacks complex constant rank")
    stacked = dict(calA, l=calA["l"] + A["l"], terms={
        alpha: calA["terms"].get(alpha, [[0] * calA["d"]] * calA["l"])
        + A["terms"].get(alpha, [[0] * A["d"]] * A["l"])
        for alpha in set(calA["terms"]) | set(A["terms"])
    })
    points = random_points(calA["N"], 4, seed)
    require(generic_rank(stacked, points) == truth["generic_rank"],
            "generated pair violates kernel inclusion")


def check_witness(outcome, calA_path, A_path):
    calA, A = read_op(calA_path), read_op(A_path)
    res = _report(outcome, "OK", 0)["results"]
    require(res["inclusion_holds"] is False, "kernel inclusion reported to hold")
    _check_witness_vectors(res["witness"], calA, A)


def _check_witness_vectors(w, calA, A):
    xi = [parse_scalar(c) for c in w["xi"]]
    v = [parse_scalar(c) for c in w["v"]]
    require(any(xi) and any(v), "witness xi or v is zero")

    def apply(op):
        return [sum((a * b for a, b in zip(row, v)), QI(0)) for row in symbol_at(op, xi)]

    require(not any(apply(calA)), "calA[xi] v != 0 for the witness")
    residual = apply(A)
    require(any(residual), "A[xi] v == 0 for the witness")
    require(residual == [parse_scalar(c) for c in w["residual"]],
            "reported residual differs from A[xi] v")


def check_hypotheses_not_met(outcome):
    _report(outcome, "HYPOTHESES_NOT_MET", 2)


def check_input_error(outcome, field):
    require(outcome.code == 4, f"exit {outcome.code}, expected 4")
    require(field in outcome.stderr, f"message does not name the field {field!r}")


def check_annihilator(ann, op_path, seed):
    op = read_op(op_path)
    require(ann.op is not None, "zero annihilator")
    B = symbol({"l": op["l"], "d": op["l"], "terms": ann.op.terms})
    require(all(not p for row in mat_mul(B, symbol(op)) for p in row), "B S != 0")
    rho = generic_rank(op, random_points(op["N"], 4, seed))
    for p in random_points(op["N"], 2, seed + 2):
        Bp = [[poly_eval(q, p).re for q in row] for row in B]
        require(rank(Bp) == op["l"] - rho, f"ker B[xi] != image at {p}")


def check_cbeta(result, op_path, dim_w):
    ann, W_basis, C_beta = result
    op = read_op(op_path)
    l = op["l"]
    require(len(W_basis) == dim_w, f"dim W {len(W_basis)}, expected {dim_w}")
    P = projector_onto_complement([[Fraction(c) for c in w] for w in W_basis], l)
    acc = [[Fraction(0)] * l for _ in range(l)]
    for beta, C in C_beta.items():
        Bb = ann.op.terms[beta]
        Ce = C.entries
        for i in range(l):
            for j in range(l):
                acc[i][j] += sum(Ce[i][t] * Bb[t][j] for t in range(len(Bb)))
    require(acc == P, "sum_beta C_beta B_beta != P_{W perp}")


def check_lift(lift, op_path, target):
    op = read_op(op_path)
    Pi = [dict(p.terms) for p in lift.Pi]
    require(apply_to_field(op, Pi) == target, "A Pi != pi")
    deg = max((sum(e) for p in target for e in p), default=-1)
    require(max((sum(e) for p in Pi for e in p), default=-1) <= deg + op["k"],
            "deg Pi exceeds deg pi + k")


KORN_P2 = math.sqrt(2.0)  # |xi (x) v| / |sym(xi (x) v)| at v orthogonal to xi


def check_korn2(outcome):
    value = _report(outcome, "OK", 0)["results"]["constant_p2"]
    require(abs(value - KORN_P2) <= 1e-6, f"korn2 constant {value!r}, expected sqrt(2)")


def check_blowup(outcome, calA_path, A_path):
    calA, A = read_op(calA_path), read_op(A_path)
    res = _report(outcome, "OK", 0)["results"]
    _check_witness_vectors(res["witness"], calA, A)
    summary = res["experiment"]["summary"]
    slope = summary["loglog_slope"]
    require(slope is not None and abs(slope - A["k"]) <= 0.05,
            f"blow-up slope {slope}, expected {A['k']} +- 0.05")
    require(summary["gram_rank"] == 4, f"Gram rank {summary['gram_rank']}, expected 4")


def check_bb(outcome):
    exp = _report(outcome, "OK", 0)["results"]["experiment"]
    require(exp["summary"]["max_constraint_residual"] <= 1e-12,
            f"constraint residual {exp['summary']['max_constraint_residual']}")
    require(exp["trials"] and all(math.isfinite(t["ratio"]) for t in exp["trials"]),
            "non-finite or missing bb ratios")


def check_sobolev(outcome):
    _report(outcome, "BOUNDED", 0)
