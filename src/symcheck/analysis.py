"""Decision procedures and certificate constructions for operator symbols.

Everything here is exact: ranks and kernels over Q, vanishing of
minor ideals over C decided by a Macaulay matrix rank, module membership
by a Groebner basis, and every certificate
(factorization, annihilator, projection identity, polynomial lift)
re-verified by exact expansion before it is returned.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .exact import (
    MultiPoly,
    PolyMatrix,
    ScalarMatrix,
    monomials_of_degree,
    monomials_up_to_degree,
    projector_onto_complement,
    subspace_intersect,
)
from .groebner import GroebnerBasis, TermOrder, zero_dim_origin
from .operators import (
    DiffOp,
    OperatorPair,
    compose,
    from_symbol,
    grad_power,
    multi_index,
    ordered_tuples,
)

CERTIFIED_YES = "CERTIFIED_YES"
CERTIFIED_NO = "CERTIFIED_NO"
UNCERTIFIED_YES = "UNCERTIFIED_YES"

REAL_SAMPLE_BUDGET = 10_000
STABLE_ROUNDS = 8
DEFAULT_S_MAX = 6


class HypothesesNotMet(Exception):
    """The right-hand operator lacks complex constant rank (cf. the
    bilaplacian / D^2-Laplacian counterexample); carries the rank profile."""

    def __init__(self, profile):
        super().__init__(
            "complex constant rank fails for the right-hand operator"
        )
        self.profile = profile


class SampleBudgetExceeded(Exception):
    def __init__(self, minor):
        super().__init__("witness sampling budget exceeded")
        self.minor = minor


class SMaxExceeded(Exception):
    def __init__(self, s_max):
        super().__init__(
            f"no factorization with s <= {s_max}; inclusion holds, raise s_max"
        )
        self.s_max = s_max


class DegenerateCharpoly(Exception):
    pass


class ProjectionInfeasible(Exception):
    """The projection identity of the annihilator has no solution; this
    contradicts an internal-consistency guarantee and carries the data."""

    def __init__(self, msg, data=None):
        super().__init__(msg)
        self.data = data


class NotInImage(Exception):
    """The polynomial target is not in the image of the operator."""


@dataclass(frozen=True)
class RankProfile:
    generic_rank: int
    kernel_dim: int
    constant_rank_C: bool
    constant_rank_R: str  # CERTIFIED_YES / CERTIFIED_NO / UNCERTIFIED_YES
    real_witness: Optional[tuple] = None  # rank-drop point for CERTIFIED_NO


@dataclass(frozen=True)
class Witness:
    xi: tuple  # real Fraction coordinates, nonzero
    v: tuple  # exact kernel vector of calA[xi]
    residual: tuple  # A[xi] v, nonzero


@dataclass(frozen=True)
class InclusionVerdict:
    holds: bool
    rank: int
    minors_checked: int
    failing_minor: Optional[MultiPoly] = None


@dataclass(frozen=True)
class FactorizationCertificate:
    s: int
    L: DiffOp
    verified: bool


@dataclass(frozen=True)
class Annihilator:
    op: Optional[DiffOp]  # None encodes the zero operator
    order: int
    charpoly_coeffs: tuple  # c_0..c_{rho-1} as MultiPoly
    m: int
    sign: int


@dataclass(frozen=True)
class CancellationReport:
    W_basis: tuple
    cancelling: bool
    P_Wperp: ScalarMatrix
    C_beta: Optional[dict] = None  # multi-index -> ScalarMatrix
    rank_status: str = CERTIFIED_YES


@dataclass(frozen=True)
class PolynomialLift:
    pi: tuple  # target polynomial vector
    Pi: tuple  # lift with A Pi = pi, deg Pi <= deg pi + k


@dataclass(frozen=True)
class QuotientSpec:
    degree_bound: int
    d: int
    N: int
    basis: tuple = field(repr=False, default=())

    @property
    def dimension(self) -> int:
        return self.d * math.comb(self.N + self.degree_bound, self.N)


@dataclass(frozen=True)
class WAnnihilationResult:
    holds: bool
    s_precondition_met: bool


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _sphere_like_grid(N: int, radius: int):
    """Deterministic nonzero integer points with coordinates in [-r, r],
    generated lazily, shell by shell in max-norm.

    Within a shell the points come in ``itertools.product`` order, first
    coordinate slowest, so in high N the first points are dense ones such as
    (-1, ..., -1), not the sparse axes. Ordering a shell by its number of
    nonzero coordinates would move the witnesses found today (ROADMAP item
    E), so the order stays as it is.
    """
    for shell in range(1, radius + 1):
        for p in itertools.product(range(-shell, shell + 1), repeat=N):
            if max(abs(c) for c in p) == shell:
                yield p


def _sample_points(rng: random.Random, N: int, grid_radius: int, radius: int):
    """Nonzero integer points without end: the shell grid of `grid_radius`,
    then random points with coordinates in [-radius, radius]."""
    yield from _sphere_like_grid(N, grid_radius)
    while True:
        p = tuple(rng.randint(-radius, radius) for _ in range(N))
        if any(p):
            yield p


def generic_rank(sym: PolyMatrix) -> int:
    """Largest r with a not-identically-zero r x r minor.

    Starts from the rank at one fixed point and raises while some larger
    minor is a nonzero polynomial. The rank at any point is a lower bound,
    so the answer does not depend on the point.
    """
    rng = random.Random(0)
    point = tuple(
        Fraction(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(sym.nvars)
    )
    r = sym.evaluate(point).rank()
    top = min(sym.rows, sym.cols)
    while r < top:
        if any(not m.is_zero for m in sym.minors(r + 1)):
            r += 1
        else:
            break
    return r


# ---------------------------------------------------------------------------
# rank profile and ellipticity
# ---------------------------------------------------------------------------


def rank_profile(
    op: DiffOp,
    *,
    want_real: bool = True,
    seed: int = 0,
) -> RankProfile:
    sym = op.symbol()
    rho = generic_rank(sym)
    rho_minors = [m for m in sym.minors(rho) if not m.is_zero]
    const_C = zero_dim_origin(rho_minors)
    if const_C:
        # real frequencies are complex frequencies and real matrices have
        # equal nullity over R and C, so real constant rank follows
        const_R, witness = CERTIFIED_YES, None
    elif not want_real:
        const_R, witness = UNCERTIFIED_YES, None
    else:
        const_R, witness = _real_constant_rank(
            sym, rho_minors, REAL_SAMPLE_BUDGET, seed
        )
    return RankProfile(
        generic_rank=rho,
        kernel_dim=op.d - rho,
        constant_rank_C=const_C,
        constant_rank_R=const_R,
        real_witness=witness,
    )


def _real_constant_rank(sym, rho_minors, budget, seed):
    """Search integer points for a common real zero of the rho-minors: the
    radius-3 grid, then random points of radius 50, `budget` points in all
    (at least one)."""
    vanish = _vanishing_test(rho_minors)
    points = _sample_points(random.Random(seed), sym.nvars, 3, 50)
    for point in itertools.islice(points, max(budget, 1)):
        if vanish(point):
            return CERTIFIED_NO, tuple(Fraction(c) for c in point)
    return UNCERTIFIED_YES, None


def _vanishing_test(minors):
    """Predicate on integer points: do all the minors vanish there?

    Each minor is scaled once by the lcm of its coefficient denominators
    and evaluated in Python ints, which is exact: an integer multiple of a
    value is zero iff the value is.
    """
    scaled = []
    for m in minors:
        lcm = math.lcm(*(c.denominator for c in m.terms.values()))
        scaled.append(([int(c * lcm) for c in m.terms.values()], list(m.terms)))

    def vanish(point):
        return not any(
            sum(map(mul, coeffs, [math.prod(map(pow, point, e)) for e in exps]))
            for coeffs, exps in scaled
        )

    return vanish


@dataclass(frozen=True)
class EllipticVerdict:
    field: str  # "R" or "C"
    value: bool
    status: str  # for C: CERTIFIED_YES/CERTIFIED_NO; for R possibly UNCERTIFIED_YES
    witness: Optional[tuple] = None


def is_elliptic(
    op: DiffOp,
    field: str,
    *,
    profile: Optional[RankProfile] = None,
    seed: int = 0,
) -> EllipticVerdict:
    """Injectivity of the symbol on nonzero frequencies, over R or over C.

    A function of the rank profile: the symbol is injective exactly where
    its rank is d. With generic rank rho < d it is injective nowhere. With
    rho == d the d-minors are the rho-minors, so ellipticity over C is
    complex constant rank, and over R it is the profile's real-rank
    sampling. A `profile` passed in must come from `rank_profile` with the
    same seed and the real sampling on (`want_real`).
    """
    if field not in ("R", "C"):
        raise ValueError("field must be 'R' or 'C'")
    if profile is None and op.l >= op.d:
        profile = rank_profile(op, want_real=field == "R", seed=seed)
    if op.l < op.d or profile.generic_rank < op.d:
        # the kernel is nontrivial at every nonzero point
        if field == "C":
            return EllipticVerdict("C", False, CERTIFIED_NO)
        if op.l < op.d:
            point = tuple(Fraction(1 if i == 0 else 0) for i in range(op.N))
        else:
            point = tuple(Fraction(c) for c in next(_sphere_like_grid(op.N, 1)))
        return EllipticVerdict("R", False, CERTIFIED_NO, witness=point)
    if field == "C":
        elliptic_C = profile.constant_rank_C
        return EllipticVerdict(
            "C", elliptic_C, CERTIFIED_YES if elliptic_C else CERTIFIED_NO
        )
    status = profile.constant_rank_R
    return EllipticVerdict(
        "R", status != CERTIFIED_NO, status, witness=profile.real_witness
    )


# ---------------------------------------------------------------------------
# kernel inclusion and witnesses
# ---------------------------------------------------------------------------


def _stacked_symbol(pair: OperatorPair) -> PolyMatrix:
    return pair.calA.symbol().stack(pair.A.symbol())


def kernel_inclusion(
    pair: OperatorPair, *, profile: Optional[RankProfile] = None
) -> InclusionVerdict:
    """Decide ker calA[xi] subset ker A[xi] for all complex xi != 0.

    With constant rank rho over C, inclusion fails at some xi iff the
    stacked symbol has rank > rho there; a homogeneous polynomial vanishing
    on C^N minus the origin vanishes identically, so the decision reduces
    to identical vanishing of all (rho+1)-minors of the stacked symbol.
    """
    if profile is None:
        profile = rank_profile(pair.calA, want_real=False)
    if not profile.constant_rank_C:
        raise HypothesesNotMet(profile)
    rho = profile.generic_rank
    stacked = _stacked_symbol(pair)
    if rho + 1 > min(stacked.rows, stacked.cols):
        return InclusionVerdict(holds=True, rank=rho, minors_checked=0)
    minors = stacked.minors(rho + 1)
    for m in minors:
        if not m.is_zero:
            return InclusionVerdict(
                holds=False, rank=rho, minors_checked=len(minors), failing_minor=m
            )
    return InclusionVerdict(holds=True, rank=rho, minors_checked=len(minors))


def find_witness(
    pair: OperatorPair,
    *,
    verdict: Optional[InclusionVerdict] = None,
    budget: int = 20_000,
) -> Witness:
    """Exact real (xi, v) with calA[xi] v = 0 and A[xi] v != 0.

    Walks the integer grid `_sphere_like_grid(N, ceil(D/2))`, D the degree
    of the failing minor mu, and returns the first point where mu does not
    vanish; `budget` points at most (at least one), then
    SampleBudgetExceeded.

    Such a point always lies on that grid. mu is a (rho+1)-minor of the
    stacked symbol, and each term of a minor uses every chosen row exactly
    once, so mu is a nonzero form of degree D. By Alon's Combinatorial
    Nullstellensatz a nonzero polynomial of degree D cannot vanish on all
    of {-r..r}^N once 2r + 1 > D, and a form of degree D >= 1 vanishes at
    the origin, so mu is nonzero at a grid point of radius ceil(D/2) (at
    least 1). The verdict needs complex constant rank rho (kernel_inclusion
    raises HypothesesNotMet otherwise), so calA[xi] has rank rho at every
    real xi != 0; where mu(xi) != 0 the stacked symbol has larger rank, and
    some kernel basis vector of calA[xi] is not annihilated by A[xi].
    """
    if verdict is None:
        verdict = kernel_inclusion(pair)
    if verdict.holds:
        raise ValueError("find_witness requires a failing inclusion verdict")
    mu = verdict.failing_minor
    radius = max(1, -(-mu.degree() // 2))
    grid = _sphere_like_grid(pair.calA.N, radius)
    for p in itertools.islice(grid, max(budget, 1)):
        point = tuple(Fraction(c) for c in p)
        if mu.evaluate(point) == 0:
            continue
        calA_xi = pair.calA.symbol().evaluate(point)
        A_xi = pair.A.symbol().evaluate(point)
        for v in calA_xi.kernel_basis():
            res = A_xi.apply(v)
            if any(c != 0 for c in res):
                return Witness(xi=point, v=tuple(v), residual=tuple(res))
    raise SampleBudgetExceeded(mu)


# ---------------------------------------------------------------------------
# factorization D^s o A = L o calA
# ---------------------------------------------------------------------------


def construct_L(
    pair: OperatorPair,
    s_max: int = DEFAULT_S_MAX,
    *,
    verdict: Optional[InclusionVerdict] = None,
) -> FactorizationCertificate:
    """Smallest s <= s_max with D^s o A = L o calA, plus the operator L.

    The rows of L are module-membership coefficients of the rows
    xi^b * A_i[xi] in the row module of the symbol of calA, all reduced by
    one Groebner basis of that module. L has order s + ord A - ord calA,
    which is also the degree of its coefficients.
    """
    if verdict is None:
        verdict = kernel_inclusion(pair)
    if not verdict.holds:
        raise ValueError("construct_L requires kernel inclusion to hold")
    calA, A = pair.calA, pair.A
    N = calA.N
    sym_calA = calA.symbol()
    gen_rows = [i for i, row in enumerate(sym_calA.entries) if any(row)]
    basis = GroebnerBasis([sym_calA.entries[i] for i in gen_rows], TermOrder("grevlex"))
    sym_A = A.symbol()
    for s in range(0, s_max + 1):
        order_L = s + A.k - calA.k
        coeff_rows = _factor_rows(sym_A, basis, gen_rows, calA.l, s, order_L)
        if coeff_rows is None:
            continue
        L = from_symbol(f"L[{calA.name}->{A.name},s={s}]", PolyMatrix(coeff_rows), order_L)
        if grad_power(s, A.l, N).symbol() @ sym_A != L.symbol() @ sym_calA:
            raise AssertionError("factorization identity failed exact verification")
        return FactorizationCertificate(s=s, L=L, verified=True)
    raise SMaxExceeded(s_max)


def _factor_rows(sym_A, basis, gen_rows, width, s, degree):
    """Coefficient rows of every row xi^b A_i over the rows of calA, or None.

    Each target depends on the monomial xi^b only, so it is expressed once
    per monomial; the rows come out in the row order of D^s, tuple b first,
    then i. A generator's coefficient goes to the column of its row
    `gen_rows[j]` of calA; the other `width` columns stay zero. The target
    is homogeneous of degree `degree` plus the generators' degree, so the
    degree-`degree` component of any representation still represents it.
    """
    N = sym_A.nvars
    zero = MultiPoly.zero(N)
    by_monomial = {}
    for exp in monomials_of_degree(N, s):
        mono = MultiPoly.monomial(N, exp)
        rows = []
        for entries in sym_A.entries:
            coeffs = basis.express(tuple(mono * p for p in entries))
            if coeffs is None:
                return None
            row = [zero] * width
            for j, c in zip(gen_rows, coeffs):
                row[j] = c.homogeneous_component(degree)
            rows.append(row)
        by_monomial[exp] = rows
    return [
        row for b in ordered_tuples(N, s) for row in by_monomial[multi_index(b, N)]
    ]


# ---------------------------------------------------------------------------
# cancellation: W, annihilator, C_beta, and the L-annihilation identity
# ---------------------------------------------------------------------------


def compute_W(
    op: DiffOp,
    *,
    profile: Optional[RankProfile] = None,
    seed: int = 0,
) -> CancellationReport:
    """Exact basis of W, the intersection of the symbol images over the real
    frequencies of generic rank (every real xi != 0 under real constant
    rank).

    Sampling gives a candidate superspace (the intersection is monotone
    decreasing); its span is then cut down to W exactly by the identical
    vanishing of the (rho+1)-minors of the symbol augmented with a vector
    of the span as an extra column.
    """
    if profile is None:
        profile = rank_profile(op, seed=seed)
    rho = profile.generic_rank
    sym = op.symbol()
    l = op.l
    current: Optional[list] = None
    stable = 0
    for p in _sample_points(random.Random(seed), op.N, 2, 20):
        M = sym.evaluate(tuple(Fraction(c) for c in p))
        if M.rank() != rho:
            continue
        image = M.column_space_basis()
        if current is None:
            current = image
        else:
            new = subspace_intersect(current, image, l)
            stable = stable + 1 if len(new) == len(current) else 0
            current = new
        if not current or stable == STABLE_ROUNDS:
            break
    certified = _in_all_images(sym, rho, current or [])
    P = projector_onto_complement(certified, l)
    return CancellationReport(
        W_basis=tuple(certified),
        cancelling=not certified,
        P_Wperp=P,
        rank_status=profile.constant_rank_R,
    )


def _in_all_images(sym: PolyMatrix, rho: int, candidates: list) -> list:
    """Basis of the w in span(candidates) with w in Image sym[xi] at every
    real xi of generic rank rho: those for which every (rho+1)-minor of
    [sym | w] is the zero polynomial.

    The minors are linear in w, so these w come from the kernel of the map
    from the candidates' coefficients to the minors' coefficients. A
    candidate that passes alone gives a zero column there, so it comes back
    unchanged and in its place.
    """
    if rho + 1 > sym.rows:
        return candidates
    nv = sym.nvars
    columns = []
    for w in candidates:
        aug = PolyMatrix(
            [list(row) + [MultiPoly.const(nv, c)] for row, c in zip(sym.entries, w)]
        )
        columns.append({
            (t, exp): c
            for t, m in enumerate(aug.minors(rho + 1))
            for exp, c in m.terms.items()
        })
    keys = set().union(*columns)
    if not keys:
        return candidates
    coeffs = ScalarMatrix([[col.get(key, Fraction(0)) for col in columns] for key in keys])
    return [
        tuple(sum(a * w[i] for a, w in zip(v, candidates) if a) for i in range(sym.rows))
        for v in coeffs.kernel_basis()
    ]


def construct_annihilator(
    op: DiffOp, *, profile: Optional[RankProfile] = None, seed: int = 0
) -> Annihilator:
    """Cayley-Hamilton annihilator of the symbol image.

    With M = S S^T and charpoly lambda^{l-rho}(lambda^rho + c_{rho-1}
    lambda^{rho-1} + ... + c_0), the matrix polynomial
    B = (-1)^rho (M^rho + c_{rho-1} M^{rho-1} + ... + c_1 M + c_0 Id)
    equals (-1)^rho c_0(xi) (Id - P_{Image S[xi]}) at every real xi of full
    generic rank; the sign makes the scalar gradient give
    |xi|^2 Id - xi xi^T.  B S = 0 is verified as an exact identity.
    """
    if profile is None:
        profile = rank_profile(op, seed=seed)
    if profile.constant_rank_R == CERTIFIED_NO:
        raise DegenerateCharpoly(
            "real constant rank refuted; no annihilator with exact image kernel"
        )
    sym = op.symbol()
    rho = profile.generic_rank
    l = op.l
    M = sym @ sym.transpose()
    cs_full = M.charpoly()  # c_0..c_{l-1} of det(lambda Id - M)
    if any(cs_full[: l - rho]):
        raise DegenerateCharpoly("charpoly has a nonzero coefficient below the rank gap")
    shifted = cs_full[l - rho : l - rho + rho]  # c_0..c_{rho-1} of the factor
    if not shifted or shifted[0].is_zero:
        raise DegenerateCharpoly("constant coefficient of the rank factor vanishes")
    identity = PolyMatrix.identity(l, op.N)
    # Horner: B = (...((M + c_{rho-1}) M + c_{rho-2}) M ...) M + c_0
    B = M
    for c in reversed(shifted[1:]):
        B = (B + identity.scale_poly(c)) @ M
    B = B + identity.scale_poly(shifted[0])
    sign = (-1) ** rho
    B = B.scale(Fraction(sign))
    prod = B @ sym
    if not prod.is_zero:
        raise AssertionError("annihilator does not annihilate the symbol")
    order = 2 * op.k * rho
    b_op = None if B.is_zero else from_symbol(f"ann[{op.name}]", B, order)
    return Annihilator(
        op=b_op,
        order=order,
        charpoly_coeffs=tuple(shifted),
        m=l,
        sign=sign,
    )


def construct_Cbeta(
    ann: Annihilator, W_basis: Sequence[Sequence], l: int
) -> dict:
    """Exact linear maps C_beta with sum_beta C_beta B_beta = P_{W^perp}."""
    P = projector_onto_complement(list(W_basis), l)
    if ann.op is None:
        if P.is_zero:
            return {}
        raise ProjectionInfeasible(
            "zero annihilator with a nontrivial orthogonal complement",
            data={"P": P},
        )
    betas = sorted(ann.op.terms)
    m = ann.m
    # row i of the identity decouples: solve for the i-th rows of all C_beta
    rows_of_C: list[list] = []
    system_cols = []
    for beta in betas:
        Bb = ann.op.terms[beta]  # m x l
        for t in range(m):
            system_cols.append([Bb[t][j] for j in range(l)])
    # system matrix: (l equations) x (len(betas)*m unknowns) per identity row
    sys_mat = ScalarMatrix.from_columns(system_cols)  # l x (betas*m)
    for i in range(l):
        rhs = [P.entries[i][j] for j in range(l)]
        sol = sys_mat.solve(rhs)
        if sol is None:
            raise ProjectionInfeasible(
                "projection identity infeasible", data={"row": i, "P": P}
            )
        rows_of_C.append(list(sol))
    C_beta = {}
    for b_idx, beta in enumerate(betas):
        C = [
            [rows_of_C[i][b_idx * m + t] for t in range(m)]
            for i in range(l)
        ]
        C_beta[beta] = ScalarMatrix(C)
    # exact re-verification of the identity
    acc = ScalarMatrix.zeros(l, l)
    for beta, C in C_beta.items():
        Bb = ScalarMatrix(ann.op.terms[beta])
        acc = acc + (C @ Bb)
    if acc != P:
        raise AssertionError("C_beta identity failed exact verification")
    return C_beta


def verify_L_annihilates_W(L: DiffOp, W_basis: Sequence[Sequence], s: int) -> WAnnihilationResult:
    """Exact polynomial identity L[xi] w = 0 for every W basis vector.

    The underlying claim requires s >= 1; for s = 0 the result records the
    precondition violation instead of asserting the identity.
    """
    sym = L.symbol()
    holds = True
    for w in W_basis:
        if any(not p.is_zero for p in sym.apply_vector(list(w))):
            holds = False
            break
    pre_ok = s >= 1 or not W_basis
    return WAnnihilationResult(holds=holds, s_precondition_met=pre_ok)


# ---------------------------------------------------------------------------
# polynomial lifts and the quotient space
# ---------------------------------------------------------------------------


def _constant_case_lift(op: DiffOp, c: Sequence) -> list:
    """Solve c = sum_alpha A_alpha v_alpha; return {alpha: v_alpha} or None."""
    alphas = sorted(op.terms)
    cols = []
    for alpha in alphas:
        m = op.terms[alpha]
        for j in range(op.d):
            cols.append([m[i][j] for i in range(op.l)])
    sys_mat = ScalarMatrix.from_columns(cols)
    sol = sys_mat.solve(list(c))
    if sol is None:
        return None
    out = {}
    for a_idx, alpha in enumerate(alphas):
        out[alpha] = tuple(sol[a_idx * op.d + j] for j in range(op.d))
    return out


def polynomial_lift(A: DiffOp, pi: Sequence[MultiPoly]) -> PolynomialLift:
    """Polynomial Pi with A Pi = pi and deg Pi <= deg pi + k (exact).

    Each homogeneous component of degree s is lifted through the constant
    case for D^s o A, following the inductive argument; the identity
    A Pi = pi is re-verified by formal differentiation.
    """
    if len(pi) != A.l:
        raise ValueError("target dimension mismatch")
    N = A.N
    deg = max((p.degree() for p in pi), default=-1)
    Pi = [MultiPoly.zero(N) for _ in range(A.d)]
    for s in range(0, max(deg, -1) + 1):
        comp = [p.homogeneous_component(s) for p in pi]
        if all(p.is_zero for p in comp):
            continue
        T = compose(grad_power(s, A.l, N), A)
        # constant target: all order-s derivatives of the component
        c = [
            p.derivative_multi(multi_index(b, N)).terms.get((0,) * N, Fraction(0))
            for b in ordered_tuples(N, s)
            for p in comp
        ]
        valphas = _constant_case_lift(T, c)
        if valphas is None:
            raise NotInImage(
                f"homogeneous component of degree {s} is not in the image"
            )
        for alpha, v in valphas.items():
            scale = Fraction(1, math.prod(map(math.factorial, alpha)))
            mono = MultiPoly.monomial(N, alpha, scale)
            Pi = [q + mono * v_j for q, v_j in zip(Pi, v)]
    check = A.apply_to_poly(Pi)
    if list(check) != list(pi):
        raise AssertionError("polynomial lift failed exact verification")
    return PolynomialLift(pi=tuple(pi), Pi=tuple(Pi))


def quotient_spec(pair: OperatorPair, s: int) -> QuotientSpec:
    """Finite-dimensional polynomial quotient with degree bound s + k + 1."""
    k = pair.calA.k
    N, d = pair.calA.N, pair.calA.d
    bound = s + k + 1
    basis = tuple(
        (gamma, j)
        for gamma in monomials_up_to_degree(N, bound)
        for j in range(d)
    )
    return QuotientSpec(degree_bound=bound, d=d, N=N, basis=basis)
