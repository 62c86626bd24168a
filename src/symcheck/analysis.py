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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import (
    MultiPoly,
    PolyMatrix,
    ScalarMatrix,
    integer_form,
    monomials_of_degree,
    projector_onto_complement,
    subspace_intersect,
)
from .groebner import GroebnerBasis, TermOrder, zero_dim_origin
from .operators import (
    DiffOp,
    OperatorPair,
    from_symbol,
    multi_index,
    ordered_tuples,
)

CERTIFIED_YES = "CERTIFIED_YES"
CERTIFIED_NO = "CERTIFIED_NO"
UNCERTIFIED_YES = "UNCERTIFIED_YES"

REAL_SAMPLE_BUDGET = 10_000
STABLE_ROUNDS = 8
SAMPLE_BLOCK = 2048  # most grid points in a block; words per variable of a random block
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


def _shell(N: int, s: int):
    """The integer points of max-norm s in N coordinates, lazily and in
    ``itertools.product`` order: a first coordinate of -s or s takes any
    tail, any other first coordinate a tail of max-norm s. So in high N the
    first points are dense ones such as (-1, ..., -1), not the sparse axes;
    ordering a shell by its number of nonzero coordinates would move the
    witnesses found today (ROADMAP item E)."""
    side = range(-s, s + 1)
    for c in side if N else ():
        tails = itertools.product(side, repeat=N - 1) if abs(c) == s else _shell(N - 1, s)
        for tail in tails:
            yield (c, *tail)


def _sample_points(rng: random.Random, N: int, grid_radius: int, radius: int):
    """Nonzero integer points without end, in int64 blocks of shape (n, N):
    the shell grid of `grid_radius`, one shell or less per block so that an
    early stop builds little of it, then the points of ``tuple(rng.randint(
    -radius, radius) for _ in range(N))`` in order, from the same stream: in
    CPython 3.10 to 3.13, randint(a, b) is a + r, r the top k bits of a
    Mersenne Twister word (k the bit length of b - a + 1), redrawn while
    r > b - a, and getrandbits(32 n) is the next n words, lowest first."""
    for s in range(1, grid_radius + 1):
        shell = _shell(N, s)
        while block := list(itertools.islice(shell, SAMPLE_BLOCK)):
            yield np.array(block, dtype=np.int64)
    width, words = 2 * radius + 1, SAMPLE_BLOCK * N
    carry = np.empty(0, dtype=np.int64)  # coordinates of a row the last block began
    while True:
        draw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        r = np.frombuffer(draw, "<u4") >> (32 - width.bit_length())
        coords = np.concatenate((carry, r[r < width].astype(np.int64) - radius))
        n = len(coords) // N
        carry, block = coords[n * N:], coords[:n * N].reshape(n, N)
        yield block[block.any(axis=1)]


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
    while r < top and any(not m.is_zero for m in sym.minors(r + 1)):
        r += 1
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
        const_R, witness = _real_constant_rank(sym, rho_minors, REAL_SAMPLE_BUDGET, seed)
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
    left = max(budget, 1)
    for block in _sample_points(random.Random(seed), sym.nvars, 3, 50):
        block = block[:left]
        hits = vanish(block)
        if hits.any():
            return CERTIFIED_NO, tuple(map(Fraction, block[hits.argmax()].tolist()))
        left -= len(block)
        if not left:
            return UNCERTIFIED_YES, None


def _vanishing_test(minors):
    """Mask over the rows of an integer block: do all the minors vanish there?
    Each minor, scaled by the lcm of its denominators, is evaluated exactly:
    in int64 when sum |c| * R^D < 2^63 (R the block's largest |coordinate|, D
    the degree), so that nothing wraps silently, else in Python ints (dtype
    object), and only on the rows where the earlier minors vanish."""
    scaled = []
    for m in filter(None, minors):  # a zero minor vanishes everywhere
        coeffs = list(integer_form(m.terms)[0].values())
        scaled.append((np.array(coeffs, dtype=object), np.array(list(m.terms), dtype=object),
                       sum(map(abs, coeffs)), max(map(sum, m.terms))))

    def vanish(points):
        alive = np.ones(len(points), dtype=bool)
        R = int(np.abs(points).max(initial=0))
        for coeffs, exps, size, degree in scaled:
            rows = np.flatnonzero(alive)
            dtype = np.int64 if size * R ** degree < 2 ** 63 else object
            powers = points[rows].astype(dtype)[:, None, :] ** exps.astype(dtype)
            alive[rows[np.prod(powers, axis=2) @ coeffs.astype(dtype) != 0]] = False
        return alive

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
            point = (Fraction(-1),) * op.N
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
    if rho == pair.calA.d:
        return InclusionVerdict(holds=True, rank=rho, minors_checked=0)
    minors = _stacked_symbol(pair).minors(rho + 1)
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

    Walks the integer shells `_shell(N, s)`, s = 1..ceil(D/2), D the degree
    of the failing minor mu, and takes the first point where mu does not
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
    grid = itertools.chain.from_iterable(_shell(pair.calA.N, s) for s in range(1, radius + 1))
    points = (tuple(map(Fraction, p)) for p in itertools.islice(grid, max(budget, 1)))
    point = next((p for p in points if mu.evaluate(p) != 0), None)
    if point is None:
        raise SampleBudgetExceeded(mu)
    A_xi = pair.A.symbol().evaluate(point)
    for v in pair.calA.symbol().evaluate(point).kernel_basis():
        res = A_xi.apply(v)
        if any(c != 0 for c in res):
            return Witness(xi=point, v=tuple(v), residual=tuple(res))
    raise AssertionError("no kernel vector of calA[xi] leaks through A[xi] where mu(xi) != 0")


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

    Row (b, i) of D^s o A is xi^beta A_i[xi], beta the multi-index of the
    tuple b, so each of the C(N+s-1, s) l distinct targets is expressed once
    over the rows of the symbol of calA, by one Groebner basis of their
    module. The rows and targets are homogeneous, and so is every division
    step and S-pair of homogeneous elements: each coefficient is a form of
    degree s + ord A - ord calA, the order of L. The rows of L come tuple b
    first, then i; the first rows of each beta times calA are re-verified
    against the targets, and every other row against them, the one check
    of the identity (`express` multiplies nothing out).
    """
    if verdict is None:
        verdict = kernel_inclusion(pair)
    if not verdict.holds:
        raise ValueError("construct_L requires kernel inclusion to hold")
    calA, A = pair.calA, pair.A
    N, l = calA.N, A.l
    sym_calA = calA.symbol()
    basis = GroebnerBasis(sym_calA.entries, TermOrder("grevlex"))
    for s in range(0, s_max + 1):
        betas = monomials_of_degree(N, s)
        targets = [tuple(mono * p for p in entries)
                   for mono in (MultiPoly.monomial(N, beta) for beta in betas)
                   for entries in A.symbol().entries]
        coeff_rows = []
        for target in targets:
            coeffs = basis.express(target)
            if coeffs is None:
                break
            coeff_rows.append(coeffs)
        if len(coeff_rows) < len(targets):
            continue
        where = {beta: t * l for t, beta in enumerate(betas)}
        starts = [where[multi_index(b, N)] for b in ordered_tuples(N, s)]
        L = from_symbol(f"L[{calA.name}->{A.name},s={s}]",
                        PolyMatrix(coeff_rows[a + i] for a in starts for i in range(l)),
                        s + A.k - calA.k)
        rows = L.symbol().entries
        blocks = [(a, rows[r * l:r * l + l]) for r, a in enumerate(starts)]
        first = {}  # the first block of l rows of L of each beta
        for a, block in blocks:
            first.setdefault(a, block)
        if any(block != first[a] for a, block in blocks) or (
                PolyMatrix(row for a in sorted(first) for row in first[a]) @ sym_calA
                != PolyMatrix(targets)):
            raise AssertionError("factorization identity failed exact verification")
        return FactorizationCertificate(s=s, L=L, verified=True)
    raise SMaxExceeded(s_max)


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
    blocks = _sample_points(random.Random(seed), op.N, 2, 20)
    for p in itertools.chain.from_iterable(block.tolist() for block in blocks):
        image = sym.evaluate(tuple(Fraction(c) for c in p)).column_space_basis()
        if len(image) != rho:
            continue
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

    M = S S^T has rank at most rho everywhere, so its charpoly is
    lambda^{l-rho}(lambda^rho + c_{rho-1} lambda^{rho-1} + ... + c_0), and
    by Cauchy-Binet c_0 is (-1)^rho times the sum of the squared rho-minors
    of S, a nonzero polynomial. The matrix polynomial
    B = (-1)^rho (M^rho + c_{rho-1} M^{rho-1} + ... + c_1 M + c_0 Id)
    is step rho of the Faddeev-LeVerrier recurrence of M, up to the sign,
    and equals (-1)^rho c_0(xi) (Id - P_{Image S[xi]}) at every real xi of
    full generic rank; the sign makes the scalar gradient give
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
    # c_0..c_{rho-1} of the factor are c_{l-rho}..c_{l-1} of the charpoly
    shifted, B = (sym @ sym.transpose()).faddeev_leverrier(rho)
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
        m=op.l,
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
    # row i of the identity decouples: the i-th rows of all C_beta solve the
    # l equations in len(betas)*m unknowns whose columns are the rows of the
    # m x l matrices B_beta, with row i of P on the right; one elimination
    # solves all l of them
    sys_rows = [row for beta in betas for row in ann.op.terms[beta]]
    rows_of_C = ScalarMatrix.from_columns(sys_rows).solve_many(P.entries)
    if None in rows_of_C:
        raise ProjectionInfeasible(
            "projection identity infeasible",
            data={"row": rows_of_C.index(None), "P": P},
        )
    C_beta = {
        beta: ScalarMatrix([[row[b * m + t] for t in range(m)] for row in rows_of_C])
        for b, beta in enumerate(betas)
    }
    # exact re-verification of the identity, as one product: the C_beta side
    # by side times the B_beta stacked
    side_by_side = ScalarMatrix([c for C in C_beta.values() for c in C.entries[i]]
                                for i in range(l))
    if side_by_side @ ScalarMatrix(sys_rows) != P:
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


def polynomial_lift(A: DiffOp, pi: Sequence[MultiPoly]) -> PolynomialLift:
    """Polynomial Pi with A Pi = pi and deg Pi <= deg pi + k (exact).

    Write the degree-(s + k) part of Pi as sum_alpha x^alpha v_alpha / alpha!.
    The coefficient of x^beta (|beta| = s) in row i of A Pi, times beta!, is
    sum_gamma A_gamma[i] v_(beta+gamma), so each degree s is one linear
    system of C(N+s-1, s) l rows read off the coefficients of A; the
    identity A Pi = pi is re-verified by formal differentiation.
    """
    if len(pi) != A.l:
        raise ValueError("target dimension mismatch")
    N, d = A.N, A.d
    deg = max((p.degree() for p in pi), default=-1)
    Pi = [MultiPoly.zero(N) for _ in range(d)]
    for s in range(deg + 1):
        betas = monomials_of_degree(N, s)
        c = [math.prod(map(math.factorial, beta)) * p.terms.get(beta, 0)
             for beta in betas for p in pi]
        if not any(c):
            continue
        # for each beta, the coefficient matrix A_gamma of each beta + gamma
        shifted = [{tuple(b + g for b, g in zip(beta, gamma)): m for gamma, m in A.terms.items()}
                   for beta in betas]
        alphas = sorted(set().union(*shifted))
        col = {alpha: a * d for a, alpha in enumerate(alphas)}
        rows = []
        for by_alpha in shifted:
            for i in range(A.l):
                row = [0] * (len(alphas) * d)
                for alpha, m in by_alpha.items():
                    row[col[alpha]:col[alpha] + d] = m[i]
                rows.append(row)
        v = ScalarMatrix(rows).solve(c)
        if v is None:
            raise NotInImage(
                f"homogeneous component of degree {s} is not in the image"
            )
        for alpha, a in col.items():
            scale = Fraction(1, math.prod(map(math.factorial, alpha)))
            mono = MultiPoly.monomial(N, alpha, scale)
            Pi = [q + mono * v_j for q, v_j in zip(Pi, v[a:a + d])]
    check = A.apply_to_poly(Pi)
    if list(check) != list(pi):
        raise AssertionError("polynomial lift failed exact verification")
    return PolynomialLift(pi=tuple(pi), Pi=tuple(Pi))


def quotient_spec(pair: OperatorPair, s: int) -> QuotientSpec:
    """Finite-dimensional polynomial quotient with degree bound s + k + 1."""
    return QuotientSpec(degree_bound=s + pair.calA.k + 1, d=pair.calA.d, N=pair.calA.N)
