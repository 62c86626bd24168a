"""Shared generators for randomized tests."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from symcheck import exact, numerics
from symcheck.analysis import (
    DEFAULT_S_MAX,
    CERTIFIED_NO,
    CERTIFIED_YES,
    REAL_SAMPLE_BUDGET,
    UNCERTIFIED_YES,
    Annihilator,
    DegenerateCharpoly,
    ProjectionInfeasible,
    EllipticVerdict,
    FactorizationCertificate,
    HypothesesNotMet,
    NotInImage,
    PolynomialLift,
    SMaxExceeded,
    construct_L,
    kernel_inclusion,
    quotient_spec,
    rank_profile,
)
from symcheck.exact import (
    MultiPoly,
    PolyMatrix,
    ScalarMatrix,
    back_substitute,
    forward_eliminate,
    monomials_of_degree,
    reduce_basis,
)
from symcheck.groebner import GroebnerBasis, TermOrder, zero_dim_origin
from symcheck.numerics import (
    INFINITE_RATIO,
    ExperimentReport,
    GridField,
    TrigField,
    grid_points,
    lp_norm,
)
from symcheck.operators import (
    DiffOp,
    OperatorFormatError,
    OperatorPair,
    catalog,
    from_symbol,
    grad_power,
    multi_index,
    ordered_tuples,
    serialize_op,
)


def rand_fraction(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, nvars, max_deg=3, n_terms=4, span=4):
    terms = {}
    for _ in range(n_terms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exp) > max_deg:
            continue
        terms[exp] = terms.get(exp, Fraction(0)) + rand_fraction(rng, span)
    return MultiPoly(nvars, terms)


def rand_homogeneous(rng, nvars, deg, span=3):
    monos = monomials_of_degree(nvars, deg)
    terms = {
        m: Fraction(rng.randint(-span, span))
        for m in rng.sample(monos, k=min(len(monos), rng.randint(1, 3)))
    }
    return MultiPoly(nvars, terms)


def rand_op(rng, N=2, d=None, l=None, k=None, span=2, density=0.7):
    """Random homogeneous constant-coefficient operator, never zero."""
    d = d or rng.randint(1, 2)
    l = l or rng.randint(1, 3)
    k = k or rng.randint(1, 2)
    while True:
        terms = {}
        for alpha in monomials_of_degree(N, k):
            if rng.random() > density:
                continue
            m = [
                [Fraction(rng.randint(-span, span)) for _ in range(d)]
                for _ in range(l)
            ]
            if any(any(row) for row in m):
                terms[alpha] = m
        if terms:
            return DiffOp("random", N, d, l, k, terms)


def rand_rational_op(rng, N, d, l, k):
    """Random operator of order k >= 0 with rational coefficients, never
    zero."""
    while True:
        terms = {alpha: [[rand_fraction(rng) if rng.random() < 0.7 else Fraction(0)
                          for _ in range(d)] for _ in range(l)]
                 for alpha in monomials_of_degree(N, k) if rng.random() < 0.8}
        if any(c for m in terms.values() for row in m for c in row):
            return DiffOp("random", N, d, l, k, terms)


def rand_field(rng, N, d, degree):
    """d random polynomials of degree at most `degree`, with rational
    coefficients and a few terms in each degree."""
    return [sum((rand_homogeneous(rng, N, t) * rand_fraction(rng) for t in range(degree + 1)),
                MultiPoly.zero(N)) for _ in range(d)]


def rand_point(rng, N, span=5):
    while True:
        pt = tuple(rand_fraction(rng, span) for _ in range(N))
        if any(pt):
            return pt


def homogeneous_component(p, deg):
    """The terms of p of total degree deg."""
    return MultiPoly(p.nvars, {e: c for e, c in p.terms.items() if sum(e) == deg})


def scalar_zeros(rows, cols):
    """The rows x cols ScalarMatrix of zeros."""
    return ScalarMatrix([[Fraction(0)] * cols for _ in range(rows)])


def rand_pencil(rng, N, planted=None, definite=False):
    """Random 2x1 order-2 operator: two quadrics in N variables.

    ``definite`` makes the first quadric diagonally dominant, so the symbol
    has no real zero; ``planted`` is a nonzero integer point at which both
    quadrics are made to vanish, through the coefficient of xi_j^2 with
    planted[j] != 0.
    """
    alphas = monomials_of_degree(N, 2)
    terms = {a: [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))] for _ in range(2)]
             for a in alphas}
    if definite:
        for a in alphas:
            terms[a][0][0] = Fraction(rng.randint(3, 5) if max(a) == 2 else rng.choice((-1, 1)))
    if planted is not None:
        j = next(i for i, c in enumerate(planted) if c)
        pure = tuple(2 if i == j else 0 for i in range(N))
        for row in range(2):
            value = sum(terms[a][row][0] * MultiPoly.monomial(N, a).evaluate(planted)
                        for a in alphas)
            terms[pure][row][0] -= value / planted[j] ** 2
    return DiffOp("pencil", N, 1, 2, 2, terms)


def catalog_pair_grid():
    """Every korn pair of catalog operators and full gradients whose N, d
    and order agree."""
    ops = [catalog(n, N) for n, N in [
        ("gradient", 2), ("gradient", 3), ("divergence", 2), ("divergence", 3),
        ("curl", 2), ("curl", 3), ("sym_gradient", 2), ("sym_gradient", 3),
        ("laplacian", 2), ("cauchy_riemann", 2),
    ]] + [grad_power(1, 2, 2), grad_power(1, 3, 3)]
    pairs = []
    for calA in ops:
        for A in ops:
            if (calA.N, calA.d, calA.k) == (A.N, A.d, A.k):
                pairs.append(OperatorPair(calA, A, "korn"))
    return pairs


def pair_at_s_4():
    """The first korn pair of a random 4x2 and a 1x2 operator of order 2 in
    N = 3, drawn from random.Random(0), whose kernel inclusion holds: its
    factorization needs s = 4, over a 7-element Groebner basis."""
    rng = random.Random(0)
    while True:
        pair = OperatorPair(rand_op(rng, N=3, d=2, l=4, k=2), rand_op(rng, N=3, d=2, l=1, k=2))
        try:
            if kernel_inclusion(pair).holds:
                return pair
        except HypothesesNotMet:
            pass


def tf_sym_gradient(N):
    """Trace-free symmetric gradient: rows e_ii - div/N for i < N-1, then
    the off-diagonal e_ij = (d_i u_j + d_j u_i)/2 for i < j."""
    pairs = [(i, i) for i in range(N - 1)] + [
        (i, j) for i in range(N) for j in range(i + 1, N)]
    terms = {}
    for var in range(N):
        m = [[Fraction(0)] * N for _ in pairs]
        for r, (i, j) in enumerate(pairs):
            if i == j:
                m[r][var] = int(var == i) - Fraction(1, N)
            elif var in (i, j):
                m[r][j if var == i else i] = Fraction(1, 2)
        terms[tuple(int(v == var) for v in range(N))] = m
    return DiffOp("tf_sym_gradient", N, N, len(pairs), 1, terms)


def grid_hiding_pair():
    """(calA, A), both 1x2 of order 8 in N = 2, whose inclusion fails but
    whose one stacked 2-minor vanishes on the whole radius-3 grid.

    calA[xi] = (xi_1^8, xi_2^8) has complex constant rank 1. The minor
    xi_1^8 a_2 - xi_2^8 a_1 of the stacked symbol is f, the product of the
    16 linear forms b xi_1 - a xi_2 over the directions (a, b) of
    {-3..3}^2 minus the origin; f has degree 16, and each of its monomials
    is divisible by xi_1^8 or by xi_2^8, which gives a_1 and a_2.
    """
    directions = {(a // g, b // g) if (a, b) > (0, 0) else (-a // g, -b // g)
                  for a in range(-3, 4) for b in range(-3, 4)
                  if (g := math.gcd(a, b))}
    f = MultiPoly.const(2, 1)
    for a, b in directions:
        f = f * MultiPoly(2, {(1, 0): Fraction(b), (0, 1): Fraction(-a)})
    assert len(directions) == 16 and f.degree() == 16
    A_terms: dict = {}
    for (i, j), c in f.terms.items():
        if i >= 8:  # c xi_1^i xi_2^j = xi_1^8 * (c xi_1^(i-8) xi_2^j), into a_2
            A_terms.setdefault((i - 8, j), [[Fraction(0), Fraction(0)]])[0][1] += c
        else:  # j > 8: -xi_2^8 * (-c xi_1^i xi_2^(j-8)), into a_1
            A_terms.setdefault((i, j - 8), [[Fraction(0), Fraction(0)]])[0][0] -= c
    calA = DiffOp("xi_1^8, xi_2^8", 2, 2, 1, 8, {
        (8, 0): [[Fraction(1), Fraction(0)]], (0, 8): [[Fraction(0), Fraction(1)]]})
    return calA, DiffOp("grid-hiding", 2, 2, 1, 8, A_terms)


# ---------------------------------------------------------------------------
# reference implementations: the sampling and the ellipticity decision as
# they were before ellipticity was read off the rank profile and the
# sampling moved to integer arithmetic; the differential tests compare the
# library with them
# ---------------------------------------------------------------------------


def _minor_rank_at(minors_by_size, point) -> bool:
    """True iff all given minors vanish at the point."""
    return all(m.evaluate(point) == 0 for m in minors_by_size)


def reference_sphere_like_grid(N, radius):
    """The shell grid walked through all of itertools.product, one shell at
    a time."""
    for shell in range(1, radius + 1):
        for p in itertools.product(range(-shell, shell + 1), repeat=N):
            if max(abs(c) for c in p) == shell:
                yield p


def reference_random_points(seed, nvars, radius, count):
    """The first `count` nonzero points of the per-coordinate randint loop."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        p = tuple(rng.randint(-radius, radius) for _ in range(nvars))
        if any(p):
            points.append(p)
    return points


def reference_real_constant_rank(rho_minors, nvars, budget, seed):
    """(status, witness) of the Fraction sampling loop."""
    rng = random.Random(seed)
    count = 0
    for point in reference_sphere_like_grid(nvars, 3):
        frac_point = tuple(Fraction(c) for c in point)
        if _minor_rank_at(rho_minors, frac_point):
            return CERTIFIED_NO, frac_point
        count += 1
        if count >= budget:
            return UNCERTIFIED_YES, None
    while count < budget:
        p = tuple(rng.randint(-50, 50) for _ in range(nvars))
        if not any(p):
            continue
        frac_point = tuple(Fraction(c) for c in p)
        if _minor_rank_at(rho_minors, frac_point):
            return CERTIFIED_NO, frac_point
        count += 1
    return UNCERTIFIED_YES, None


def reference_is_elliptic(op, field, seed=0):
    """Ellipticity from the d-minors, with its own origin test and sampling."""
    sym = op.symbol()
    if op.l < op.d:
        if field == "C":
            return EllipticVerdict("C", False, CERTIFIED_NO)
        point = tuple(Fraction(1 if i == 0 else 0) for i in range(op.N))
        return EllipticVerdict("R", False, CERTIFIED_NO, witness=point)
    d_minors = [m for m in sym.minors(op.d) if not m.is_zero]
    elliptic_C = bool(d_minors) and zero_dim_origin(d_minors)
    if field == "C":
        return EllipticVerdict(
            "C", elliptic_C, CERTIFIED_YES if elliptic_C else CERTIFIED_NO
        )
    if elliptic_C:
        return EllipticVerdict("R", True, CERTIFIED_YES)
    if not d_minors:
        point = tuple(Fraction(c) for c in next(reference_sphere_like_grid(op.N, 1)))
        return EllipticVerdict("R", False, CERTIFIED_NO, witness=point)
    status, witness = reference_real_constant_rank(
        d_minors, op.N, REAL_SAMPLE_BUDGET, seed
    )
    if status == CERTIFIED_NO:
        return EllipticVerdict("R", False, CERTIFIED_NO, witness=witness)
    return EllipticVerdict("R", True, UNCERTIFIED_YES)


# ---------------------------------------------------------------------------
# reference implementations of the numerics: the float symbol converted on
# every call, the quotient norm from a full SVD plus np.linalg.pinv, and
# trig fields sampled with one tensordot and exp per frequency and use; the
# bit-identity tests compare the library with them
# ---------------------------------------------------------------------------


def reference_symbol_at_float(op, xi):
    """Numeric symbol sum_alpha A_alpha xi^alpha at a real xi."""
    out = np.zeros((op.l, op.d))
    for alpha, m in op.terms.items():
        mono = 1.0
        for x, e in zip(xi, alpha):
            if e:
                mono = mono * x ** e
        out += mono * np.array([[float(c) for c in row] for row in m])
    return out


def reference_symbol_quotient_norm(pair, xi):
    """max |A[xi] v| / |calA[xi] v| over v orthogonal to ker calA[xi]."""
    Sa = reference_symbol_at_float(pair.calA, xi)
    Sb = reference_symbol_at_float(pair.A, xi)
    if pair.calA.weights is not None:
        Sa = np.sqrt(np.array([float(w) for w in pair.calA.weights]))[:, None] * Sa
    if pair.A.weights is not None:
        Sb = np.sqrt(np.array([float(w) for w in pair.A.weights]))[:, None] * Sb
    u, s, vt = np.linalg.svd(Sa)
    tol = max(Sa.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if rank < Sa.shape[1]:
        null = vt[rank:].T
        leak = np.linalg.norm(Sb @ null, 2)
        scale = np.linalg.norm(Sb, 2) + 1.0
        if leak > 1e-10 * scale:
            return float("inf")
    pinv = np.linalg.pinv(Sa, rcond=1e-12)
    return float(np.linalg.norm(Sb @ pinv, 2))


def reference_trig_sample(u, n_grid):
    """Values of u on the n_grid^N grid."""
    X = grid_points(u.N, n_grid)
    vals = np.zeros((n_grid,) * u.N + (u.d,))
    for m, c in u.coeffs.items():
        phase = np.exp(np.tensordot(X, 2j * np.pi * np.array(m, dtype=float),
                                    axes=([-1], [0])))
        vals += np.real(c * phase[..., None])
    return vals


def reference_trig_apply(u, op):
    """op applied to u, frequency by frequency."""
    out = {}
    for m, c in u.coeffs.items():
        S = reference_symbol_at_float(op, np.array(m, dtype=float)).astype(complex)
        out[m] = (2j * np.pi) ** op.k * (S @ c)
    return TrigField(N=u.N, d=op.l, coeffs=out)


def reference_trig_derivative(u, n_grid, t):
    """Values of d/dx_t u on the n_grid^N grid."""
    X = grid_points(u.N, n_grid)
    dcore = np.zeros((n_grid,) * u.N + (u.d,))
    for m, c in u.coeffs.items():
        phase = np.exp(np.tensordot(
            X, 2j * np.pi * np.array(m, dtype=float), axes=([-1], [0])))
        dcore += np.real((2j * np.pi * m[t]) * c * phase[..., None])
    return dcore


# ---------------------------------------------------------------------------
# reference implementations of korn_constant_p2 and bb_ratio_experiment as
# they were before the numerics ran over stacks of points: one quotient norm
# per sample direction, and every phase computed again in every trial
# ---------------------------------------------------------------------------


def reference_golden_section(val_at, h, steps=40):
    """Golden-section search for the largest value of val_at on [-h, h], one
    point at a time: the midpoint of the last interval and the largest of its
    value and the last pair's."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -h, h
    fa_left = a + (1 - invphi) * (b - a)
    fa_right = a + invphi * (b - a)
    v_left, v_right = val_at(fa_left), val_at(fa_right)
    for _ in range(steps):
        if v_left < v_right:
            a = fa_left
            fa_left, v_left = fa_right, v_right
            fa_right = a + invphi * (b - a)
            v_right = val_at(fa_right)
        else:
            b = fa_right
            fa_right, v_right = fa_left, v_left
            fa_left = a + (1 - invphi) * (b - a)
            v_left = val_at(fa_left)
    theta = (a + b) / 2
    return theta, max(val_at(theta), v_left, v_right)


def reference_korn_constant_p2(pair, samples, refine_iters=80, seed=0):
    """Sup of the quotient norm over sampled unit xi, one xi at a time, then
    golden-section refinement along random tangents. Also returns every
    sampled xi, in order, and one (points, improved) entry per refinement
    that ran: the xi at which it evaluated the norm, in order, and whether
    it raised the supremum. The pair's kernel inclusion must hold and the
    supremum must stay bounded."""
    points = []

    def quotient_norm(xi):
        points.append(xi.copy())
        return reference_symbol_quotient_norm(pair, xi)

    rng = np.random.default_rng(seed)
    N = pair.calA.N
    best_val = -math.inf
    best_xi = None
    for _ in range(samples):
        xi = rng.standard_normal(N)
        xi /= np.linalg.norm(xi)
        val = quotient_norm(xi)
        if val > best_val:
            best_val, best_xi = val, xi
    sampled, refinements = points, []
    h = 0.5
    for _ in range(refine_iters):
        t = rng.standard_normal(N)
        t -= t @ best_xi * best_xi
        norm_t = np.linalg.norm(t)
        if norm_t < 1e-14:
            continue
        t /= norm_t

        def val_at(theta):
            x = math.cos(theta) * best_xi + math.sin(theta) * t
            return quotient_norm(x)

        points = []  # quotient_norm appends to this refinement's list
        theta, cand = reference_golden_section(val_at, h)
        refinements.append((points, cand > best_val))
        if cand > best_val:
            best_val = cand
            best_xi = math.cos(theta) * best_xi + math.sin(theta) * t
            best_xi /= np.linalg.norm(best_xi)
        h = max(h * 0.8, 1e-4)
    return best_val, sampled, refinements


def _reference_phases(u, X):
    flat = X.reshape(-1, u.N)
    return [np.exp(np.dot(flat, 2j * np.pi * np.array(m, dtype=float)[:, None]))
            .reshape(X.shape[:-1]) for m in u.coeffs]


def reference_random_trig_field(rng, N, d, band, n_modes):
    """n_modes nonzero frequencies in [-band, band]^N, each drawn as a
    separate rng call, with standard complex normal coefficients."""
    coeffs = {}
    for _ in range(n_modes):
        while True:
            m = tuple(int(x) for x in rng.integers(-band, band + 1, size=N))
            if any(m):
                break
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        coeffs[m] = coeffs.get(m, 0) + c
    return TrigField(N=N, d=d, coeffs=coeffs)


def reference_bb_ratio_experiment(k, N, trials, n_grid, seed=0, band=4, n_modes=6):
    """The bb report, every phase of every trial computed afresh."""
    betas = monomials_of_degree(N, k)
    M_k = len(betas)
    rng = np.random.default_rng(seed)
    report = ExperimentReport(
        name="bb_ratio_experiment",
        parameters={
            "k": k, "N": N, "trials": trials, "n_grid": n_grid,
            "seed": seed, "band": band,
        },
        notes=[
            "component count uses the multi-index enumeration "
            "binom(N+k-1, N-1)",
            "no closed-form constant is available; stability across seeds "
            "is the acceptance bar",
        ],
    )
    X = grid_points(N, n_grid)
    bump = np.ones(X.shape[:-1])
    dbump = [np.ones(X.shape[:-1]) for _ in range(N)]
    for j in range(N):
        xj = X[..., j]
        sj = np.sin(np.pi * xj) ** 2
        for t in range(N):
            if t == j:
                dbump[t] = dbump[t] * (2 * np.pi * np.sin(np.pi * xj) * np.cos(np.pi * xj))
            else:
                dbump[t] = dbump[t] * sj
        bump *= sj
    max_residual = 0.0
    ratios = []
    for _ in range(trials):
        v = reference_random_trig_field(rng, N, M_k, band, n_modes)
        proj = {}
        for m, c in v.coeffs.items():
            sigma = np.array([math.prod(float(x) ** e for x, e in zip(m, b) if e)
                              for b in betas], dtype=float)
            nrm2 = float(sigma @ sigma)
            if nrm2 > 0:
                c = c - sigma * (sigma @ c) / nrm2
            proj[m] = c
            max_residual = max(max_residual, abs(sigma @ c) /
                               (np.linalg.norm(c) * math.sqrt(nrm2) + 1e-300))
        v = TrigField(N=N, d=M_k, coeffs=proj)
        vf = GridField(domain="cube", n=n_grid,
                       values=v.values_from(_reference_phases(v, X), n_grid))
        phi_t = reference_random_trig_field(rng, N, M_k, 2, 3)
        phi_phases = _reference_phases(phi_t, X)
        phi_core = phi_t.values_from(phi_phases, n_grid)
        phi = bump[..., None] * phi_core
        if np.max(np.abs(phi)) == 0.0:
            ratios.append(0.0)
            continue
        dphi = np.zeros(X.shape[:-1] + (M_k, N))
        for t in range(N):
            dcore = phi_t.derivative(t).values_from(phi_phases, n_grid)
            dphi[..., t] = dbump[t][..., None] * phi_core + bump[..., None] * dcore
        integral = abs(float(np.mean(np.sum(vf.values * phi, axis=-1))))
        v_l1 = lp_norm(vf, 1)
        dphi_lN = lp_norm(GridField(domain="cube", n=n_grid,
                                    values=dphi.reshape(X.shape[:-1] + (M_k * N,))), N)
        denom = v_l1 * dphi_lN
        ratios.append(integral / denom if denom > 0 else 0.0)
    report.trials = [{"ratio": r} for r in ratios]
    report.summary = {
        "max_ratio": max(ratios),
        "mean_ratio": float(np.mean(ratios)),
        "max_constraint_residual": max_residual,
    }
    return report


def reference_sobolev_ratio_experiment(pair, p, trials, n_grid, seed=0, s_max=DEFAULT_S_MAX):
    """The sobolev report, every phase of every trial computed afresh. The
    pair's kernel inclusion must hold and its quotient be well conditioned."""
    N = pair.calA.N
    p_star = N * p / (N - p)
    cert = construct_L(pair, s_max, verdict=kernel_inclusion(pair))
    qspec = quotient_spec(pair, cert.s)
    band = max(1, n_grid // 8)

    def weights(op):
        return None if op.weights is None else np.array([float(w) for w in op.weights])

    def run_at(ng):
        X = grid_points(N, ng)
        basis = numerics._quotient_image_basis(pair.A, qspec, X)
        u_svd, sv, _ = np.linalg.svd(basis.reshape(basis.shape[0], -1).T, full_matrices=False)
        rank = int(np.sum(sv > sv[0] * 1e-13)) if sv.size else 0
        Q = u_svd[:, :rank]
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(trials):
            u = reference_random_trig_field(rng, N, pair.calA.d, band, 5)
            Au = u.apply(pair.A).values_from(_reference_phases(u, X), ng)
            cAu = u.apply(pair.calA).values_from(_reference_phases(u, X), ng)
            resid = Au.reshape(-1) - Q @ (Q.T @ Au.reshape(-1))
            num = GridField("cube", ng, resid.reshape(Au.shape), weights(pair.A))
            den = lp_norm(GridField("cube", ng, cAu, weights(pair.calA)), p)
            out.append(lp_norm(num, p_star) / den if den > 0 else 0.0)
        return out

    ratios, ratios_fine = run_at(n_grid), run_at(2 * n_grid)
    m0, m1 = max(ratios), max(ratios_fine)
    stable = m0 > 0 and abs(m1 - m0) <= 0.10 * max(m0, m1)
    return ExperimentReport(
        name="sobolev_ratio_experiment",
        parameters={"p": p, "p_star": p_star, "trials": trials,
                    "n_grid": n_grid, "seed": seed, "s": cert.s},
        trials=[{"ratio": r} for r in ratios],
        summary={"max_ratio": m0, "max_ratio_refined": m1,
                 "quotient_dimension": qspec.dimension},
        status="BOUNDED" if stable else "UNSTABLE",
        notes=["no closed-form constant is available in this regime"],
    )


def reference_counterexample_blowup(pair, witness, modes, n_grid, seed=0):
    """The blow-up report, the grid and the wave exp(2 pi i n xi . x) of each
    mode computed twice: once for A u_n and once for u_n."""
    modes = tuple(sorted(modes))
    A, N = pair.A, pair.calA.N
    xi = np.array([complex(float(c), 0.0) for c in witness.xi])
    v = np.array([complex(float(c), 0.0) for c in witness.v])
    w = A.symbol().evaluate(list(witness.xi)).apply(list(witness.v))
    weights = None if A.weights is None else np.array([float(c) for c in A.weights])
    lhs_norms, fields = [], []
    for n in modes:
        if all(c == 0 for c in w):
            lhs = np.zeros((n_grid,) * N + (A.l,))
        else:
            wv = np.array([complex(float(c), 0.0) for c in w]) * (2j * np.pi * n) ** A.k
            phase = np.tensordot(grid_points(N, n_grid), 2j * np.pi * n * xi, axes=([-1], [0]))
            lhs = np.real(wv * np.exp(phase)[..., None])
        lhs_norms.append(lp_norm(GridField("torus", n_grid, lhs, weights), 2))
        phase = np.tensordot(grid_points(N, n_grid), 2j * np.pi * n * xi, axes=([-1], [0]))
        fields.append(np.real(v * np.exp(phase)[..., None]).reshape(-1))
    F = np.stack(fields)
    gram = F @ F.T
    slope = None
    if len(modes) >= 2:
        slope = float(np.polyfit(np.log(np.array(modes, dtype=float)),
                                 np.log(np.array(lhs_norms)), 1)[0])
    return ExperimentReport(
        name="counterexample_blowup",
        parameters={"modes": list(modes), "n_grid": n_grid, "seed": seed,
                    "witness_real": True},
        trials=[{"n": n, "lhs_l2": nrm, "rhs_l2": 0.0, "ratio": INFINITE_RATIO}
                for n, nrm in zip(modes, lhs_norms)],
        summary={
            "lhs_l2": lhs_norms,
            "loglog_slope": slope,
            "expected_slope": A.k,
            "gram_rank": int(np.linalg.matrix_rank(
                gram, tol=1e-8 * np.trace(gram) / len(modes))),
            "modes": list(modes),
            "rhs_status": INFINITE_RATIO,
        },
    )


# ---------------------------------------------------------------------------
# reference implementations of the operator constructions as they were
# before every derived operator was built from its symbol: coefficient
# matrices multiplied, accumulated and merged one multi-index at a time,
# and a symbol summed up one monomial at a time; the differential tests
# compare the library with them
# ---------------------------------------------------------------------------


def reference_symbol(op):
    rows = [[MultiPoly.zero(op.N) for _ in range(op.d)] for _ in range(op.l)]
    for alpha, m in op.terms.items():
        mono = MultiPoly.monomial(op.N, alpha)
        for i in range(op.l):
            for j in range(op.d):
                if m[i][j] != 0:
                    rows[i][j] = rows[i][j] + mono * m[i][j]
    return PolyMatrix(rows)


def reference_compose(L, A):
    terms = {}
    for alpha, La in L.terms.items():
        for beta, Ab in A.terms.items():
            gamma = tuple(a + b for a, b in zip(alpha, beta))
            prod = [
                [sum(La[i][t] * Ab[t][j] for t in range(L.d) if La[i][t]) for j in range(A.d)]
                for i in range(L.l)
            ]
            if gamma in terms:
                terms[gamma] = [
                    [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(terms[gamma], prod)
                ]
            else:
                terms[gamma] = prod
    return DiffOp(f"({L.name}.{A.name})", L.N, A.d, L.l, L.k + A.k, terms)


def reference_grad_power(s, e, N):
    tuples = ordered_tuples(N, s)
    l = len(tuples) * e
    terms = {}
    for t_idx, b in enumerate(tuples):
        m = terms.setdefault(multi_index(b, N), [[Fraction(0)] * e for _ in range(l)])
        for i in range(e):
            m[t_idx * e + i][i] += 1
    return DiffOp(f"D^{s}", N, e, l, s, terms)


def reference_stack(A1, A2):
    terms = {}
    zero_row = [Fraction(0)] * A1.d
    for alpha in set(A1.terms) | set(A2.terms):
        top = A1.terms.get(alpha, tuple(tuple(zero_row) for _ in range(A1.l)))
        bot = A2.terms.get(alpha, tuple(tuple(zero_row) for _ in range(A2.l)))
        terms[alpha] = [list(r) for r in top] + [list(r) for r in bot]
    weights = None
    if A1.weights is not None or A2.weights is not None:
        weights = (A1.weights or (Fraction(1),) * A1.l) + (A2.weights or (Fraction(1),) * A2.l)
    return DiffOp(f"[{A1.name};{A2.name}]", A1.N, A1.d, A1.l + A2.l, A1.k, terms, weights)


def reference_annihilator_op(B, name, order):
    """The operator of the matrix polynomial B, one zero matrix per
    multi-index."""
    l = B.rows
    terms = {}
    for i in range(l):
        for j in range(l):
            for exp, c in B.entries[i][j].terms.items():
                m = terms.setdefault(exp, [[Fraction(0)] * l for _ in range(l)])
                m[i][j] += c
    return DiffOp(name, B.nvars, l, l, order, terms)


def entry_term_orders(sym):
    """The order of the terms in every entry of a PolyMatrix."""
    return [[list(p.terms) for p in row] for row in sym.entries]


def assert_same_operator(op, ref, same_order=True):
    """Equal operators, serializations and symbols; the symbol entries list
    their terms in the reference construction's order, and so do the
    operators themselves when `same_order`."""
    assert op == ref
    assert serialize_op(op) == serialize_op(ref)
    assert op.symbol() == reference_symbol(ref)
    assert entry_term_orders(op.symbol()) == entry_term_orders(reference_symbol(op))
    if same_order:
        assert list(op.terms) == list(ref.terms)


# ---------------------------------------------------------------------------
# reference implementation of the catalog as it was before every entry was
# built from its symbol: unit multi-indices, a Levi-Civita table and
# accumulated half-entries; the differential tests compare the library with
# it
# ---------------------------------------------------------------------------


def _reference_unit_alpha(N, i, order=1):
    a = [0] * N
    a[i] = order
    return tuple(a)


def reference_catalog(name, N, k=None):
    if N < 1:
        raise OperatorFormatError(f"N must be at least 1, got N = {N}")
    if name == "gradient":
        terms = {}
        for i in range(N):
            m = [[Fraction(0)] for _ in range(N)]
            m[i][0] = Fraction(1)
            terms[_reference_unit_alpha(N, i)] = m
        return DiffOp("gradient", N, 1, N, 1, terms)
    if name == "divergence":
        terms = {}
        for i in range(N):
            row = [Fraction(0)] * N
            row[i] = Fraction(1)
            terms[_reference_unit_alpha(N, i)] = [row]
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
                terms[_reference_unit_alpha(3, j)] = m
            return DiffOp("curl", 3, 3, 3, 1, terms)
        if N == 2:
            return DiffOp("curl", 2, 2, 1, 1, {(1, 0): [[Fraction(0), Fraction(1)]],
                                               (0, 1): [[Fraction(-1), Fraction(0)]]})
        raise OperatorFormatError("curl requires N = 3 (or the scalar curl, N = 2)")
    if name == "sym_gradient":
        if N not in (2, 3):
            raise OperatorFormatError("sym_gradient catalog entry supports N in {2, 3}")
        pairs = [(i, i) for i in range(N)] + [
            (i, j) for i in range(N) for j in range(i + 1, N)]
        l = len(pairs)
        terms = {}
        for r, (i, j) in enumerate(pairs):
            for var, comp in ((i, j), (j, i)):
                m = terms.setdefault(_reference_unit_alpha(N, var),
                                     [[Fraction(0)] * N for _ in range(l)])
                m[r][comp] += Fraction(1, 2)
        weights = tuple(Fraction(1) if i == j else Fraction(2) for (i, j) in pairs)
        return DiffOp("sym_gradient", N, N, l, 1, terms, weights)
    if name == "laplacian":
        terms = {_reference_unit_alpha(N, i, 2): [[Fraction(1)]] for i in range(N)}
        return DiffOp("laplacian", N, 1, 1, 2, terms)
    if name == "bilaplacian":
        lap = reference_catalog("laplacian", N).symbol()
        return from_symbol("bilaplacian", lap @ lap, 4)
    if name == "cauchy_riemann":
        if N != 2:
            raise OperatorFormatError("cauchy_riemann requires N = 2")
        return DiffOp("cauchy_riemann", 2, 2, 2, 1, {
            (1, 0): [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
            (0, 1): [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]})
    if name == "d2_laplacian":
        sym = grad_power(2, 1, N).symbol() @ reference_catalog("laplacian", N).symbol()
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


# ---------------------------------------------------------------------------
# reference implementations of the certificates as they were built before
# each factorization target was expressed once per monomial with one final
# check of D^s A = L calA, before the lift lost its s = 0 branch and before
# the annihilator moved to Horner's rule; the differential tests compare
# the library with them
# ---------------------------------------------------------------------------


def reference_construct_L(pair, s_max=6):
    """Smallest s with D^s A = L calA: one `express` per ordered tuple b and
    row i, each representation cut to its homogeneous part and re-checked.
    The pair's kernel inclusion must hold."""
    calA, A = pair.calA, pair.A
    N = calA.N
    sym_calA = calA.symbol()
    gens = []
    gen_rows = []
    for i in range(calA.l):
        row = tuple(sym_calA.entries[i])
        if not all(p.is_zero for p in row):
            gens.append(row)
            gen_rows.append(i)
    basis = GroebnerBasis(gens, TermOrder("grevlex"))
    sym_A = A.symbol()
    for s in range(0, s_max + 1):
        coeff_rows = _reference_factor_at_s(sym_A, basis, s, N)
        if coeff_rows is None:
            continue
        L = _reference_assemble_L(pair, coeff_rows, gen_rows, s)
        lhs = reference_compose(reference_grad_power(s, A.l, N), A).symbol()
        assert lhs == L.symbol() @ sym_calA
        return FactorizationCertificate(s=s, L=L, verified=True)
    raise SMaxExceeded(s_max)


def _reference_factor_at_s(sym_A, basis, s, N):
    gens = basis.input_gens
    k_gen = next(
        p.homogeneous_degree() for g in gens for p in g if not p.is_zero
    )
    coeff_rows = []
    for b in ordered_tuples(N, s):
        exp = [0] * N
        for j in b:
            exp[j] += 1
        mono = MultiPoly.monomial(N, tuple(exp))
        for i in range(sym_A.rows):
            target = tuple(mono * p for p in sym_A.entries[i])
            coeffs = basis.express(target)
            if coeffs is None:
                return None
            target_deg = None
            for p in target:
                hd = p.homogeneous_degree()
                if hd is not None and hd >= 0:
                    target_deg = hd
                    break
            if target_deg is None:
                homog = [MultiPoly.zero(N) for _ in coeffs]
            else:
                homog = [homogeneous_component(c, target_deg - k_gen) for c in coeffs]
                acc = tuple(MultiPoly.zero(N) for _ in target)
                for c, g in zip(homog, gens):
                    acc = tuple(a + c * p for a, p in zip(acc, g))
                if acc != target:
                    return None
            coeff_rows.append(homog)
    return coeff_rows


def _reference_assemble_L(pair, coeff_rows, gen_rows, s):
    calA = pair.calA
    N, l_calA = calA.N, calA.l
    n_rows = len(coeff_rows)
    terms = {}
    for r, homog in enumerate(coeff_rows):
        for j_local, c in enumerate(homog):
            j = gen_rows[j_local]
            for exp, coef in c.terms.items():
                m = terms.setdefault(
                    exp, [[Fraction(0)] * l_calA for _ in range(n_rows)]
                )
                m[r][j] += coef
    order_L = s if pair.mode == "korn" else s - 1
    return DiffOp(f"L[{pair.calA.name}->{pair.A.name},s={s}]",
                  N, l_calA, n_rows, order_L, terms)


def _constant_case_lift(op, c):
    """Solve c = sum_alpha A_alpha v_alpha; return {alpha: v_alpha} or None."""
    alphas = sorted(op.terms)
    cols = []
    for alpha in alphas:
        m = op.terms[alpha]
        for j in range(op.d):
            cols.append([m[i][j] for i in range(op.l)])
    sol = ScalarMatrix.from_columns(cols).solve(list(c))
    if sol is None:
        return None
    return {alpha: tuple(sol[a * op.d + j] for j in range(op.d))
            for a, alpha in enumerate(alphas)}


def reference_polynomial_lift(A, pi):
    """Lift of pi through A, the degree-0 component through A itself."""
    N = A.N
    deg = max((p.degree() for p in pi), default=-1)
    Pi = [MultiPoly.zero(N) for _ in range(A.d)]
    for s in range(0, max(deg, -1) + 1):
        comp = [homogeneous_component(p, s) for p in pi]
        if all(p.is_zero for p in comp):
            continue
        T = reference_compose(reference_grad_power(s, A.l, N), A) if s > 0 else A
        if s == 0:
            c = [p.terms.get((0,) * N, Fraction(0)) for p in comp]
        else:
            c = []
            for b in ordered_tuples(N, s):
                alpha = [0] * N
                for j in b:
                    alpha[j] += 1
                for i in range(A.l):
                    dp = comp[i].derivative_multi(alpha)
                    c.append(dp.terms.get((0,) * N, Fraction(0)))
        valphas = _constant_case_lift(T, c)
        if valphas is None:
            raise NotInImage(
                f"homogeneous component of degree {s} is not in the image"
            )
        for alpha, v in valphas.items():
            scale = Fraction(1, math.prod(math.factorial(a) for a in alpha))
            mono = MultiPoly.monomial(N, alpha, scale)
            Pi = [q + mono * v_j for q, v_j in zip(Pi, v)]
    assert list(A.apply_to_poly(Pi)) == list(pi)
    return PolynomialLift(pi=tuple(pi), Pi=tuple(Pi))


def matrix_power(M, e):
    """M^e for a square PolyMatrix, one product at a time."""
    out = PolyMatrix.identity(M.rows, M.nvars)
    for _ in range(e):
        out = out @ M
    return out


def scale_by_poly(M, q):
    """Every entry of a PolyMatrix times the polynomial q."""
    return PolyMatrix([[p * q for p in row] for row in M.entries])


def add_matrices(P, Q):
    """The entrywise sum of two PolyMatrix of one shape."""
    return PolyMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(P.entries, Q.entries)])


def reference_annihilator(op, seed=0):
    """Cayley-Hamilton annihilator with each power M^j computed afresh."""
    profile = rank_profile(op, seed=seed)
    if profile.constant_rank_R == CERTIFIED_NO:
        raise DegenerateCharpoly("real constant rank refuted")
    sym = op.symbol()
    rho = profile.generic_rank
    l = op.l
    M = sym @ sym.transpose()
    cs_full = M.charpoly()
    if any(not cs_full[j].is_zero for j in range(l - rho)):
        raise DegenerateCharpoly("charpoly has a nonzero coefficient below the rank gap")
    shifted = cs_full[l - rho:]
    if not shifted or shifted[0].is_zero:
        raise DegenerateCharpoly("constant coefficient of the rank factor vanishes")
    B = matrix_power(M, rho)
    for j in range(1, rho):
        B = add_matrices(B, scale_by_poly(matrix_power(M, j), shifted[j]))
    B = add_matrices(B, scale_by_poly(PolyMatrix.identity(l, op.N), shifted[0]))
    sign = (-1) ** rho
    B = B.scale(Fraction(sign))
    assert (B @ sym).is_zero
    order = 2 * op.k * rho
    b_op = None if B.is_zero else reference_annihilator_op(B, f"ann[{op.name}]", order)
    return Annihilator(op=b_op, order=order, charpoly_coeffs=tuple(shifted),
                       m=l, sign=sign)


# ---------------------------------------------------------------------------
# reference implementations of the exact systems as they were before each
# was solved once: monomials listed by recursion, one elimination per
# right-hand side in the solve, the projector and C_beta, and the
# intersection reducing its inputs again; the differential tests compare the
# library with them
# ---------------------------------------------------------------------------


def count_eliminations(monkeypatch):
    """Patch exact.forward_eliminate to record the column count of each
    call, and return the list it appends to."""
    calls = []
    forward_eliminate = exact.forward_eliminate

    def counting(rows, ncols):
        calls.append(ncols)
        return forward_eliminate(rows, ncols)

    monkeypatch.setattr(exact, "forward_eliminate", counting)
    return calls


def reference_monomials_of_degree(nvars, deg):
    """Exponent vectors of total degree deg, first entry slowest, by
    recursion on the variables."""
    if nvars == 0:
        return [()] if deg == 0 else []
    out = []
    for head in range(deg, -1, -1):
        for tail in reference_monomials_of_degree(nvars - 1, deg - head):
            out.append((head,) + tail)
    return out


def reference_solve(m, rhs):
    """One elimination of [m | rhs]: the solution with free variables zero,
    or None if infeasible."""
    n = m.cols
    rows = [{j: c for j, c in enumerate(row) if c} for row in m.entries]
    for row, b in zip(rows, rhs):
        if b:
            row[n] = Fraction(b)
    rref = back_substitute(forward_eliminate(rows, n + 1))
    if n in rref:
        return None
    x = [Fraction(0)] * n
    for pc, row in rref.items():
        if n in row:
            x[pc] = row[n]
    return tuple(x)


def reference_subspace_intersect(U, V, dim):
    """span(U) ∩ span(V), reducing both inputs first."""
    U = reduce_basis(U, dim)
    V = reduce_basis(V, dim)
    if not U or not V:
        return []
    M = ScalarMatrix.from_columns([list(u) for u in U] + [[-c for c in v] for v in V])
    return [tuple(sum(ai * u[i] for ai, u in zip(sol, U)) for i in range(dim))
            for sol in M.kernel_basis()]


def reference_projector_onto_complement(B, dim):
    """Id - B (B^T B)^{-1} B^T, solving the Gram system column by column."""
    B = reduce_basis(B, dim)
    if not B:
        return ScalarMatrix.identity(dim)
    Bm = ScalarMatrix.from_columns(B)
    G = Bm.transpose() @ Bm
    Bt = Bm.transpose()
    Xcols = [reference_solve(G, [Bt.entries[i][j] for i in range(len(B))])
             for j in range(dim)]
    return ScalarMatrix.identity(dim) - Bm @ ScalarMatrix.from_columns(Xcols)


def reference_construct_Cbeta(ann, W_basis, l):
    """C_beta with sum_beta C_beta B_beta = P_{W^perp}, one system per row
    of the identity."""
    P = reference_projector_onto_complement(list(W_basis), l)
    if ann.op is None:
        if P.is_zero:
            return {}
        raise ProjectionInfeasible(
            "zero annihilator with a nontrivial orthogonal complement", data={"P": P})
    betas = sorted(ann.op.terms)
    m = ann.m
    sys_mat = ScalarMatrix.from_columns(
        [[ann.op.terms[beta][t][j] for j in range(l)] for beta in betas for t in range(m)])
    rows_of_C = []
    for i in range(l):
        sol = reference_solve(sys_mat, list(P.entries[i]))
        if sol is None:
            raise ProjectionInfeasible("projection identity infeasible",
                                       data={"row": i, "P": P})
        rows_of_C.append(sol)
    C_beta = {
        beta: ScalarMatrix([[rows_of_C[i][b * m + t] for t in range(m)] for i in range(l)])
        for b, beta in enumerate(betas)
    }
    acc = scalar_zeros(l, l)
    for beta, C in C_beta.items():
        acc = acc + C @ ScalarMatrix(ann.op.terms[beta])
    assert acc == P
    return C_beta


# ---------------------------------------------------------------------------
# reference implementation of the Groebner engine as it was before it ran on
# term maps: module elements are tuples of MultiPoly rebuilt on every
# division step, and representations are collected from the quotients.
# Representations are not unique, so equal representations pin the
# operation sequence; the differential tests compare the library with it
# ---------------------------------------------------------------------------


def _reference_leading_term(g, order):
    best = None
    for pos, p in enumerate(g):
        for exp in p.terms:
            t = (pos, exp)
            if best is None or order.module_key(t) > order.module_key(best):
                best = t
    if best is None:
        return None, None
    return best, g[best[0]].terms[best[1]]


def _reference_mono_mul(g, exp, c):
    m = MultiPoly.monomial(g[0].nvars, exp, c)
    return tuple(p * m for p in g)


def _reference_sub(g, h):
    return tuple(a - b for a, b in zip(g, h))


def _reference_is_zero(g):
    return all(p.is_zero for p in g)


class ReferenceGroebnerBasis:
    """Buchberger with a FIFO pair queue, first-divisor division, an
    autoreduce loop, normalised leading coefficients and a final sort by
    leading term; `generators`, `reps` and `express` as in the library."""

    def __init__(self, gens, order):
        gens = [tuple(g) for g in gens]
        self.rank = len(gens[0])
        self.nvars = gens[0][0].nvars
        self.order = order
        self.input_gens = list(gens)
        self._buchberger()
        self._autoreduce()

    def _divide(self, f, basis):
        order = self.order
        leads = [_reference_leading_term(g, order) for g in basis]
        zero = MultiPoly.zero(self.nvars)
        quots = [zero] * len(basis)
        rem = (zero,) * self.rank
        work = f
        while not _reference_is_zero(work):
            (pos, exp), lc = _reference_leading_term(work, order)
            hit = next(
                (i for i, ((gpos, gexp), _) in enumerate(leads)
                 if gpos == pos and all(x <= y for x, y in zip(gexp, exp))),
                None,
            )
            if hit is None:
                mono = MultiPoly.monomial(self.nvars, exp, lc)
                rem = tuple(r + mono if j == pos else r for j, r in enumerate(rem))
                work = tuple(w - mono if j == pos else w for j, w in enumerate(work))
                continue
            (_, gexp), gc = leads[hit]
            qexp = tuple(a - b for a, b in zip(exp, gexp))
            qc = lc / gc
            quots[hit] = quots[hit] + MultiPoly.monomial(self.nvars, qexp, qc)
            work = _reference_sub(work, _reference_mono_mul(basis[hit], qexp, qc))
        return rem, quots

    def _reduce_full(self, f, rep, basis, reps):
        rem, quots = self._divide(f, basis)
        for q, qrep in zip(quots, reps):
            if not q.is_zero:
                rep = [r - q * gr for r, gr in zip(rep, qrep)]
        return rem, list(rep)

    def _buchberger(self):
        n_in = len(self.input_gens)
        basis, reps = [], []
        for i, g in enumerate(self.input_gens):
            rep = [MultiPoly.const(self.nvars, 1) if j == i else MultiPoly.zero(self.nvars)
                   for j in range(n_in)]
            rem, rrep = self._reduce_full(g, rep, basis, reps)
            if not _reference_is_zero(rem):
                basis.append(rem)
                reps.append(rrep)
        pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
        while pairs:
            i, j = pairs.pop(0)
            s, srep = self._spair(basis[i], reps[i], basis[j], reps[j])
            if s is None:
                continue
            rem, rrep = self._reduce_full(s, srep, basis, reps)
            if not _reference_is_zero(rem):
                pairs.extend((len(basis), t) for t in range(len(basis)))
                basis.append(rem)
                reps.append(rrep)
        self.generators = basis
        self.reps = reps

    def _spair(self, g, grep, h, hrep):
        (gp, ge), gc = _reference_leading_term(g, self.order)
        (hp, he), hc = _reference_leading_term(h, self.order)
        if gp != hp:
            return None, None
        lcm = tuple(max(a, b) for a, b in zip(ge, he))
        ug = tuple(a - b for a, b in zip(lcm, ge))
        uh = tuple(a - b for a, b in zip(lcm, he))
        s = _reference_sub(_reference_mono_mul(g, ug, Fraction(1) / gc),
                           _reference_mono_mul(h, uh, Fraction(1) / hc))
        mg = MultiPoly.monomial(self.nvars, ug, Fraction(1) / gc)
        mh = MultiPoly.monomial(self.nvars, uh, Fraction(1) / hc)
        return s, [mg * a - mh * b for a, b in zip(grep, hrep)]

    def _autoreduce(self):
        changed = True
        while changed:
            changed = False
            for i in range(len(self.generators)):
                others = self.generators[:i] + self.generators[i + 1:]
                oreps = self.reps[:i] + self.reps[i + 1:]
                rem, rrep = self._reduce_full(self.generators[i], self.reps[i], others, oreps)
                if _reference_is_zero(rem):
                    del self.generators[i]
                    del self.reps[i]
                    changed = True
                    break
                if rem != self.generators[i]:
                    changed = True
                self.generators[i] = rem
                self.reps[i] = rrep
        for i, g in enumerate(self.generators):
            _, lc = _reference_leading_term(g, self.order)
            inv = Fraction(1) / lc
            self.generators[i] = tuple(p * inv for p in g)
            self.reps[i] = [p * inv for p in self.reps[i]]
        idx = sorted(
            range(len(self.generators)),
            key=lambda i: self.order.module_key(
                _reference_leading_term(self.generators[i], self.order)[0]),
        )
        self.generators = [self.generators[i] for i in idx]
        self.reps = [self.reps[i] for i in idx]

    def express(self, target):
        rem, quots = self._divide(tuple(target), self.generators)
        if not _reference_is_zero(rem):
            return None
        coeffs = [MultiPoly.zero(self.nvars) for _ in self.input_gens]
        for q, rep in zip(quots, self.reps):
            if not q.is_zero:
                coeffs = [c + q * r for c, r in zip(coeffs, rep)]
        return coeffs


# ---------------------------------------------------------------------------
# The exact kernels over Fraction, as they were before they computed on
# integer numerators over one denominator; the differential tests compare
# values and term order with them
# ---------------------------------------------------------------------------


def reference_mul(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return MultiPoly(p.nvars, terms)


def reference_matmul(P, Q):
    out = []
    for row in P.entries:
        out_row = []
        for col in zip(*Q.entries):
            acc = MultiPoly.zero(P.nvars)
            for a, b in zip(row, col):
                if a and b:
                    acc = acc + reference_mul(a, b)
            out_row.append(acc)
        out.append(out_row)
    return PolyMatrix(out)


def exact_div(p, divisor):
    """Exact quotient p / divisor, its terms in decreasing grlex order;
    raises ArithmeticError if the division is inexact. It runs in integers,
    by the primitive part of the divisor (Gauss's lemma)."""
    if p.nvars != divisor.nvars:
        raise ValueError(f"variable-count mismatch: {p.nvars} vs {divisor.nvars}")
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    (num, dn), (div, dd) = exact.integer_form(p.terms), exact.integer_form(divisor.terms)
    content = math.gcd(*div.values())
    q = exact._divide_exact(num, {e: c // content for e, c in div.items()})
    q = {e: c * dd for e, c in q.items()}
    return MultiPoly(p.nvars, exact.as_fractions(q, dn * content))


def reference_exact_div(p, divisor):
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dexp = max(divisor.terms, key=exact.grlex_key)
    dc = divisor.terms[dexp]
    rem, qterms = p, {}
    while not rem.is_zero:
        rexp = max(rem.terms, key=exact.grlex_key)
        qexp = tuple(a - b for a, b in zip(rexp, dexp))
        if any(e < 0 for e in qexp):
            raise ArithmeticError("inexact polynomial division")
        qc = rem.terms[rexp] / dc
        qterms[qexp] = qterms.get(qexp, 0) + qc
        rem = rem - reference_mul(MultiPoly.monomial(p.nvars, qexp, qc), divisor)
    return MultiPoly(p.nvars, qterms)


def reference_bareiss_det(m):
    """Bareiss over Fraction polynomials, in place."""
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
                num = reference_mul(m[k][k], m[i][j]) - reference_mul(m[i][k], m[k][j])
                m[i][j] = num if prev is None else reference_exact_div(num, prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def reference_minors(M, size):
    return [reference_bareiss_det([[M.entries[i][j] for j in csel] for i in rsel])
            for rsel in itertools.combinations(range(M.rows), size)
            for csel in itertools.combinations(range(M.cols), size)]


def reference_det(S):
    d = reference_bareiss_det([[MultiPoly.const(0, c) for c in r] for r in S.entries])
    return d.terms.get((), Fraction(0))


def _reference_subtract_multiple(row, f, pivot_row):
    for j, v in pivot_row.items():
        if j in row:
            x = row[j] - f * v
            if x:
                row[j] = x
            else:
                del row[j]
        else:
            row[j] = -(f * v)


def reference_forward_eliminate(rows, ncols):
    """Sparse echelon over Fraction, reducing the rows in place."""
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                inv = 1 / row[c]
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            _reference_subtract_multiple(row, row[c], p)
        if len(pivots) == ncols:
            break
    return pivots


def reference_back_substitute(pivots):
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            _reference_subtract_multiple(row, row[j], pivots[j])
    return pivots
