"""Desk-scale numerical verification on the torus and the unit cube.

Floating point is double precision throughout; every exactness claim (the
vanishing of the right-hand side along a plane-wave family, the per-mode
divergence constraint) is delegated to symbolic short-circuits computed
upstream, never to small floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exact import MultiPoly, monomials_of_degree, monomials_up_to_degree
from .operators import DiffOp, OperatorPair
from .analysis import (
    DEFAULT_S_MAX,
    Witness,
    construct_L,
    kernel_inclusion,
    quotient_spec,
)

INFINITE_RATIO = "INFINITE_RATIO"


class NyquistViolation(Exception):
    pass


class ParameterError(ValueError):
    """An experiment parameter is out of range (exit 4 on the command line)."""


# Most points of a grid an experiment samples on (blowup's 256^2, sobolev's
# refined 64^2 and bb's 32^2 fit with room); a larger grid raises
# GridBudgetExceeded (the command line exits 3) before anything is allocated.
GRID_MAX_POINTS = 1 << 20


class GridBudgetExceeded(Exception):
    """The grid would have more than GRID_MAX_POINTS points."""

    def __init__(self, N: int, n: int):
        super().__init__(
            f"a grid of {n}^{N} = {n ** N} points exceeds the budget of "
            f"{GRID_MAX_POINTS} points"
        )


# Most bytes of D phi, bb_ratio_experiment's largest array (a double per grid
# point, component and derivative); more raises FieldBudgetExceeded (exit 3).
BB_FIELD_MAX_BYTES = 1 << 28


class FieldBudgetExceeded(Exception):
    """D phi of a bb experiment would take more than BB_FIELD_MAX_BYTES."""


def _check_grid(N: int, n: int) -> None:
    if n ** N > GRID_MAX_POINTS:
        raise GridBudgetExceeded(N, n)


class UnboundedSuspected(Exception):
    """The running supremum of the symbol-quotient norm exceeded 1e6,
    indicating a real kernel-inclusion failure."""


class InclusionFails(Exception):
    pass


class IllConditionedQuotient(Exception):
    pass


@dataclass
class GridField:
    """Sampled R^d-valued field on a uniform grid over [0,1)^N or [0,1]^N."""

    domain: str  # "torus" or "cube"
    n: int
    values: np.ndarray  # shape (n,)*N + (d,)
    weights: Optional[np.ndarray] = None  # per-component quadratic weights

    def __post_init__(self):
        if self.domain not in ("torus", "cube"):
            raise ValueError("domain must be 'torus' or 'cube'")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("GridField values must be finite")

    @property
    def d(self) -> int:
        return self.values.shape[-1]


def grid_points(N: int, n: int) -> np.ndarray:
    """Midpoint-rule nodes: cell centers of an n^N grid on the unit cube."""
    axis = (np.arange(n) + 0.5) / n
    mesh = np.meshgrid(*([axis] * N), indexing="ij")
    return np.stack(mesh, axis=-1)  # shape (n,)*N + (N,)


def lp_norm(f: GridField, p: float) -> float:
    """Midpoint-rule L^p norm over the unit domain; exact for constants."""
    if p < 1:
        raise ValueError("p must be >= 1")
    v = f.values
    if f.weights is not None:
        mag = np.sqrt(np.sum(f.weights * v * v, axis=-1))
    else:
        mag = np.sqrt(np.sum(v * v, axis=-1))
    return float(np.mean(mag ** p) ** (1.0 / p))


def _weights_array(op: DiffOp) -> Optional[np.ndarray]:
    if op.weights is None:
        return None
    return np.array([float(w) for w in op.weights])


@functools.lru_cache(maxsize=16)
def float_symbol(op: DiffOp):
    """Points (S, N) -> numeric symbols (S, l, d), sum_alpha A_alpha xi^alpha
    at each real xi, with the coefficients converted to floats once and
    summed in ``op.terms`` order. ``np.float_power`` gives each power the bits
    of the scalar ``float ** int``; an array ``**`` does not."""
    terms = [([(t, e) for t, e in enumerate(alpha) if e],
              np.array([[float(c) for c in row] for row in m]))
             for alpha, m in op.terms.items()]

    def at(points: np.ndarray) -> np.ndarray:
        out = np.zeros((len(points), op.l, op.d))
        for powers, M in terms:
            mono = np.ones(len(points))
            for t, e in powers:
                mono = mono * np.float_power(points[:, t], e)
            out += mono[:, None, None] * M
        return out

    return at


# ---------------------------------------------------------------------------
# plane-wave families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneWaveFamily:
    """u_n(x) = Re[v exp(2 pi i n xi . x)] built from an exact real witness."""

    witness: Witness
    calA: DiffOp
    modes: tuple

    def __post_init__(self):
        xi, v = self.witness.xi, self.witness.v
        sym = self.calA.symbol().evaluate(list(xi))
        if any(c != 0 for c in sym.apply(list(v))):
            raise ValueError("witness does not lie in the symbol kernel")
        if not any(m > 0 for m in self.modes):
            raise ValueError("modes must be positive integers")


def _to_complex_vec(vec) -> np.ndarray:
    return np.array([complex(float(c), 0.0) for c in vec])


def _wave(fam: PlaneWaveFamily, n: int, X: np.ndarray) -> np.ndarray:
    """exp(2 pi i n xi . x) at the grid points X."""
    xi = _to_complex_vec(fam.witness.xi)
    return np.exp(np.tensordot(X, 2j * np.pi * n * xi, axes=([-1], [0])))


def _u_field(fam: PlaneWaveFamily, wave: np.ndarray) -> GridField:
    """u_n from its wave."""
    v = _to_complex_vec(fam.witness.v)
    return GridField(domain="torus", n=wave.shape[0], values=np.real(v * wave[..., None]))


def _op_field(op: DiffOp, w, n: int, wave: np.ndarray) -> GridField:
    """op applied to u_n, from w = op[xi] v and the wave of u_n; the zero
    field when w is exactly zero, and then the wave is only a shape."""
    if any(w):
        wv = _to_complex_vec(w) * (2j * np.pi * n) ** op.k
        values = np.real(wv * wave[..., None])
    else:
        values = np.zeros(wave.shape + (op.l,))
    return GridField(domain="torus", n=wave.shape[0], values=values, weights=_weights_array(op))


def _witness_image(op: DiffOp, fam: PlaneWaveFamily) -> list:
    """op[xi] v, exactly."""
    return op.symbol().evaluate(list(fam.witness.xi)).apply(list(fam.witness.v))


def planewave_field(fam: PlaneWaveFamily, n: int, n_grid: int) -> GridField:
    """Sample u_n on the torus grid."""
    return _u_field(fam, _wave(fam, n, grid_points(len(fam.witness.xi), n_grid)))


def apply_op_planewave(
    op: DiffOp, fam: PlaneWaveFamily, n: int, n_grid: int
) -> GridField:
    """Closed-form evaluation of op applied to u_n (no finite differences).

    If op[xi] v = 0 exactly the zero field is returned without any floating
    evaluation.
    """
    w = _witness_image(op, fam)
    wave = _wave(fam, n, grid_points(op.N, n_grid)) if any(w) else np.empty((n_grid,) * op.N)
    return _op_field(op, w, n, wave)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    trials: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    status: str = "OK"
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# p = 2 Korn constant on the torus
# ---------------------------------------------------------------------------


def _symbol_quotient_norm(pair: OperatorPair):
    """Points (S, N) -> max |A[xi] v| / |calA[xi] v| over v orthogonal to
    ker calA[xi], one value per point.

    Component weights are absorbed into the numeric symbols; the value is inf
    when the kernel of calA[xi] leaks through A[xi]. One stacked reduced SVD
    gives the ranks and the pseudo-inverses (numpy's ``pinv`` formula, rcond
    1e-12), and the largest singular value of A[xi] calA[xi]^+ is the norm;
    only a calA[xi] with a kernel takes a full SVD, for all of its null
    vectors. Every value has the bits of an evaluation at that point alone.
    """
    sym_a, sym_b = float_symbol(pair.calA), float_symbol(pair.A)
    wa, wb = _weights_array(pair.calA), _weights_array(pair.A)
    root_a = None if wa is None else np.sqrt(wa)[:, None]
    root_b = None if wb is None else np.sqrt(wb)[:, None]
    rank_tol = max(pair.calA.l, pair.calA.d) * np.finfo(float).eps

    def at(points: np.ndarray) -> np.ndarray:
        Sa, Sb = sym_a(points), sym_b(points)
        if root_a is not None:
            Sa = root_a * Sa
        if root_b is not None:
            Sb = root_b * Sb
        u, s, vt = np.linalg.svd(Sa, full_matrices=False)
        # singular values come largest first, so s[:, :1] is each maximum
        large = s > 1e-12 * s[:, :1]
        s_inv = np.divide(1, s, out=np.zeros_like(s), where=large)
        pinv = np.swapaxes(vt, 1, 2) @ (s_inv[:, :, None] * np.swapaxes(u, 1, 2))
        values = np.linalg.svd(Sb @ pinv, compute_uv=False)[:, 0]
        ranks = (s > rank_tol * s[:, :1]).sum(axis=1)
        for i in (ranks < Sa.shape[2]).nonzero()[0]:
            null = np.linalg.svd(Sa[i])[2][ranks[i]:].T
            leak = np.linalg.norm(Sb[i] @ null, 2)
            scale = np.linalg.norm(Sb[i], 2) + 1.0
            if leak > 1e-10 * scale:
                values[i] = np.inf
        return values

    return at


# Sample directions korn_constant_p2 evaluates in one stacked call, so that
# memory stays bounded for any number of samples; a round of refinements
# takes at most half as many, two points each.
KORN2_BLOCK = 1024

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_step(a, b, left, right, up):
    """One golden-section step on [a, b] with inner points left < right,
    elementwise: keep [left, b] where ``up`` (the value at right is the
    larger), else [a, right]. Returns the new (a, b, left, right) and the
    points the step asks for."""
    a, b = np.where(up, left, a), np.where(up, b, right)
    new = np.where(up, a + _INVPHI * (b - a), a + (1 - _INVPHI) * (b - a))
    return a, b, np.where(up, right, new), np.where(up, new, left), new


def _golden_sections(values_at, hs, steps: int):
    """Golden-section searches for the largest value on [-h, h], one per h,
    in lockstep: the inner pairs, ``steps`` >= 1 steps, then the midpoint of
    each last interval.

    ``values_at`` maps an array of thetas, one row per search, to their
    values in one stacked call. One call holds every inner pair, then one
    call per step holds each search's next point, and the midpoints ride
    with the last step. Every theta has the bits of the one-point loop.
    Returns each midpoint and the largest of its value and the last pair's.
    """
    b = np.array(hs, dtype=float)
    a = -b
    left, right = a + (1 - _INVPHI) * (b - a), a + _INVPHI * (b - a)
    v_left, v_right = values_at(np.stack([left, right], axis=1)).T
    for step in range(steps):
        up = v_left < v_right
        a, b, left, right, new = _golden_step(a, b, left, right, up)
        values = values_at(np.stack([new, (a + b) / 2], axis=1) if step == steps - 1
                           else new[:, None])
        v_left, v_right = np.where(up, v_right, values[:, 0]), np.where(up, values[:, 0], v_left)
    return (a + b) / 2, [max(mid, vl, vr) for mid, vl, vr in zip(values[:, 1], v_left, v_right)]


def korn_constant_p2(
    pair: OperatorPair,
    samples: int = 2000,
    refine_iters: int = 80,
    seed: int = 0,
) -> float:
    """Best p=2 torus constant: sup over real unit xi of the quotient norm.

    By Parseval on zero-mean fields the optimal constant is the supremum of
    the symbol-quotient operator norm over the unit sphere; the estimate is
    monotone nondecreasing in the number of samples.
    """
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got samples = {samples}")
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, got seed = {seed}")
    verdict = kernel_inclusion(pair)
    if not verdict.holds:
        raise InclusionFails("kernel inclusion fails; the constant is infinite")
    quotient_norm = _symbol_quotient_norm(pair)
    rng = np.random.default_rng(seed)
    N = pair.calA.N
    best_val = -math.inf
    best_xi = None
    for start in range(0, samples, KORN2_BLOCK):
        # the same stream as one draw of size N per sample; each row is
        # normalised on its own, as a norm along an axis sums in another order
        block = rng.standard_normal((min(KORN2_BLOCK, samples - start), N))
        for xi in block:
            xi /= np.linalg.norm(xi)
        for xi, val in zip(block, quotient_norm(block)):
            if val > 1e6:
                raise UnboundedSuspected("running supremum exceeded 1e6")
            if val > best_val:
                best_val, best_xi = val, xi
    # local golden-section refinement along tangent directions, in rounds: a
    # round runs the pending refinements side by side from the same best_xi,
    # and the first that improves on best_val ends it, the later ones running
    # again in the next round. Each refinement draws its own tangent, in order;
    # a skipped one (tangent along best_xi) keeps h.
    h, draws, done = 0.5, np.empty((0, N)), 0
    while done < refine_iters:
        count = min(KORN2_BLOCK // 2, refine_iters - done)
        draws = np.concatenate([draws, rng.standard_normal((count - len(draws), N))])
        runs = []  # (refinement, h, tangent)
        for i, t in enumerate(draws):
            t = t - t @ best_xi * best_xi
            norm_t = np.linalg.norm(t)
            if norm_t < 1e-14:
                continue
            runs.append((i, h, t / norm_t))
            h = max(h * 0.8, 1e-4)
        tangents = np.array([t for _, _, t in runs])

        def values_at(thetas):
            # math.cos and math.sin, as np.cos and np.sin may round otherwise
            cos = np.array([math.cos(theta) for theta in thetas.flat]).reshape(thetas.shape)
            sin = np.array([math.sin(theta) for theta in thetas.flat]).reshape(thetas.shape)
            points = cos[..., None] * best_xi + sin[..., None] * tangents[:, None]
            return quotient_norm(points.reshape(-1, N)).reshape(thetas.shape)

        hs = [h_run for _, h_run, _ in runs]
        thetas, cands = _golden_sections(values_at, hs, 40) if runs else ((), ())
        for (i, h_run, t), theta, cand in zip(runs, thetas, cands):
            if cand > best_val:
                best_val = cand
                best_xi = math.cos(theta) * best_xi + math.sin(theta) * t
                best_xi /= np.linalg.norm(best_xi)
                if best_val > 1e6:
                    raise UnboundedSuspected("running supremum exceeded 1e6")
                h, done, draws = max(h_run * 0.8, 1e-4), done + i + 1, draws[i + 1:]
                break
        else:
            done, draws = done + count, draws[count:]
    return float(best_val)


# ---------------------------------------------------------------------------
# counterexample blow-up
# ---------------------------------------------------------------------------


def counterexample_blowup(
    pair: OperatorPair,
    witness: Witness,
    modes: Sequence[int] = (1, 2, 4, 8),
    n_grid: int = 256,
    seed: int = 0,
) -> ExperimentReport:
    """Plane-wave family along a witness: the right-hand side is zero, since
    PlaneWaveFamily checks calA[xi] v = 0 exactly, while the left-hand norms
    grow like n^k."""
    modes = tuple(sorted(modes))
    if n_grid < 8 * max(modes):
        raise NyquistViolation(
            f"grid {n_grid} too coarse for mode {max(modes)} (need >= {8*max(modes)})"
        )
    _check_grid(pair.calA.N, n_grid)
    fam = PlaneWaveFamily(witness=witness, calA=pair.calA, modes=modes)
    report = ExperimentReport(
        name="counterexample_blowup",
        parameters={
            "modes": list(modes),
            "n_grid": n_grid,
            "seed": seed,
            "witness_real": True,
        },
    )
    # one grid, and one wave per mode for both A u_n and u_n
    X = grid_points(pair.calA.N, n_grid)
    w = _witness_image(pair.A, fam)
    lhs_norms, fields = [], []
    for n in modes:
        wave = _wave(fam, n, X)
        lhs_norms.append(lp_norm(_op_field(pair.A, w, n, wave), 2))
        fields.append(_u_field(fam, wave).values.reshape(-1))
    report.trials = [{"n": n, "lhs_l2": nrm, "rhs_l2": 0.0, "ratio": INFINITE_RATIO}
                     for n, nrm in zip(modes, lhs_norms)]
    # Gram rank: linear independence of the u_n on the grid
    F = np.stack(fields)
    gram = F @ F.T
    gram_rank = int(np.linalg.matrix_rank(gram, tol=1e-8 * np.trace(gram) / len(modes)))
    slope = None
    if len(modes) >= 2:
        logs_n = np.log(np.array(modes, dtype=float))
        logs_v = np.log(np.array(lhs_norms))
        slope = float(np.polyfit(logs_n, logs_v, 1)[0])
    report.summary = {
        "lhs_l2": lhs_norms,
        "loglog_slope": slope,
        "expected_slope": pair.A.k,
        "gram_rank": gram_rank,
        "modes": list(modes),
        "rhs_status": INFINITE_RATIO,
    }
    return report


# ---------------------------------------------------------------------------
# trigonometric fields
# ---------------------------------------------------------------------------


@dataclass
class TrigField:
    """u(x) = sum_m Re[c_m exp(2 pi i m . x)] with integer frequencies."""

    N: int
    d: int
    coeffs: dict  # freq tuple -> complex ndarray (d,)

    def values_from(self, phases: list, n_grid: int) -> np.ndarray:
        """u on the n_grid^N grid whose ``phases`` are given, shape
        (n_grid,)*N + (d,) in C order.

        The modes are summed into a (d, n_grid, ..., n_grid) array, so that
        numpy's inner loop runs over grid points rather than over the d
        components; each value is the same complex product as in point-major
        order. The result is copied back to C order, since a sum over the
        last axis of the strided view adds 8 or more components in another
        order."""
        vals = np.zeros((self.d,) + (n_grid,) * self.N)
        shape = (self.d,) + (1,) * self.N
        for c, phase in zip(self.coeffs.values(), phases):
            vals += (c.reshape(shape) * phase).real
        return np.ascontiguousarray(vals.transpose(*range(1, self.N + 1), 0))

    def sample(self, n_grid: int, domain: str = "torus") -> GridField:
        phases = _phase_memo(grid_points(self.N, n_grid))(self)
        return GridField(domain=domain, n=n_grid, values=self.values_from(phases, n_grid))

    def apply(self, op: DiffOp) -> "TrigField":
        """op applied to u; the frequencies keep their order."""
        freqs = np.array(list(self.coeffs), dtype=float).reshape(-1, self.N)
        symbols = float_symbol(op)(freqs).astype(complex)
        return TrigField(N=self.N, d=op.l, coeffs={
            m: (2j * np.pi) ** op.k * (S @ c)
            for (m, c), S in zip(self.coeffs.items(), symbols)})

    def derivative(self, t: int) -> "TrigField":
        """d/dx_t of u; the frequencies keep their order."""
        return TrigField(N=self.N, d=self.d, coeffs={
            m: (2j * np.pi * m[t]) * c for m, c in self.coeffs.items()})


def _phase(X: np.ndarray, m) -> np.ndarray:
    """exp(2 pi i m . x) at the grid points X, from the product
    ``np.tensordot`` would form."""
    flat = X.reshape(-1, X.shape[-1])
    return np.exp(np.dot(flat, 2j * np.pi * np.array(m, dtype=float)[:, None])
                  ).reshape(X.shape[:-1])


# Bytes of phases one memo of _phase_memo keeps: all of the refined 64^2 grid
# of a sobolev run with n_grid = 32, and of bb's 32^2 grid.
PHASE_MEMO_BYTES = 8 << 20


def _phase_memo(X: np.ndarray):
    """u -> the phase of each frequency of the TrigField u on the fixed grid
    X, in coefficient order. The memo keeps as many phases as
    PHASE_MEMO_BYTES holds, dropping the least recently used."""
    points = X.size // X.shape[-1]
    phase = functools.lru_cache(maxsize=PHASE_MEMO_BYTES // (16 * points))(
        functools.partial(_phase, X))
    return lambda u: [phase(m) for m in u.coeffs]


def random_trig_field(
    rng: np.random.Generator, N: int, d: int, band: int, n_modes: int
) -> TrigField:
    coeffs = {}
    for _ in range(n_modes):
        while True:
            m = tuple(rng.integers(-band, band + 1, size=N).tolist())
            if any(m):
                break
        c = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        coeffs[m] = coeffs.get(m, 0) + c
    return TrigField(N=N, d=d, coeffs=coeffs)


# ---------------------------------------------------------------------------
# Bourgain-Brezis ratio experiment
# ---------------------------------------------------------------------------


# Each bb trial field has BB_MODES random modes with entries in [-BB_BAND, BB_BAND].
BB_BAND, BB_MODES = 4, 6


def bb_ratio_experiment(
    k: int,
    N: int,
    trials: int = 1000,
    n_grid: int = 32,
    seed: int = 0,
) -> ExperimentReport:
    """Sampled ratios |int v.phi| / (||v||_1 ||Dphi||_N) for k-fold
    divergence-free v and smooth compactly supported phi.

    The constraint div^k v = 0 is enforced per frequency by exact projection
    of each Fourier coefficient onto the kernel of the div^k symbol row.
    """
    if N < 2:
        raise ParameterError(f"N must be at least 2, got N = {N}")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got k = {k}")
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got trials = {trials}")
    if n_grid < 1:
        raise ParameterError(f"grid must be at least 1, got n_grid = {n_grid}")
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, got seed = {seed}")
    M_k = math.comb(N + k - 1, N - 1)
    # |sigma|^2 = C(N+k-1, N-1) * BB_BAND^(2k) at the corner frequency of the band
    if math.log2(M_k) + 2 * k * math.log2(BB_BAND) > 1000:
        raise ParameterError(f"k = {k} is too large for N = {N}: the div^k symbol at the "
                             f"frequency ({BB_BAND}, ..., {BB_BAND}) leaves the double range")
    _check_grid(N, n_grid)
    size = 8 * n_grid ** N * M_k * N
    if size > BB_FIELD_MAX_BYTES:
        raise FieldBudgetExceeded(
            f"D phi of {n_grid}^{N} = {n_grid ** N} points x {M_k} components x {N} derivatives "
            f"in doubles = {size} bytes exceeds the budget of {BB_FIELD_MAX_BYTES} bytes")
    betas = monomials_of_degree(N, k)
    rng = np.random.default_rng(seed)
    report = ExperimentReport(
        name="bb_ratio_experiment",
        parameters={
            "k": k, "N": N, "trials": trials, "n_grid": n_grid,
            "seed": seed, "band": BB_BAND,
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
    # the grid is fixed, so a frequency's phase and symbol row are the same
    # in every trial; the rows too are kept within PHASE_MEMO_BYTES
    phases = _phase_memo(X)

    @functools.lru_cache(maxsize=max(1, PHASE_MEMO_BYTES // (8 * M_k)))
    def symbol_row(m):
        """The div^k symbol row at m and its squared norm."""
        sigma = np.array([math.prod(float(x) ** e for x, e in zip(m, b) if e) for b in betas],
                         dtype=float)
        return sigma, float(sigma @ sigma)

    max_residual = 0.0
    ratios = []
    for _ in range(trials):
        v = random_trig_field(rng, N, M_k, BB_BAND, BB_MODES)
        # exact per-frequency projection onto ker of the div^k symbol
        proj = {}
        for m, c in v.coeffs.items():
            sigma, nrm2 = symbol_row(m)
            proj[m] = c = c - sigma * (sigma @ c) / nrm2
            max_residual = max(max_residual, abs(sigma @ c) /
                               (np.linalg.norm(c) * math.sqrt(nrm2) + 1e-300))
        v = TrigField(N=N, d=M_k, coeffs=proj)
        vf = GridField(domain="cube", n=n_grid, values=v.values_from(phases(v), n_grid))
        # phi: bump times a random low-frequency trig combination
        phi_t = random_trig_field(rng, N, M_k, 2, 3)
        phi_phases = phases(phi_t)
        phi_core = GridField(domain="cube", n=n_grid,
                             values=phi_t.values_from(phi_phases, n_grid)).values
        phi = bump[..., None] * phi_core
        # D phi analytically: product rule on bump * trig
        dphi = np.zeros(X.shape[:-1] + (M_k, N))
        for t in range(N):
            dcore = phi_t.derivative(t).values_from(phi_phases, n_grid)
            dphi[..., t] = dbump[t][..., None] * phi_core + bump[..., None] * dcore
        integral = abs(float(np.mean(np.sum(vf.values * phi, axis=-1))))
        v_l1 = lp_norm(vf, 1)
        dphi_flat = GridField(
            domain="cube", n=n_grid,
            values=dphi.reshape(X.shape[:-1] + (M_k * N,)),
        )
        dphi_lN = lp_norm(dphi_flat, N)
        denom = v_l1 * dphi_lN
        ratios.append(integral / denom if denom > 0 else 0.0)
    report.trials = [{"ratio": r} for r in ratios]
    report.summary = {
        "max_ratio": max(ratios),
        "mean_ratio": float(np.mean(ratios)),
        "max_constraint_residual": max_residual,
    }
    return report


# ---------------------------------------------------------------------------
# Sobolev-ratio experiment
# ---------------------------------------------------------------------------


def sobolev_ratio_experiment(
    pair: OperatorPair,
    p: float,
    trials: int = 100,
    n_grid: int = 32,
    seed: int = 0,
    s_max: int = DEFAULT_S_MAX,
) -> ExperimentReport:
    """Sampled ratios ||Au - proj||_{p*} / ||calA u||_p on the unit cube.

    The quotient is realized by least-squares projection of A u onto the
    image of the polynomial quotient space under A, sampled on the grid.
    Status BOUNDED requires the max ratio to be stable within 10% under one
    grid refinement.
    """
    if pair.mode != "sobolev":
        raise ParameterError("sobolev_ratio_experiment requires a sobolev-mode pair")
    N = pair.calA.N
    if not (1 <= p < N):
        raise ParameterError(f"need 1 <= p < N = {N}, got p = {p}")
    if trials < 1:
        raise ParameterError(f"trials must be at least 1, got trials = {trials}")
    if n_grid < 1:
        raise ParameterError(f"grid must be at least 1, got n_grid = {n_grid}")
    if seed < 0:
        raise ParameterError(f"seed must be at least 0, got seed = {seed}")
    _check_grid(N, 2 * n_grid)  # the refined grid is the larger one
    p_star = N * p / (N - p)
    verdict = kernel_inclusion(pair)
    if not verdict.holds:
        raise InclusionFails(
            "kernel inclusion fails; run the counterexample blow-up instead"
        )
    cert = construct_L(pair, s_max, verdict=verdict)
    qspec = quotient_spec(pair, cert.s)
    band = max(1, n_grid // 8)

    def run_at(ng):
        grid = grid_points(N, ng)
        phases_of = _phase_memo(grid)  # a memo per grid, as the phases differ
        basis_fields = _quotient_image_basis(pair.A, qspec, grid)
        X = basis_fields.reshape(basis_fields.shape[0], -1).T  # points x basis
        u_svd, sv, vt = np.linalg.svd(X, full_matrices=False)
        rank = int(np.sum(sv > sv[0] * 1e-13))
        if rank and sv[0] / sv[rank - 1] > 1e12:
            raise IllConditionedQuotient(
                "polynomial quotient Gram condition exceeds 1e12; raise the grid"
            )
        Q = u_svd[:, :rank]
        out = []
        local_rng = np.random.default_rng(seed)
        for _ in range(trials):
            u = random_trig_field(local_rng, N, pair.calA.d, band, 5)
            phases = phases_of(u)  # u.apply keeps the frequency order
            Au = u.apply(pair.A).values_from(phases, ng)
            resid = Au.reshape(-1) - Q @ (Q.T @ Au.reshape(-1))
            num = GridField(domain="cube", n=ng, values=resid.reshape(Au.shape),
                            weights=_weights_array(pair.A))
            den_field = GridField(domain="cube", n=ng,
                                  values=u.apply(pair.calA).values_from(phases, ng),
                                  weights=_weights_array(pair.calA))
            den = lp_norm(den_field, p)
            out.append(lp_norm(num, p_star) / den if den > 0 else 0.0)
        return out

    ratios = run_at(n_grid)
    ratios_fine = run_at(2 * n_grid)
    m0, m1 = max(ratios), max(ratios_fine)
    stable = m0 > 0 and abs(m1 - m0) <= 0.10 * max(m0, m1)
    report = ExperimentReport(
        name="sobolev_ratio_experiment",
        parameters={
            "p": p, "p_star": p_star, "trials": trials,
            "n_grid": n_grid, "seed": seed, "s": cert.s,
        },
        trials=[{"ratio": r} for r in ratios],
        summary={
            "max_ratio": m0,
            "max_ratio_refined": m1,
            "quotient_dimension": qspec.dimension,
        },
        status="BOUNDED" if stable else "UNSTABLE",
        notes=["no closed-form constant is available in this regime"],
    )
    return report


def _quotient_image_basis(A: DiffOp, qspec, X: np.ndarray) -> np.ndarray:
    """Fields A(x^gamma e_j), gamma up to the degree bound and then j < d,
    sampled on the cube grid X (see ``grid_points``)."""
    N, d = qspec.N, qspec.d
    fields = []
    for gamma, j in itertools.product(monomials_up_to_degree(N, qspec.degree_bound), range(d)):
        mono = [MultiPoly.zero(N) for _ in range(d)]
        mono[j] = MultiPoly.monomial(N, gamma)
        img = A.apply_to_poly(mono)
        if all(p.is_zero for p in img):
            continue
        vals = np.zeros(X.shape[:-1] + (A.l,))
        for i, poly in enumerate(img):
            for exp, c in poly.terms.items():
                term = float(c) * np.ones(X.shape[:-1])
                for var, e in enumerate(exp):
                    if e:
                        term = term * X[..., var] ** e
                vals[..., i] += term
        fields.append(vals)
    return np.stack([f.reshape(-1) for f in fields])
