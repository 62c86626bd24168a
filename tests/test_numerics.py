import math
import random

import numpy as np
import pytest

from symcheck import numerics
from symcheck.analysis import find_witness
from symcheck.numerics import (
    GRID_MAX_POINTS,
    KORN2_BLOCK,
    PHASE_MEMO_BYTES,
    GridBudgetExceeded,
    GridField,
    NyquistViolation,
    ParameterError,
    PlaneWaveFamily,
    TrigField,
    InclusionFails,
    apply_op_planewave,
    bb_ratio_experiment,
    counterexample_blowup,
    grid_points,
    korn_constant_p2,
    lp_norm,
    _symbol_quotient_norm,
    float_symbol,
    planewave_field,
    random_trig_field,
    sobolev_ratio_experiment,
)
from symcheck.operators import DiffOp, OperatorPair, catalog, grad_power

from helpers import (
    rand_op,
    reference_bb_ratio_experiment,
    reference_korn_constant_p2,
    reference_symbol_at_float,
    reference_symbol_quotient_norm,
    reference_trig_apply,
    reference_trig_derivative,
    reference_trig_sample,
)


def full_gradient(N):
    return grad_power(1, N, N)


def div_grad_witness():
    pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
    return pair, find_witness(pair)


class TestLpNorm:
    def test_constant_field(self):
        f = GridField("torus", 16, np.full((16, 16, 1), 2.0))
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(f, p) == pytest.approx(2.0, abs=1e-14)

    def test_zero_field(self):
        f = GridField("torus", 8, np.zeros((8, 8, 2)))
        assert lp_norm(f, 2) == 0.0

    def test_sine_l2(self):
        n = 256
        x = (np.arange(n) + 0.5) / n
        f = GridField("torus", n, np.sin(2 * np.pi * x)[:, None])
        assert lp_norm(f, 2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_quadrature_convergence_order(self):
        # |sin| has kinks, so the midpoint rule converges at second order
        exact = 2 / math.pi
        errs = []
        for n in (64, 128, 256):
            x = (np.arange(n) + 0.5) / n
            f = GridField("torus", n, np.sin(2 * np.pi * x)[:, None])
            errs.append(abs(lp_norm(f, 1) - exact))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_parseval(self):
        rng = np.random.default_rng(0)
        n = 64
        # distinct frequencies, no m / -m collisions
        freqs = [(1, 0), (2, 1), (0, 3), (4, 2)]
        coeffs = {m: rng.standard_normal(2) + 1j * rng.standard_normal(2)
                  for m in freqs}
        u = TrigField(N=2, d=2, coeffs=coeffs)
        f = u.sample(n)
        fourier = math.sqrt(sum(float(np.sum(np.abs(c) ** 2)) / 2
                                for c in coeffs.values()))
        assert lp_norm(f, 2) == pytest.approx(fourier, abs=1e-10)

    def test_invalid_p(self):
        f = GridField("torus", 8, np.zeros((8, 8, 1)))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_weighted_norm(self):
        w = np.array([1.0, 1.0, 2.0])
        f = GridField("torus", 8, np.full((8, 8, 3), 1.0), weights=w)
        assert lp_norm(f, 2) == pytest.approx(2.0, abs=1e-14)


class TestPlaneWaves:
    def test_symbolic_zero_short_circuit(self):
        pair, w = div_grad_witness()
        fam = PlaneWaveFamily(witness=w, calA=pair.calA, modes=(1, 2))
        out = apply_op_planewave(pair.calA, fam, 2, 64)
        assert np.all(out.values == 0.0)

    def test_norm_doubles_with_the_mode_for_first_order(self):
        pair, w = div_grad_witness()
        fam = PlaneWaveFamily(witness=w, calA=pair.calA, modes=(1, 2))
        n1 = lp_norm(apply_op_planewave(pair.A, fam, 1, 128), 2)
        n2 = lp_norm(apply_op_planewave(pair.A, fam, 2, 128), 2)
        assert n2 / n1 == pytest.approx(2.0, rel=1e-10)

    def test_rejects_non_kernel_vector(self):
        pair, w = div_grad_witness()
        from symcheck.analysis import Witness

        bad = Witness(xi=w.xi, v=tuple(c + 1 for c in w.v), residual=w.residual)
        with pytest.raises(ValueError):
            PlaneWaveFamily(witness=bad, calA=pair.calA, modes=(1,))

    def test_field_shape(self):
        pair, w = div_grad_witness()
        fam = PlaneWaveFamily(witness=w, calA=pair.calA, modes=(1,))
        u = planewave_field(fam, 1, 32)
        assert u.values.shape == (32, 32, 2)
        assert u.domain == "torus"


class TestKornConstant:
    def test_gradient_against_itself_is_one(self):
        g = catalog("gradient", 2)
        pair = OperatorPair(g, g, "korn")
        c = korn_constant_p2(pair, samples=200, refine_iters=10, seed=0)
        assert c == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_pair_is_flagged(self):
        pair = OperatorPair(catalog("divergence", 2), full_gradient(2), "korn")
        with pytest.raises(InclusionFails):
            korn_constant_p2(pair, samples=50, seed=0)

    def test_monotone_in_samples(self):
        pair = OperatorPair(catalog("sym_gradient", 2), full_gradient(2), "korn")
        c1 = korn_constant_p2(pair, samples=50, refine_iters=0, seed=0)
        c2 = korn_constant_p2(pair, samples=400, refine_iters=0, seed=0)
        assert c2 >= c1


class TestBlowup:
    def test_nyquist_guard(self):
        pair, w = div_grad_witness()
        with pytest.raises(NyquistViolation):
            counterexample_blowup(pair, w, modes=(1, 2, 4, 8), n_grid=32)

    def test_infinite_ratio_status(self):
        pair, w = div_grad_witness()
        rep = counterexample_blowup(pair, w, modes=(1, 2), n_grid=64, seed=0)
        assert rep.summary["rhs_status"] == "INFINITE_RATIO"
        assert all(t["ratio"] == "INFINITE_RATIO" for t in rep.trials)

    def test_single_mode_gram_rank(self):
        pair, w = div_grad_witness()
        rep = counterexample_blowup(pair, w, modes=(1,), n_grid=64, seed=0)
        assert rep.summary["gram_rank"] == 1


class TestBBExperiment:
    def test_constraint_residual(self):
        rep = bb_ratio_experiment(1, 2, trials=50, n_grid=32, seed=0)
        assert rep.summary["max_constraint_residual"] <= 1e-12
        assert all(math.isfinite(t["ratio"]) for t in rep.trials)

    def test_seeded_determinism(self):
        a = bb_ratio_experiment(1, 2, trials=30, n_grid=32, seed=7)
        b = bb_ratio_experiment(1, 2, trials=30, n_grid=32, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            bb_ratio_experiment(1, 1, trials=1)

    def test_order_bound(self):
        # |sigma|^2 = (k + 1) * 4^(2k) at the corner frequency in N = 2:
        # 2^999.96 for k = 248, past 2^1000 from k = 249 on
        rep = bb_ratio_experiment(248, 2, trials=1, n_grid=4)
        assert all(math.isfinite(t["ratio"]) for t in rep.trials)
        for k in (249, 1000):
            with pytest.raises(ParameterError, match=f"k = {k} is too large"):
                bb_ratio_experiment(k, 2, trials=1, n_grid=4)


class TestGridBudget:
    """A grid of more than GRID_MAX_POINTS points is refused before any of
    it is built."""

    @pytest.fixture(autouse=True)
    def no_grid_is_built(self, monkeypatch):
        def refuse(N, n):
            raise AssertionError(f"a grid of {n}^{N} points was built")
        monkeypatch.setattr(numerics, "grid_points", refuse)

    def test_the_experiment_grids_fit(self):
        assert max(256 ** 2, (2 * 32) ** 2, 32 ** 2, 32 ** 3) <= GRID_MAX_POINTS

    def test_bb(self):
        with pytest.raises(GridBudgetExceeded, match=r"32\^6 = 1073741824"):
            bb_ratio_experiment(1, 6, trials=1, n_grid=32)

    def test_blowup(self):
        pair, w = div_grad_witness()
        with pytest.raises(GridBudgetExceeded):
            counterexample_blowup(pair, w, n_grid=2048)

    def test_sobolev_checks_the_refined_grid(self):
        pair = OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")
        n = math.isqrt(GRID_MAX_POINTS) // 2 + 1
        assert n ** 2 <= GRID_MAX_POINTS < (2 * n) ** 2
        with pytest.raises(GridBudgetExceeded):
            sobolev_ratio_experiment(pair, 1.0, trials=1, n_grid=n)


class TestSobolevExperiment:
    def test_bounded_for_gradient_identity(self):
        pair = OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")
        rep = sobolev_ratio_experiment(pair, 1.0, trials=20, n_grid=16, seed=0)
        assert rep.status == "BOUNDED"
        assert all(math.isfinite(t["ratio"]) for t in rep.trials)

    def test_mode_guard(self):
        pair = OperatorPair(catalog("gradient", 2), catalog("gradient", 2), "korn")
        with pytest.raises(ValueError):
            sobolev_ratio_experiment(pair, 1.0)

    def test_exponent_guard(self):
        pair = OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")
        with pytest.raises(ValueError):
            sobolev_ratio_experiment(pair, 2.0)


class TestGridField:
    def test_midpoint_nodes(self):
        X = grid_points(1, 4)
        assert np.allclose(X[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GridField("torus", 2, np.full((2, 2, 1), np.inf))

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            GridField("plane", 2, np.zeros((2, 2, 1)))


def _reweighted(op, weights):
    return DiffOp(op.name, op.N, op.d, op.l, op.k, op.terms, weights)


def _hexed(value):
    """value with every float replaced by its float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def _unit_points(N, count, seed):
    """The coordinate axes, then random unit vectors."""
    rng = np.random.default_rng(seed)
    points = list(np.eye(N))
    for _ in range(count):
        xi = rng.standard_normal(N)
        points.append(xi / np.linalg.norm(xi))
    return points


class TestBitIdentity:
    """The numerics against the reference implementations in helpers.py,
    float for float."""

    PAIRS = {
        "sym_gradient(2) -> D": lambda: (catalog("sym_gradient", 2), full_gradient(2)),
        "sym_gradient(3) -> D": lambda: (catalog("sym_gradient", 3), full_gradient(3)),
        "reweighted sym_gradient(3) -> weighted D": lambda: (
            _reweighted(catalog("sym_gradient", 3), (1, 3, 2, 5, 1, 7)),
            _reweighted(full_gradient(3), tuple(range(1, 10)))),
        # rank 2 < d = l: the kernel xi is in the reduced SVD as well
        "curl(3) -> curl(3)": lambda: (catalog("curl", 3), catalog("curl", 3)),
        # l = 1 < d = 2: the kernel needs the full SVD
        "divergence(2) -> divergence(2)": lambda: (
            catalog("divergence", 2), catalog("divergence", 2)),
        # the kernel of calA leaks through A: inf at every xi
        "divergence(2) -> D": lambda: (catalog("divergence", 2), full_gradient(2)),
        # order 2: squares as well as products of coordinates
        "hessian of a 2-field (3) -> random order 2": lambda: (
            grad_power(2, 2, 3), rand_op(random.Random(3), N=3, d=2, l=3, k=2)),
    }

    @pytest.mark.parametrize("name", list(PAIRS))
    def test_quotient_norm(self, name):
        calA, A = self.PAIRS[name]()
        pair = OperatorPair(calA, A, "korn")
        quotient_norm = _symbol_quotient_norm(pair)
        points = np.array(_unit_points(calA.N, 400, seed=len(name)))
        values = quotient_norm(points)
        assert [v.hex() for v in values] == [
            reference_symbol_quotient_norm(pair, xi).hex() for xi in points]
        assert [quotient_norm(xi[None])[0].hex() for xi in points[:20]] == [
            v.hex() for v in values[:20]]
        leaks = name == "divergence(2) -> D"
        assert [math.isinf(v) for v in values] == [leaks] * len(values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_korn_constant_p2(self, monkeypatch, seed):
        calA, A = self.PAIRS["reweighted sym_gradient(3) -> weighted D"]()
        pair = OperatorPair(calA, A, "korn")
        evaluated = []
        make = numerics._symbol_quotient_norm

        def recording(pair):
            quotient_norm = make(pair)
            return lambda points: evaluated.extend(points.copy()) or quotient_norm(points)

        monkeypatch.setattr(numerics, "_symbol_quotient_norm", recording)
        samples = KORN2_BLOCK + 37  # a full block, then a part of one
        value = korn_constant_p2(pair, samples=samples, seed=seed)
        reference, points = reference_korn_constant_p2(pair, samples, seed=seed)
        assert value.hex() == reference.hex()
        # the same unit vectors, bit for bit, in the same order
        assert np.array_equal(np.array(evaluated), np.array(points))

    @pytest.mark.parametrize("k,N,n_grid,trials,evicts", [
        (1, 2, 16, 40, False),
        (2, 2, 16, 40, False),
        (1, 3, 8, 20, False),
        (2, 3, 8, 20, False),
        # 16^3 complex phases take 64 KiB each: the memo holds 32 of them
        (1, 3, 16, 30, True),
    ])
    def test_bb_report(self, monkeypatch, k, N, n_grid, trials, evicts):
        computed = []
        phase = numerics._phase
        monkeypatch.setattr(numerics, "_phase", lambda X, m: computed.append(m) or phase(X, m))
        report = bb_ratio_experiment(k, N, trials=trials, n_grid=n_grid, seed=k + N)
        reference = reference_bb_ratio_experiment(k, N, trials, n_grid, seed=k + N)
        assert _hexed(report.to_dict()) == _hexed(reference.to_dict())
        assert (16 * n_grid ** N * len(set(computed)) > PHASE_MEMO_BYTES) == evicts
        # each frequency's phase is computed once unless the memo dropped it
        assert (len(computed) > len(set(computed))) == evicts

    def test_float_symbol(self):
        rng = random.Random(0)
        nrng = np.random.default_rng(0)
        ops = [catalog("sym_gradient", 3), catalog("curl", 3), catalog("bilaplacian", 2)]
        ops += [rand_op(rng, N=rng.randint(2, 3), k=rng.randint(1, 3)) for _ in range(20)]
        for op in ops:
            symbol = float_symbol(op)
            points = [nrng.standard_normal(op.N) for _ in range(20)]
            points += [np.array(nrng.integers(-4, 5, size=op.N), dtype=float)
                       for _ in range(10)]
            for xi, S in zip(points, symbol(np.array(points))):
                assert np.array_equal(S, reference_symbol_at_float(op, xi))

    @pytest.mark.parametrize("N,d,n_grid", [(2, 1, 16), (2, 3, 32), (3, 2, 12)])
    def test_trig_sample_apply_and_derivative(self, N, d, n_grid):
        rng = np.random.default_rng(N * d)
        u = random_trig_field(rng, N, d, 4, 6)
        for domain in ("torus", "cube"):
            assert np.array_equal(u.sample(n_grid, domain).values,
                                  reference_trig_sample(u, n_grid))
        for t in range(N):
            assert np.array_equal(u.derivative(t).sample(n_grid).values,
                                  reference_trig_derivative(u, n_grid, t))
        for op in (full_gradient(N) if d == 1 else catalog("divergence", N),
                   grad_power(2, d, N)):
            if op.d != d:
                continue
            Au = u.apply(op)
            ref = reference_trig_apply(u, op)
            assert list(Au.coeffs) == list(ref.coeffs)
            assert all(np.array_equal(Au.coeffs[m], ref.coeffs[m]) for m in ref.coeffs)
            assert np.array_equal(Au.sample(n_grid).values,
                                  reference_trig_sample(ref, n_grid))
