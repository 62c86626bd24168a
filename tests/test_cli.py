import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import symcheck
from symcheck import analysis, cli, exact, groebner, numerics, operators
from symcheck.cli import main
from symcheck.operators import DiffOp, catalog, grad_power, op_to_dict, save_op
from helpers import grid_hiding_pair, rand_op, tf_sym_gradient


@pytest.fixture
def ops_dir(tmp_path):
    d = tmp_path / "ops"
    d.mkdir()
    save_op(catalog("gradient", 2), d / "gradient2.json")
    save_op(catalog("sym_gradient", 2), d / "symgrad2.json")
    save_op(catalog("divergence", 2), d / "div2.json")
    save_op(grad_power(1, 2, 2), d / "fullgrad2.json")
    save_op(catalog("bilaplacian", 2), d / "bilap2.json")
    save_op(catalog("d2_laplacian", 2), d / "d2lap2.json")
    save_op(catalog("cauchy_riemann", 2), d / "cr2.json")
    return d


def read(path):
    with open(path) as fh:
        return json.load(fh)


class TestAnalyze:
    def test_gradient(self, ops_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["analyze", "--op", str(ops_dir / "gradient2.json"),
                     "--out", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["schema"] == "symcheck-report/1"
        res = rep["results"]
        assert res["elliptic_C"] is True
        assert res["constant_rank_C"] is True
        assert res["cancelling"] is True
        assert res["r"] == 0

    def test_cauchy_riemann(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--op", str(ops_dir / "cr2.json"),
                     "--out", str(out)]) == 0
        res = read(out)["results"]
        assert res["elliptic_C"] is False
        assert res["elliptic_R"] == "UNCERTIFIED_YES"
        assert res["constant_rank_C"] is False

    def test_origin_test_runs_once(self, tmp_path, monkeypatch):
        # ellipticity over R and C is read off the rank profile, so the
        # rho-minors of the laplacian meet the origin test only there
        calls = []
        original = analysis.zero_dim_origin

        def counting(gens):
            calls.append(len(gens))
            return original(gens)

        monkeypatch.setattr(analysis, "zero_dim_origin", counting)
        path = tmp_path / "lap2.json"
        save_op(catalog("laplacian", 2), path)
        assert main(["analyze", "--op", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1

    def test_divergence(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["analyze", "--op", str(ops_dir / "div2.json"),
                     "--out", str(out)]) == 0
        res = read(out)["results"]
        assert res["cancelling"] is False
        assert res["dim_W"] == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--op", str(tmp_path / "nope.json")]) == 4

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--op", str(bad)]) == 4


class TestMalformedInput:
    """Malformed operator files exit 4 with a message naming the field."""

    @staticmethod
    def gradient_dict():
        return op_to_dict(catalog("gradient", 2))

    def run(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["analyze", "--op", str(path)])
        return code, capsys.readouterr().err

    def test_terms_entry_without_matrix(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["terms"][0].pop("matrix")
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "matrix" in err

    def test_integer_matrix_entries(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["terms"][0]["matrix"] = [[1], [0]]
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "matrix" in err

    def test_terms_given_as_an_object(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["terms"] = data["terms"][0]
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "terms" in err

    def test_non_integer_alpha(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["terms"][0]["alpha"] = ["1", "0"]
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "alpha" in err

    @pytest.mark.parametrize("field", ["N", "d", "l", "k"])
    def test_boolean_size(self, tmp_path, capsys, field):
        data = {"name": "t", "N": 1, "d": 1, "l": 1, "k": 1,
                "terms": [{"alpha": [1], "matrix": [["1"]]}]}
        data[field] = True
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and f"{field} must be a" in err

    def test_boolean_alpha(self, tmp_path, capsys):
        data = {"name": "t", "N": 1, "d": 1, "l": 1, "k": 1,
                "terms": [{"alpha": [True], "matrix": [["1"]]}]}
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "alpha" in err

    def test_all_booleans(self, tmp_path, capsys):
        data = {"name": "t", "N": True, "d": True, "l": 1, "k": True,
                "terms": [{"alpha": [True], "matrix": [["1"]]}]}
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "N must be a positive integer" in err

    def test_non_string_name(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["name"] = 5
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "name must be a string" in err

    def test_decimal_entry_names_its_field(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["terms"][1]["matrix"][1][0] = "0.5"
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "terms[1].matrix[1][0]: malformed rational '0.5'" in err

    def test_negative_weights(self, tmp_path, capsys):
        data = op_to_dict(catalog("sym_gradient", 2))
        data["weights"] = ["-1", "1", "2"]
        code, err = self.run(tmp_path, capsys, data)
        assert code == 4 and "weights" in err

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"name": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ])
    def test_nesting_past_the_stack(self, tmp_path, capsys, text):
        # json.loads raises RecursionError, not JSONDecodeError
        path = tmp_path / "deep.json"
        path.write_text(text)
        code = main(["analyze", "--op", str(path)])
        err = capsys.readouterr().err
        assert code == 4 and "input error: invalid JSON" in err and "Traceback" not in err

    def test_entry_past_the_digit_limit(self, tmp_path, capsys):
        data = self.gradient_dict()
        data["terms"][1]["matrix"][1][0] = "7" * 5000
        code, err = self.run(tmp_path, capsys, data)
        limit = sys.get_int_max_str_digits()
        assert code == 4 and (f"terms[1].matrix[1][0]: malformed rational, an integer past "
                              f"Python's limit of {limit} digits, '7777") in err


class TestBudget:
    def test_analyze_in_forty_variables_returns(self, tmp_path):
        # d_1^40 in N = 40: the real-rank sampling walks a lazy grid of 7^40
        # points, and one form in 40 variables fails the origin test at once
        op = DiffOp("d1^40", 40, 1, 1, 40, {(40,) + (0,) * 39: [[Fraction(1)]]})
        path, out = tmp_path / "d1_40.json", tmp_path / "r.json"
        save_op(op, path)
        assert main(["analyze", "--op", str(path), "--out", str(out)]) == 0
        assert read(out)["results"]["constant_rank_C"] is False

    def test_origin_test_past_the_macaulay_cap_exits_3(self, tmp_path, capsys):
        # D^3 on scalars in N = 6: the origin test of its 216 cubic monomial
        # minors needs a Macaulay matrix with 8568 columns
        path = tmp_path / "d3.json"
        save_op(grad_power(3, 1, 6), path)
        assert main(["analyze", "--op", str(path)]) == 3
        assert "budget" in capsys.readouterr().err

    def test_factorization_past_the_spair_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # construct_L's module basis for tf_sym_gradient(3) -> D processes
        # 66 S-pairs
        monkeypatch.setattr(groebner, "GROEBNER_MAX_SPAIRS", 20)
        calA, A = tmp_path / "tf.json", tmp_path / "D.json"
        save_op(tf_sym_gradient(3), calA)
        save_op(grad_power(1, 3, 3), A)
        assert main(["compare", "-a", str(calA), "-A", str(A)]) == 3
        assert "budget exceeded: Groebner basis needs more than 20 S-pairs" in capsys.readouterr().err

    def test_minors_past_the_cap_exit_3_before_any(self, tmp_path, capsys, monkeypatch):
        # a 30x15 symbol of generic rank 15 in N = 2: its rank profile would
        # ask for C(30, 15) = 155,117,520 minors of size 15
        def refuse(*args):
            raise AssertionError("a minor was computed past the budget")
        monkeypatch.setattr(exact, "_bareiss_det", refuse)
        path = tmp_path / "wide.json"
        save_op(rand_op(random.Random(1), N=2, d=15, l=30, k=1), path)
        start = time.perf_counter()
        assert main(["analyze", "--op", str(path)]) == 3
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: 155117520 minors of size 15 of a 30x15 symbol")


def _grid_side(N):
    """The largest n with n^N grid points within the grid budget."""
    return max(n for n in range(1, 1025) if n ** N <= numerics.GRID_MAX_POINTS)


# D^k on scalars in N variables (N^k rows, at most 250): its N^k minors of
# size 1 pass, and its origin test needs C(N k, N - 1) Macaulay columns
MACAULAY_SHAPES = [(N, k) for N in range(2, 11) for k in range(2, 7)
                   if N ** k <= 250 and math.comb(N * k, N - 1) > groebner.MACAULAY_MAX_COLUMNS]


@st.composite
def past_a_budget(draw):
    """(kind, shape): a problem whose closed-form count passes its cap."""
    kind = draw(st.sampled_from(["minors", "macaulay", "catalog", "bb_field", "grid"]))
    if kind == "minors":
        # the rank-d symbol xi_1 M of a Vandermonde M, l x d: C(l, d) minors of size d
        d = draw(st.integers(2, 8))
        l_min = next(l for l in itertools.count(d) if math.comb(l, d) > exact.MINORS_MAX)
        return kind, (draw(st.integers(1, 3)), d, draw(st.integers(l_min, l_min + 8)))
    if kind == "macaulay":
        return kind, draw(st.sampled_from(MACAULAY_SHAPES))
    if kind == "catalog":
        name = draw(st.sampled_from(["gradient", "divergence", "laplacian", "bilaplacian",
                                     "d2_laplacian", "div_k"]))
        if name == "div_k":  # C(N + k - 1, N - 1) components
            N = draw(st.integers(2, 40))
            k_min = next(k for k in itertools.count(1)
                         if operators.multiindex_count(N, k) > operators.DIV_K_MAX_COMPONENTS)
            return kind, (name, N, draw(st.integers(k_min, k_min + 20)))
        N_min = next(N for N in itertools.count(1)
                     if operators.catalog_integers(name, N) > operators.CATALOG_MAX_INTEGERS)
        return kind, (name, draw(st.integers(N_min, N_min + 2000)), None)
    if kind == "bb_field":
        # a grid within its budget, a k whose div^k symbol stays in the double
        # range, and D phi past its bytes: 8 n^N C(N + k - 1, N - 1) N
        N = draw(st.integers(2, 6))
        n = draw(st.integers(max(1, _grid_side(N) // 4), _grid_side(N)))
        ks = [k for k in range(1, 300)
              if math.log2(math.comb(N + k - 1, N - 1)) + 2 * k * math.log2(numerics.BB_BAND) <= 1000
              and 8 * n ** N * math.comb(N + k - 1, N - 1) * N > numerics.BB_FIELD_MAX_BYTES]
        assume(ks)
        return kind, (N, n, draw(st.sampled_from(ks[:10])))
    # n^N grid points past the budget; sobolev also samples on the 2n grid
    experiment = draw(st.sampled_from(["bb", "blowup", "sobolev"]))
    N = draw(st.integers(2, {"bb": 6, "blowup": 3, "sobolev": 4}[experiment]))
    side = _grid_side(N) // 2 if experiment == "sobolev" else _grid_side(N)
    return kind, (experiment, N, draw(st.integers(side + 1, side + 100)))


class TestBudgetProperty:
    """Every problem whose closed-form count passes its cap exits 3 before
    the work that count measures, well under a second."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("work started on a problem past its budget")

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(past_a_budget())
    def test_exit_3_before_any_work(self, tmp_path, capsys, monkeypatch, problem):
        kind, shape = problem
        path = tmp_path / "op.json"
        with monkeypatch.context() as patch:
            if kind == "minors":
                N, d, l = shape
                M = [[Fraction((i + 1) ** j) for j in range(d)] for i in range(l)]
                save_op(DiffOp("vandermonde", N, d, l, 1, {(1,) + (0,) * (N - 1): M}), path)
                patch.setattr(exact, "_bareiss_det", self.refuse)
                argv, words = ["analyze", "--op", str(path)], f"minors of size {d} of a {l}x{d}"
            elif kind == "macaulay":
                N, k = shape
                save_op(grad_power(k, 1, N), path)
                patch.setattr(groebner, "forward_eliminate", self.refuse)
                argv, words = ["analyze", "--op", str(path)], "Macaulay"
            elif kind == "catalog":
                name, N, k = shape
                patch.setattr(operators.MultiPoly, "variable", self.refuse)
                patch.setattr(operators, "monomials_of_degree", self.refuse)
                argv = ["catalog", name, "--N", str(N)] + ([] if k is None else ["--k", str(k)])
                words = "components" if name == "div_k" else "integers"
            elif kind == "bb_field":
                N, n, k = shape
                patch.setattr(numerics, "grid_points", self.refuse)
                patch.setattr(numerics, "monomials_of_degree", self.refuse)
                argv = ["experiment", "bb", "--N", str(N), "--k", str(k), "--grid", str(n)]
                words = "FIELD_BUDGET_EXCEEDED"
            else:
                experiment, N, n = shape
                calA, A = {"bb": (None, None),
                           "blowup": (catalog("divergence", N), grad_power(1, N, N)),
                           "sobolev": (catalog("gradient", N), grad_power(0, 1, N))}[experiment]
                pair = []
                if calA is not None:
                    save_op(calA, tmp_path / "calA.json")
                    save_op(A, tmp_path / "A.json")
                    pair = ["-a", str(tmp_path / "calA.json"), "-A", str(tmp_path / "A.json")]
                patch.setattr(numerics, "grid_points", self.refuse)
                argv = (["experiment", experiment, *pair, "--grid", str(n)]
                        + {"bb": ["--N", str(N)], "blowup": [],
                           "sobolev": ["--mode", "sobolev"]}[experiment])
                words = "GRID_BUDGET_EXCEEDED"
            capsys.readouterr()
            start = time.perf_counter()
            code = main(argv + ["--out", str(tmp_path / "r.json")])
            elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code == 3, (argv, out, err)
        assert words in out + err
        assert elapsed < 0.5, (argv, elapsed)


class TestCompare:
    def test_holds_with_certificate(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["compare", "-a", str(ops_dir / "symgrad2.json"),
                     "-A", str(ops_dir / "fullgrad2.json"),
                     "--mode", "korn", "--out", str(out)])
        assert code == 0
        res = read(out)["results"]
        assert res["inclusion_holds"] is True
        assert res["factorization"]["s"] == 1
        assert res["quotient"]["degree_bound"] == 3

    def test_fails_with_witness(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["compare", "-a", str(ops_dir / "div2.json"),
                     "-A", str(ops_dir / "fullgrad2.json"), "--out", str(out)])
        assert code == 0
        res = read(out)["results"]
        assert res["inclusion_holds"] is False
        assert "witness" in res

    def test_witness_off_the_radius_3_grid_is_real(self, tmp_path):
        calA, A = grid_hiding_pair()
        save_op(calA, tmp_path / "calA.json")
        save_op(A, tmp_path / "A.json")
        out = tmp_path / "r.json"
        code = main(["compare", "-a", str(tmp_path / "calA.json"),
                     "-A", str(tmp_path / "A.json"), "--out", str(out)])
        assert code == 0
        witness = read(out)["results"]["witness"]
        assert witness["real"] is True
        assert witness["xi"] == ["-4", "-3"]

    def test_hypotheses_not_met(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["compare", "-a", str(ops_dir / "bilap2.json"),
                     "-A", str(ops_dir / "d2lap2.json"), "--out", str(out)])
        assert code == 2
        assert read(out)["status"] == "HYPOTHESES_NOT_MET"

    def test_negative_s_max_is_an_input_error(self, ops_dir, tmp_path, capsys):
        # exit 4 before any work, not exit 3 with S_MAX_EXCEEDED
        out = tmp_path / "r.json"
        code = main(["compare", "-a", str(ops_dir / "symgrad2.json"),
                     "-A", str(ops_dir / "fullgrad2.json"), "--s-max", "-1",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert "--s-max must be at least 0" in err and "Traceback" not in err
        assert not out.exists()


class TestExperiment:
    def test_korn2(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["experiment", "korn2",
                     "-a", str(ops_dir / "symgrad2.json"),
                     "-A", str(ops_dir / "fullgrad2.json"),
                     "--trials", "300", "--out", str(out)])
        assert code == 0
        assert abs(read(out)["results"]["constant_p2"] - 2 ** 0.5) < 1e-6

    def test_korn2_inclusion_failure(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["experiment", "korn2",
                     "-a", str(ops_dir / "div2.json"),
                     "-A", str(ops_dir / "fullgrad2.json"),
                     "--trials", "50", "--out", str(out)])
        assert code == 2
        assert read(out)["status"] == "INCLUSION_FAILS"

    def test_blowup(self, ops_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["experiment", "blowup",
                     "-a", str(ops_dir / "div2.json"),
                     "-A", str(ops_dir / "fullgrad2.json"),
                     "--grid", "128", "--out", str(out)])
        assert code == 0
        summary = read(out)["results"]["experiment"]["summary"]
        assert summary["rhs_status"] == "INFINITE_RATIO"
        assert abs(summary["loglog_slope"] - 1.0) < 0.05

    def test_bb(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["experiment", "bb", "--k", "1", "--N", "2",
                     "--trials", "50", "--grid", "32", "--out", str(out)])
        assert code == 0
        assert read(out)["results"]["experiment"]["summary"]["max_ratio"] > 0

    def test_missing_pair_arguments(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "korn2"])


class TestMismatchedPair:
    """A pair that does not fit together is an input error: exit 4 and the
    reason on stderr, never a traceback."""

    @pytest.fixture
    def more_ops(self, ops_dir):
        save_op(catalog("gradient", 3), ops_dir / "gradient3.json")
        save_op(catalog("laplacian", 2), ops_dir / "lap2.json")
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        return ops_dir

    def run(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("calA,A,reason", [
        ("gradient2.json", "gradient3.json", "share N and d"),
        ("symgrad2.json", "gradient2.json", "share N and d"),
        ("gradient2.json", "lap2.json", "order of A must be 1"),
    ])
    def test_compare(self, more_ops, capsys, calA, A, reason):
        err = self.run(capsys, ["compare", "-a", str(more_ops / calA),
                                "-A", str(more_ops / A)])
        assert reason in err

    @pytest.mark.parametrize("kind", ["korn2", "blowup", "sobolev"])
    def test_experiments(self, more_ops, capsys, kind):
        err = self.run(capsys, ["experiment", kind, "-a", str(more_ops / "gradient2.json"),
                                "-A", str(more_ops / "gradient3.json")])
        assert "share N and d" in err

    def test_sobolev_mode_order(self, more_ops, capsys):
        err = self.run(capsys, ["experiment", "sobolev", "--mode", "sobolev",
                                "-a", str(more_ops / "gradient2.json"),
                                "-A", str(more_ops / "gradient2.json")])
        assert "order of A must be 0" in err

    def test_sobolev_experiment_needs_sobolev_mode(self, more_ops, capsys):
        err = self.run(capsys, ["experiment", "sobolev",
                                "-a", str(more_ops / "gradient2.json"),
                                "-A", str(more_ops / "gradient2.json")])
        assert "sobolev-mode pair" in err

    def test_sobolev_exponent_at_least_N(self, more_ops, capsys):
        err = self.run(capsys, ["experiment", "sobolev", "--mode", "sobolev", "--p", "2",
                                "-a", str(more_ops / "gradient2.json"),
                                "-A", str(more_ops / "id2.json")])
        assert "1 <= p < N" in err

    def test_bb_in_one_dimension(self, capsys):
        err = self.run(capsys, ["experiment", "bb", "--N", "1"])
        assert "N must be at least 2" in err

    def test_exit_code_of_the_process(self, more_ops):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(symcheck.__file__).parent.parent), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "symcheck.cli", "compare",
             "-a", str(more_ops / "gradient2.json"), "-A", str(more_ops / "gradient3.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 4
        assert "share N and d" in proc.stderr and "Traceback" not in proc.stderr


class TestExperimentSizes:
    """An experiment size below 1, a negative seed or a negative --s-max is
    an input error: exit 4 and the reason on stderr, never a traceback."""

    @pytest.mark.parametrize("kind,flags,reason", [
        ("korn2", ["--trials", "0"], "samples must be at least 1"),
        ("korn2", ["--trials", "-3"], "samples must be at least 1"),
        ("bb", ["--grid", "0"], "grid must be at least 1"),
        ("bb", ["--grid", "-4"], "grid must be at least 1"),
        ("bb", ["--k", "-1"], "k must be at least 1"),
        ("bb", ["--k", "0"], "k must be at least 1"),
        ("bb", ["--trials", "0"], "trials must be at least 1"),
        ("sobolev", ["--trials", "0"], "trials must be at least 1"),
        ("sobolev", ["--grid", "0"], "grid must be at least 1"),
        ("korn2", ["--seed", "-1"], "seed must be at least 0"),
        ("bb", ["--seed", "-1"], "seed must be at least 0"),
        ("sobolev", ["--seed", "-1"], "seed must be at least 0"),
        ("sobolev", ["--s-max", "-2"], "--s-max must be at least 0"),
        ("bb", ["--N", "2", "--k", "260", "--grid", "4", "--trials", "1"], "k = 260 is too large"),
        ("bb", ["--k", "1000"], "k = 1000 is too large"),
    ])
    def test_exit_4(self, ops_dir, capsys, kind, flags, reason):
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        pair = {
            "korn2": ["-a", str(ops_dir / "symgrad2.json"), "-A", str(ops_dir / "fullgrad2.json")],
            "bb": [],
            "sobolev": ["--mode", "sobolev", "-a", str(ops_dir / "gradient2.json"),
                        "-A", str(ops_dir / "id2.json")],
        }[kind]
        code = main(["experiment", kind, *pair, *flags])
        err = capsys.readouterr().err
        assert code == 4
        assert reason in err and "Traceback" not in err

    # each grid is refused before any of it is allocated
    @pytest.mark.parametrize("kind,flags,points", [
        ("bb", ["--N", "6", "--grid", "32"], "32^6 = 1073741824"),
        ("blowup", ["--grid", "2048"], "2048^2 = 4194304"),
        # sobolev also samples on the refined grid, 2 * 600 = 1200 a side
        ("sobolev", ["--grid", "600"], "1200^2 = 1440000"),
    ])
    def test_grid_budget_exit_3(self, ops_dir, tmp_path, capsys, kind, flags, points):
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        pair = {
            "bb": [],
            "blowup": ["-a", str(ops_dir / "div2.json"), "-A", str(ops_dir / "fullgrad2.json")],
            "sobolev": ["--mode", "sobolev", "-a", str(ops_dir / "gradient2.json"),
                        "-A", str(ops_dir / "id2.json")],
        }[kind]
        out = tmp_path / "r.json"
        code = main(["experiment", kind, *pair, *flags, "--out", str(out)])
        assert code == 3
        assert points in capsys.readouterr().out
        rep = read(out)
        assert rep["status"] == "GRID_BUDGET_EXCEEDED" and points in rep["results"]["detail"]

    def test_field_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        # 16^4 points pass the grid cap, but D phi would take about 11 GB:
        # refused before the grid or the div^k symbol is built
        def refuse(*args):
            raise AssertionError("bb started work on a field past the budget")
        monkeypatch.setattr(numerics, "grid_points", refuse)
        monkeypatch.setattr(numerics, "monomials_of_degree", refuse)
        out = tmp_path / "r.json"
        code = main(["experiment", "bb", "--N", "4", "--k", "30", "--grid", "16",
                     "--out", str(out)])
        assert code == 3
        size = "16^4 = 65536 points x 5456 components x 4 derivatives in doubles = 11442061312 bytes"
        assert size in capsys.readouterr().out
        rep = read(out)
        assert rep["status"] == "FIELD_BUDGET_EXCEEDED" and size in rep["results"]["detail"]


class TestDoubleRange:
    """An operator entry past the double range is an input error of every
    experiment on operators: exit 4 naming the operator, the multi-index and
    the entry, before any sampling. A nonzero entry whose double is 0.0 is
    named in the report's notes."""

    HUGE, TINY = "1" + "0" * 400, "1/1" + "0" * 400

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment started work on an entry past the double range")

    def write(self, path, op, entry=None, weights=None):
        data = op_to_dict(op)
        if entry is not None:
            term, i, j, value = entry
            data["terms"][term]["matrix"][i][j] = value
        if weights is not None:
            data["weights"] = weights
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("kind,where", [
        ("korn2", "the coefficient of multi-index (1, 0) at entry [0][0]"),
        ("sobolev", "the coefficient of multi-index (1, 0) at entry [0][0]"),
        ("korn2", "weights[1]"),
        ("sobolev", "weights[1]"),
    ])
    def test_past_the_double_range_exits_4(self, ops_dir, tmp_path, capsys, monkeypatch,
                                           kind, where):
        # terms[1] of gradient(2) is the multi-index (1, 0)
        entry = (1, 0, 0, self.HUGE) if where.startswith("the") else None
        weights = ["1", self.HUGE] if where.startswith("weights") else None
        calA = self.write(tmp_path / "big.json", catalog("gradient", 2), entry, weights)
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        A = calA if kind == "korn2" else str(ops_dir / "id2.json")
        for name in ("kernel_inclusion", "grid_points", "random_trig_field"):
            monkeypatch.setattr(numerics, name, self.refuse)
        code = main(["experiment", kind, "-a", calA, "-A", A, "--trials", "5", "--grid", "8",
                     "--mode", "korn" if kind == "korn2" else "sobolev"])
        err = capsys.readouterr().err
        assert code == 4 and "Traceback" not in err
        assert f"input error: operator 'gradient': {where} is past the double range" in err

    def test_blowup_past_the_double_range_exits_4(self, ops_dir, tmp_path, capsys, monkeypatch):
        A = self.write(tmp_path / "big.json", grad_power(1, 2, 2), (0, 1, 1, "-" + self.HUGE))
        monkeypatch.setattr(numerics, "grid_points", self.refuse)
        code = main(["experiment", "blowup", "-a", str(ops_dir / "div2.json"), "-A", A,
                     "--grid", "64"])
        err = capsys.readouterr().err
        assert code == 4 and "Traceback" not in err
        assert ("operator 'D^1': the coefficient of multi-index (0, 1) at entry [1][1] is "
                "past the double range") in err

    def test_an_underflowing_entry_is_noted(self, ops_dir, tmp_path):
        tiny = DiffOp("tiny id", 2, 1, 1, 0, {(0, 0): [[Fraction(1, 10 ** 400)]]})
        A = self.write(tmp_path / "tiny.json", tiny)
        out = tmp_path / "r.json"
        code = main(["experiment", "sobolev", "--mode", "sobolev", "-a",
                     str(ops_dir / "gradient2.json"), "-A", A, "--trials", "5", "--grid", "8",
                     "--out", str(out)])
        rep = read(out)
        # the status and values are those of the zero field the doubles hold
        assert code == 2 and rep["status"] == "UNSTABLE"
        assert rep["results"]["experiment"]["summary"]["max_ratio"] == 0.0
        assert rep["results"]["experiment"]["notes"] == [
            "no closed-form constant is available in this regime",
            "operator 'tiny id': the coefficient of multi-index (0, 0) at entry [0][0] is "
            "nonzero but its double is 0.0"]

    def test_korn2_notes_an_underflowing_weight(self, ops_dir, tmp_path):
        A = self.write(tmp_path / "w.json", grad_power(1, 2, 2), weights=["1", self.TINY, "1", "1"])
        out = tmp_path / "r.json"
        code = main(["experiment", "korn2", "-a", str(ops_dir / "symgrad2.json"), "-A", A,
                     "--trials", "20", "--out", str(out)])
        assert code == 0
        assert read(out)["results"]["notes"] == [
            "certified-by-Parseval reduction at p = 2 only",
            "operator 'D^1': weights[1] is nonzero but its double is 0.0"]

    def test_a_failed_experiment_keeps_the_underflow_notes(self, ops_dir, tmp_path):
        # the weight 0.0 hides the first row of sym_gradient(2), so the
        # quotient norm runs past 1e6
        calA = self.write(tmp_path / "w.json", catalog("sym_gradient", 2),
                          weights=[self.TINY, "1", "2"])
        out = tmp_path / "r.json"
        code = main(["experiment", "korn2", "-a", calA, "-A", str(ops_dir / "fullgrad2.json"),
                     "--trials", "50", "--out", str(out)])
        rep = read(out)
        assert code == 2 and rep["status"] == "UNBOUNDED_SUSPECTED"
        assert rep["results"] == {
            "detail": "running supremum exceeded 1e6",
            "notes": ["operator 'sym_gradient': weights[0] is nonzero but its double is 0.0"]}

    @pytest.mark.parametrize("big,term,argv,code,status", [
        # bilaplacian(2) lacks complex constant rank
        ("d2_laplacian", 0, ["blowup", "-a", "bilap2.json", "-A", "big.json", "--grid", "64"],
         2, "HYPOTHESES_NOT_MET"),
        ("gradient", 1, ["sobolev", "--mode", "sobolev", "-a", "big.json", "-A", "id2.json",
                         "--grid", "600"], 3, "GRID_BUDGET_EXCEEDED"),
    ])
    def test_a_failure_before_the_conversion_keeps_its_exit_code(self, ops_dir, tmp_path, big,
                                                                term, argv, code, status):
        # the experiment fails before it converts the entry past the double
        # range; the report adds no note, and the exit code is not 4
        self.write(ops_dir / "big.json", catalog(big, 2), (term, 0, 0, self.HUGE))
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        out = tmp_path / "r.json"
        argv = [str(ops_dir / a) if a.endswith(".json") else a for a in argv]
        assert main(["experiment", *argv, "--out", str(out)]) == code
        rep = read(out)
        assert rep["status"] == status and "notes" not in rep["results"]


class TestReportPaths:
    """Each way a report command can end: exit code, summary line, report
    status and results. Library calls are replaced in ``symcheck.cli`` where
    the real operators would not reach that ending."""

    def run(self, capsys, tmp_path, argv):
        out = tmp_path / "r.json"
        code = main([*argv, "--out", str(out)])
        return code, capsys.readouterr().out.splitlines(), read(out)

    def pair(self, ops_dir, calA="div2.json", A="fullgrad2.json"):
        return ["-a", str(ops_dir / calA), "-A", str(ops_dir / A)]

    def sobolev(self, ops_dir):
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        return ["experiment", "sobolev", "--mode", "sobolev",
                *self.pair(ops_dir, "gradient2.json", "id2.json")]

    @staticmethod
    def raising(exc):
        def fn(*args, **kwargs):
            raise exc
        return fn

    def test_blowup_grid_below_nyquist_exit_4(self, ops_dir, tmp_path, capsys):
        code, lines, rep = self.run(capsys, tmp_path, [
            "experiment", "blowup", *self.pair(ops_dir), "--grid", "16"])
        detail = "grid 16 too coarse for mode 8 (need >= 64)"
        assert code == 4
        assert lines == [f"NYQUIST_VIOLATION: {detail}"]
        assert rep["status"] == "NYQUIST_VIOLATION"
        assert rep["results"] == {"detail": detail}

    def test_compare_witness_budget_exit_3(self, ops_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_witness",
                            self.raising(analysis.SampleBudgetExceeded(None)))
        code, lines, rep = self.run(capsys, tmp_path, ["compare", *self.pair(ops_dir)])
        assert code == 3
        assert lines == ["inclusion fails but witness search exhausted its budget"]
        assert rep["status"] == "SAMPLE_BUDGET_EXCEEDED"
        assert rep["results"] == {"inclusion_holds": False, "rank": 1, "minors_checked": 10}

    def test_blowup_witness_budget_exit_3(self, ops_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_witness",
                            self.raising(analysis.SampleBudgetExceeded(None)))
        code, lines, rep = self.run(capsys, tmp_path, [
            "experiment", "blowup", *self.pair(ops_dir)])
        assert code == 3
        assert lines == ["SAMPLE_BUDGET_EXCEEDED"]
        assert rep["status"] == "SAMPLE_BUDGET_EXCEEDED"
        assert rep["results"] == {}

    def test_korn2_unbounded_exit_2(self, ops_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "korn_constant_p2",
                            self.raising(numerics.UnboundedSuspected("sup above 1e6")))
        code, lines, rep = self.run(capsys, tmp_path, [
            "experiment", "korn2", *self.pair(ops_dir, "symgrad2.json")])
        assert code == 2
        assert lines == ["UNBOUNDED_SUSPECTED: sup above 1e6"]
        assert rep["status"] == "UNBOUNDED_SUSPECTED"
        assert rep["results"] == {"detail": "sup above 1e6"}
        assert set(rep["operators"]) == {"calA", "A"}

    def test_sobolev_ill_conditioned_exit_4(self, ops_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sobolev_ratio_experiment",
                            self.raising(numerics.IllConditionedQuotient("raise the grid")))
        code, lines, rep = self.run(capsys, tmp_path, self.sobolev(ops_dir))
        assert code == 4
        assert lines == ["ILL_CONDITIONED_QUOTIENT: raise the grid"]
        assert rep["status"] == "ILL_CONDITIONED_QUOTIENT"
        assert rep["results"] == {"detail": "raise the grid"}
        assert rep["config"]["p"] == 1.0

    def test_sobolev_unstable_exit_2(self, ops_dir, tmp_path, capsys, monkeypatch):
        exp = numerics.ExperimentReport(
            name="sobolev_ratio_experiment", parameters={"p": 1.0},
            summary={"max_ratio": 1.5, "max_ratio_refined": 2.25}, status="UNSTABLE")
        monkeypatch.setattr(cli, "sobolev_ratio_experiment", lambda *a, **k: exp)
        code, lines, rep = self.run(capsys, tmp_path, self.sobolev(ops_dir))
        assert code == 2
        assert lines == ["sobolev ratios: max 1.500000 (refined 2.250000), status UNSTABLE"]
        assert rep["status"] == "UNSTABLE"
        assert rep["results"] == {"experiment": exp.to_dict()}


class TestUnusablePaths:
    """An operator path that is not a readable UTF-8 file, or an --out that
    cannot be written, exits 4 with the path on stderr, never a traceback."""

    def run(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("input error:") and "Traceback" not in err
        return err

    def test_analyze_a_directory(self, ops_dir, capsys):
        assert str(ops_dir) in self.run(capsys, ["analyze", "--op", str(ops_dir)])

    def test_compare_a_directory(self, ops_dir, capsys):
        err = self.run(capsys, ["compare", "-a", str(ops_dir),
                                "-A", str(ops_dir / "gradient2.json")])
        assert str(ops_dir) in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert str(path) in self.run(capsys, ["analyze", "--op", str(path)])

    @pytest.mark.parametrize("argv", [
        ["analyze", "--op", "gradient2.json"],
        ["compare", "-a", "symgrad2.json", "-A", "fullgrad2.json"],
        ["experiment", "bb", "--trials", "2", "--grid", "8"],
    ])
    def test_report_into_a_missing_directory(self, ops_dir, tmp_path, capsys, argv):
        argv = [str(ops_dir / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "missing" / "r.json"
        assert str(out) in self.run(capsys, [*argv, "--out", str(out)])

    def test_catalog_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.json"
        assert str(out) in self.run(capsys, ["catalog", "gradient", "--N", "2",
                                             "--out", str(out)])

    @pytest.mark.parametrize("N", ["0", "-1"])
    def test_catalog_dimension_below_1(self, capsys, N):
        assert "N must be at least 1" in self.run(
            capsys, ["catalog", "div_k", "--N", N, "--k", "1"])


class TestCatalogCommand:
    def test_writes_an_operator_file(self, tmp_path):
        out = tmp_path / "op.json"
        assert main(["catalog", "sym_gradient", "--N", "2",
                     "--out", str(out)]) == 0
        assert main(["analyze", "--op", str(out),
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_unknown_name(self):
        assert main(["catalog", "nonsense", "--N", "2"]) == 4

    def test_div_k_past_the_budget_exits_3(self, capsys, monkeypatch):
        # --N 3 --k 400 has C(402, 2) = 80601 components: refused before the
        # monomials are listed
        def refuse(*args):
            raise AssertionError("div_k started work past the budget")
        monkeypatch.setattr(operators, "monomials_of_degree", refuse)
        start = time.perf_counter()
        code = main(["catalog", "div_k", "--N", "3", "--k", "400"])
        assert time.perf_counter() - start < 0.5
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "80601 components" in err

    def test_div_k_in_more_variables_than_the_recursion_limit(self, tmp_path):
        out = tmp_path / "dk.json"
        assert main(["catalog", "div_k", "--N", "2000", "--k", "0", "--out", str(out)]) == 0
        op = operators.load_op(out)
        assert (op.N, op.d, op.l, op.k) == (2000, 1, 1, 0)

    @pytest.mark.parametrize("name,N,size", [("gradient", "3000", "18000000"),
                                             ("d2_laplacian", "24", "4154400")])
    def test_past_the_integer_budget_exits_3(self, capsys, monkeypatch, name, N, size):
        # refused before the N variables are built
        def refuse(*args):
            raise AssertionError("catalog started work past the budget")
        monkeypatch.setattr(operators.MultiPoly, "variable", refuse)
        start = time.perf_counter()
        code = main(["catalog", name, "--N", N])
        assert time.perf_counter() - start < 0.5
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and f"stores {size} integers" in err

    def test_div_k_negative_order_names_k(self, capsys):
        assert main(["catalog", "div_k", "--N", "3", "--k", "-1"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "k to be nonnegative, got k = -1" in err


class TestRepeatedCalls:
    def test_options_do_not_leak_between_calls(self, ops_dir, tmp_path, capsys):
        # one process may run many commands; the second sees only its own
        # options and the defaults
        save_op(grad_power(0, 1, 2), ops_dir / "id2.json")
        out = tmp_path / "sobolev.json"
        main(["experiment", "sobolev", "-a", str(ops_dir / "gradient2.json"),
              "-A", str(ops_dir / "id2.json"), "--mode", "sobolev", "--s-max", "2",
              "--trials", "2", "--grid", "8", "--out", str(out)])
        assert out.exists()
        capsys.readouterr()
        assert main(["compare", "-a", str(ops_dir / "symgrad2.json"),
                     "-A", str(ops_dir / "fullgrad2.json")]) == 0
        stdout = capsys.readouterr().out
        config = json.loads(stdout[stdout.index("{"):])["config"]
        assert config["mode"] == "korn" and config["s_max"] == 6


class TestDeterminism:
    def test_analyze_reports_are_byte_identical(self, ops_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["analyze", "--op", str(ops_dir / "gradient2.json"),
                  "--seed", "3", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_experiment_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["experiment", "bb", "--k", "1", "--N", "2", "--trials", "40",
                  "--grid", "32", "--seed", "11", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# the exit-code contract under fuzzing: mutated catalog files through every
# command that reads operators
# ---------------------------------------------------------------------------

# the words an input error may name a field by
FIELD_WORDS = re.compile(r"\b(name|N|d|l|k|terms|alpha|matrix|weights|multi-index)\b")
# an integer literal past Python's digit limit, written into the JSON text
LONG_LITERAL = "1" + "0" * 5000
REPLACEMENTS = [
    None, True, False, 0, -1, 2, 3, 10 ** 30, -(10 ** 30), 1.5, LONG_LITERAL, "", "x",
    "1/0", "0/0", [], {}, [1, 0], ["1"], {"alpha": [1, 0]},
]
# rationals that keep the file valid: past the double range, below it, zero
ENTRIES = ["1" + "0" * 400, "-1" + "0" * 400, "1/1" + "0" * 400, "0", "-7/3", "123456789/2"]


@st.composite
def mutated_operator(draw):
    """A catalog operator as a JSON-ready dict with one mutation: a matrix
    entry or weight set to a valid but extreme rational, or one place
    dropped, replaced, nested in a list or an object, or repeated. Returns
    the base name and the dict."""
    name = draw(st.sampled_from(["gradient", "sym_gradient", "divergence"]))
    data = op_to_dict(catalog(name, 2))
    entries = [(row, c) for term in data["terms"] for row in term["matrix"]
               for c in range(len(row))]
    entries += [(data["weights"], j) for j in range(len(data.get("weights", [])))]
    places = [(data, key) for key in ("name", "N", "d", "l", "k", "terms", "weights")] + entries
    for i, term in enumerate(data["terms"]):
        places += [(data["terms"], i), (term, "alpha"), (term, "matrix")]
        places += [(term["alpha"], j) for j in range(len(term["alpha"]))]
        places += [(term["matrix"], r) for r in range(len(term["matrix"]))]
    action = draw(st.sampled_from(["entry", "drop", "replace", "replace", "nest", "repeat"]))
    container, key = draw(st.sampled_from(entries if action == "entry" else places))
    if action == "entry":
        container[key] = draw(st.sampled_from(ENTRIES))
    elif action == "drop":
        if isinstance(container, dict):
            container.pop(key, None)
        else:
            del container[key]
    elif action == "replace":
        container[key] = draw(st.sampled_from(REPLACEMENTS))
    elif isinstance(container, list) or key in container:
        value = container[key]
        if action == "nest":
            container[key] = draw(st.sampled_from([[value], {"value": value}]))
        elif isinstance(container, list):
            container.insert(key, value)
        else:
            container[key] = [value, value]
    return name, data


def _edited(name, path, value):
    """A catalog entry's dict with the value at ``path`` replaced."""
    data = op_to_dict(catalog(name, 2))
    container = data
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    return name, data


class TestExitCodeFuzz:
    """Every command on a mutated operator file returns 0, 2, 3 or 4 and
    raises nothing; an input error names a field of the file."""

    # a partner of each catalog entry: korn pairs (same order) and sobolev
    # pairs (order one less)
    PARTNERS = {"gradient": (catalog("gradient", 2), grad_power(0, 1, 2)),
                "sym_gradient": (grad_power(1, 2, 2), grad_power(0, 2, 2)),
                "divergence": (grad_power(1, 2, 2), grad_power(0, 2, 2))}

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutated_operator(),
           st.sampled_from(["analyze", "compare", "korn2", "blowup", "sobolev"]),
           st.booleans())
    # the findings this harness made: tracebacks (exit 1) before they were mended
    @example(_edited("gradient", ("N",), LONG_LITERAL), "analyze", False)
    @example(_edited("gradient", ("terms", 1, "matrix", 0, 0), ENTRIES[0]), "korn2", False)
    @example(_edited("sym_gradient", ("weights", 0), ENTRIES[1]), "sobolev", False)
    @example(_edited("divergence", ("terms", 0, "matrix", 0, 1), ENTRIES[0]), "blowup", False)
    def test_mutated_catalog_files(self, tmp_path, capsys, mutated, command, outer):
        name, data = mutated
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data).replace(f'"{LONG_LITERAL}"', LONG_LITERAL))
        korn, sobolev = self.PARTNERS[name]
        partner = tmp_path / "partner.json"
        save_op(sobolev if command == "sobolev" else korn, partner)
        # the mutated file is the outer operator A only where it keeps the order
        pair = (["-a", str(partner), "-A", str(path)] if outer and command != "sobolev"
                else ["-a", str(path), "-A", str(partner)])
        argv = {
            "analyze": ["analyze", "--op", str(path)],
            "compare": ["compare", *pair],
            "korn2": ["experiment", "korn2", *pair, "--trials", "5"],
            "blowup": ["experiment", "blowup", *pair, "--grid", "64"],
            "sobolev": ["experiment", "sobolev", "--mode", "sobolev", *pair,
                        "--trials", "3", "--grid", "4"],
        }[command]
        capsys.readouterr()
        code = main(argv + ["--out", str(tmp_path / "report.json")])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 4 and not out.startswith(("NYQUIST_VIOLATION", "ILL_CONDITIONED_QUOTIENT")):
            assert err.startswith("input error: ") and FIELD_WORDS.search(err), err
