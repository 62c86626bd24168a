"""Inputs and operation lists of the three workloads.

A workload is a fixed list of operations. ``build`` writes the workload's
operator files into a directory and returns the list; the same seed gives
the same files and the same list. Every operation goes through the
program's public surface: ``symcheck.cli.main(argv)`` for the commands, and
the public functions of ``symcheck.analysis`` for the library-only
certificates. Functions are looked up on their modules at call time, so a
tracer that wraps them from outside sees every call.

Each operation carries the check of its output (see ``checks.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from symcheck import analysis, cli, exact, operators

@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    report: str
    value: object = None  # the result of a library call

    @property
    def crashed(self) -> bool:
        """An exception escaped the program: the command would exit 1."""
        return self.code == 1

    def fingerprint(self) -> str:
        return "\n".join([str(self.code), self.stdout, self.stderr, self.report,
                          canon(self.value)])


@dataclass
class Operation:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], None]


def canon(x) -> str:
    """Deterministic text of a library result, for comparing passes."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + canon({f.name: getattr(x, f.name)
                                         for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}"
                              for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    for attr in ("terms", "entries"):  # MultiPoly and DiffOp; ScalarMatrix
        if hasattr(x, attr):
            return canon(getattr(x, attr))
    return repr(x)


def cli_op(label, argv, out_path, check) -> Operation:
    def run():
        out_path.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv + ["--out", str(out_path)])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # the console script would print this and exit 1
                traceback.print_exc()
                code = 1
        report = out_path.read_text() if out_path.exists() else ""
        return Outcome(code, stdout.getvalue(), stderr.getvalue(), report)

    return Operation(label, run, check)


def lib_op(label, fn, check) -> Operation:
    def run():
        try:
            return Outcome(0, "", "", "", fn())
        except Exception:
            return Outcome(1, "", traceback.format_exc(), "")

    return Operation(label, run, lambda o: check(o.value))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def tf_sym_gradient(N: int):
    """Trace-free symmetric gradient: rows e_ii - div/N (i < N-1) and e_ij."""
    pairs = [(i, i) for i in range(N - 1)] + [
        (i, j) for i in range(N) for j in range(i + 1, N)]
    terms: dict = {}
    for r, (i, j) in enumerate(pairs):
        for var in range(N):
            m = terms.setdefault(tuple(int(v == var) for v in range(N)),
                                 [[Fraction(0)] * N for _ in pairs])
            if i == j:
                m[r][var] += int(var == i) - Fraction(1, N)
            elif var in (i, j):
                m[r][j if var == i else i] += Fraction(1, 2)
    return operators.DiffOp("tf_sym_gradient", N, N, len(pairs), 1, terms)


def random_op(rng, name, N, d, l, k, planted=None, definite=False):
    """Every coefficient of every multi-index drawn from +-{1, 2, 3}, so the
    cost of an operator depends on its shape, not on its seed.

    ``planted``: a nonzero integer point at which every entry is made to
    vanish (by adjusting the xi_j^k coefficient, p_j != 0), so that the
    symbol drops rank at a real rational point.
    ``definite``: the first entry of an order-2 operator becomes a
    diagonally dominant, hence positive definite, quadratic form, so the
    symbol has no real rank drop at all.
    """
    alphas = exact.monomials_of_degree(N, k)
    terms = {a: [[Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(d)]
                 for _ in range(l)] for a in alphas}
    if definite:
        for a in alphas:
            terms[a][0][0] = Fraction(rng.randint(3, 5) if max(a) == 2 else rng.choice((-1, 1)))
    if planted is not None:
        j = next(i for i, c in enumerate(planted) if c)
        pure = tuple(k if i == j else 0 for i in range(N))
        for i in range(l):
            for c in range(d):
                value = sum(terms[a][i][c] * _mono(planted, a) for a in alphas)
                terms[pure][i][c] -= value / planted[j] ** k
    return operators.DiffOp(name, N, d, l, k, terms)


def _mono(point, alpha):
    out = 1
    for x, e in zip(point, alpha):
        out *= x ** e
    return out


def _random_field(rng, N, d, degree=3, n_terms=4):
    """Polynomial field u (d components) as coefficient dicts."""
    field = []
    for _ in range(d):
        p = {}
        for _ in range(n_terms):
            e = [0] * N
            for _ in range(rng.randint(1, degree)):
                e[rng.randrange(N)] += 1
            p[tuple(e)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        field.append(p)
    return field


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Mathematical facts about the catalog symbols: generic rank, complex
# constant rank, ellipticity over C and over R, and dim W (the intersection
# of the images over real xi != 0). Real constant rank holds for all of them.
#   gradient xi: images span(xi) meet in 0.  divergence, scalar curl: l < d,
#   image R.  curl(3): kernel span(xi) at every complex xi != 0, image xi^perp.
#   (tf-)sym_gradient: C-elliptic, cancelling.  laplacian, bilaplacian,
#   cauchy_riemann (det = |xi|^2): vanish at xi = (1, i), full real images.
#   d2_laplacian: rows xi_i xi_j |xi|^2, images span(xi (x) xi) meet in 0.
TRUTH = {
    ("gradient", 2): (1, True, True, True, 0),
    ("gradient", 3): (1, True, True, True, 0),
    ("divergence", 2): (1, True, False, False, 1),
    ("divergence", 3): (1, True, False, False, 1),
    ("curl", 2): (1, True, False, False, 1),
    ("curl", 3): (2, True, False, False, 0),
    ("sym_gradient", 2): (2, True, True, True, 0),
    ("sym_gradient", 3): (3, True, True, True, 0),
    ("tf_sym_gradient", 3): (3, True, True, True, 0),
    ("laplacian", 2): (1, False, False, True, 1),
    ("bilaplacian", 2): (1, False, False, True, 1),
    ("d2_laplacian", 2): (1, False, False, True, 0),
    ("cauchy_riemann", 2): (2, False, False, True, 2),
}


def _truth(name, N):
    rho, const_c, ell_c, ell_r, dim_w = TRUTH[(name, N)]
    return {"generic_rank": rho, "constant_rank_C": const_c, "elliptic_C": ell_c,
            "elliptic_R": ell_r, "real_constant_rank": True, "dim_W": dim_w}


class Inputs:
    """Writes operator files into ``workdir`` and collects operations."""

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: list[Operation] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def save(self, op, name) -> Path:
        path = self.dir / f"{name}.json"
        operators.save_op(op, path)
        return path

    def catalog(self, name, N) -> Path:
        return self.save(operators.catalog(name, N), f"{name}{N}")

    def grad(self, N, s=1, e=None) -> Path:
        return self.save(operators.grad_power(s, e or N, N), f"D{s}_{e or N}_{N}")

    def cli(self, label, argv, check):
        out = self.dir / f"out-{len(self.ops)}.json"
        self.ops.append(cli_op(label, argv + ["--seed", str(self.seed)], out, check))

    def lib(self, label, fn, check):
        self.ops.append(lib_op(label, fn, check))

    def analyze(self, label, path, truth):
        seed = self.seed
        self.cli(f"analyze {label}", ["analyze", "--op", str(path)],
                 lambda o: checks.check_analyze(o, path, truth(), seed))

    def compare(self, label, a, A, check):
        self.cli(f"compare {label}", ["compare", "-a", str(a), "-A", str(A)], check)


def _certify(b: Inputs):
    for name, N in [("gradient", 2), ("gradient", 3), ("divergence", 2),
                    ("divergence", 3), ("curl", 2), ("curl", 3),
                    ("sym_gradient", 2), ("sym_gradient", 3)]:
        b.analyze(f"{name}({N})", b.catalog(name, N), lambda n=name, N=N: _truth(n, N))
    tf3 = b.save(tf_sym_gradient(3), "tf_sym_gradient3")
    b.analyze("tf_sym_gradient(3)", tf3, lambda: _truth("tf_sym_gradient", 3))
    # complex-elliptic order-2 operators in N = 3: three or more quadrics
    for i, l in enumerate((3, 3, 4)):
        path = b.save(random_op(b.rng, f"elliptic{i}", 3, 1, l, 2), f"elliptic{i}")
        b.analyze(f"random elliptic {l}x1 order 2 #{i}", path,
                  lambda p=path: checks.oracle_profile(checks.read_op(p), b.seed))
    for N in (2, 3):
        a, D = b.catalog("sym_gradient", N), b.grad(N)
        b.compare(f"sym_gradient({N}) -> D", a, D,
                  lambda o, a=a, D=D: checks.check_factorization(o, a, D, 1))
    D3 = b.grad(3)
    b.compare("tf_sym_gradient(3) -> D", tf3, D3,
              lambda o: checks.check_factorization(o, tf3, D3, 2))
    # random order-1 pairs in N = 3: a 4x2 calA (complex-elliptic, so every
    # A is included) against a 2x2 A
    for i in range(2):
        a = b.save(random_op(b.rng, f"calA{i}", 3, 2, 4, 1), f"pair{i}-calA")
        A = b.save(random_op(b.rng, f"A{i}", 3, 2, 2, 1), f"pair{i}-A")

        def check(o, a=a, A=A):
            checks.check_inclusion_holds(a, A, b.seed)
            checks.check_factorization(o, a, A)

        b.compare(f"random pair #{i} 4x2 -> 2x2 order 1", a, A, check)
    for N in (2, 3):
        path = b.catalog("sym_gradient", N)
        u = _random_field(b.rng, N, N)
        target = checks.apply_to_field(checks.read_op(path), u)
        _certificates(b, f"sym_gradient({N})", path, target)


def _certificates(b: Inputs, label, path, target):
    seed = b.seed

    def annihilator():
        return analysis.construct_annihilator(operators.load_op(path), seed=seed)

    def cbeta():
        op = operators.load_op(path)
        ann = analysis.construct_annihilator(op, seed=seed)
        W = analysis.compute_W(op, seed=seed).W_basis
        return ann, W, analysis.construct_Cbeta(ann, W, op.l)

    def lift():
        op = operators.load_op(path)
        pi = [exact.MultiPoly(op.N, p) for p in target]
        return analysis.polynomial_lift(op, pi)

    b.lib(f"construct_annihilator {label}", annihilator,
          lambda v: checks.check_annihilator(v, path, seed))
    b.lib(f"construct_Cbeta {label}", cbeta, lambda v: checks.check_cbeta(v, path, 0))
    b.lib(f"polynomial_lift {label}", lift, lambda v: checks.check_lift(v, path, target))


def _refute(b: Inputs):
    for name in ("laplacian", "bilaplacian", "d2_laplacian", "cauchy_riemann"):
        b.analyze(f"{name}(2)", b.catalog(name, 2), lambda n=name: _truth(n, 2))
    # two quadrics in N = 3 always share complex zeros. Two pencils get a
    # definite first quadric, so they have no real zero and real-rank
    # sampling runs its whole budget; two get a planted real rational zero
    # in [-3, 3]^3, which the sampling grid finds (CERTIFIED_NO)
    for i in range(4):
        planted = None
        if i >= 2:
            while not any(planted or ()):
                planted = tuple(b.rng.randint(-3, 3) for _ in range(3))
        path = b.save(random_op(b.rng, f"pencil{i}", 3, 1, 2, 2, planted, definite=i < 2),
                      f"pencil{i}")

        def truth(p=path, planted=planted):
            t = checks.oracle_profile(checks.read_op(p), b.seed)
            if planted:
                return dict(t, elliptic_R=False)
            return dict(t, elliptic_R=True, real_constant_rank=True)

        b.analyze(f"random 2x1 order 2 #{i}" + (" (planted)" if planted else " (definite)"),
                  path, truth)
        if planted:
            seed = b.seed
            b.lib(f"rank_profile planted #{i}",
                  lambda p=path: analysis.rank_profile(operators.load_op(p), seed=seed),
                  lambda v, p=path, t=truth: checks.check_refuted_profile(v, p, t()))
    for name, N in [("divergence", 2), ("divergence", 3), ("curl", 3)]:
        a, D = b.catalog(name, N), b.grad(N)
        b.compare(f"{name}({N}) -> D", a, D,
                  lambda o, a=a, D=D: checks.check_witness(o, a, D))
    b.compare("bilaplacian(2) -> d2_laplacian(2)", b.catalog("bilaplacian", 2),
              b.catalog("d2_laplacian", 2), checks.check_hypotheses_not_met)
    grad2 = operators.op_to_dict(operators.catalog("gradient", 2))
    grad2["terms"][0].pop("matrix")
    no_matrix = grad2
    int_entries = operators.op_to_dict(operators.catalog("gradient", 2))
    int_entries["terms"][0]["matrix"] = [[1], [0]]
    terms_object = operators.op_to_dict(operators.catalog("gradient", 2))
    terms_object["terms"] = terms_object["terms"][0]
    for label, data, field in [("terms entry without matrix", no_matrix, "matrix"),
                               ("integer matrix entries", int_entries, "matrix"),
                               ("terms given as an object", terms_object, "terms")]:
        path = b.dir / f"malformed-{field}-{len(b.ops)}.json"
        path.write_text(json.dumps(data))
        b.cli(f"malformed: {label}", ["analyze", "--op", str(path)],
              lambda o, f=field: checks.check_input_error(o, f))


def _numerics(b: Inputs):
    for N in (2, 3):
        a, D = b.catalog("sym_gradient", N), b.grad(N)
        b.cli(f"korn2 sym_gradient({N}) -> D",
              ["experiment", "korn2", "-a", str(a), "-A", str(D)], checks.check_korn2)
    div, D2 = b.catalog("divergence", 2), b.grad(2)
    b.cli("blowup divergence(2) -> D", ["experiment", "blowup", "-a", str(div), "-A", str(D2),
                                         "--grid", "256"],
          lambda o: checks.check_blowup(o, div, D2))
    b.cli("bb k=1 N=2", ["experiment", "bb", "--k", "1", "--N", "2", "--trials", "1000",
                         "--grid", "32"], checks.check_bb)
    grad, ident = b.catalog("gradient", 2), b.grad(2, s=0, e=1)
    b.cli("sobolev gradient(2) -> id", ["experiment", "sobolev", "-a", str(grad), "-A", str(ident),
                                         "--mode", "sobolev", "--p", "1", "--grid", "32",
                                         "--trials", "100"], checks.check_sobolev)


def build(workload: str, seed: int, workdir: Path) -> list[Operation]:
    b = Inputs(workdir, seed)
    {"certify": _certify, "refute": _refute, "numerics": _numerics}[workload](b)
    return b.ops
