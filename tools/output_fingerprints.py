"""Print one fingerprint per benchmark operation, to compare two checkouts.

    python3 tools/output_fingerprints.py CHECKOUT SEED [SEED ...]

Imports ``symcheck`` from ``CHECKOUT/src`` and the workloads from this
checkout's ``perfbench/``, runs every operation of every workload once and
prints ``workload seed label sha256`` lines, the hash taken over the exit
code, stdout, stderr, report and library value. Inputs are written to one
fixed directory, so the paths inside the reports are the same for any two
checkouts; two runs whose outputs are equal print equal lines. A library
value is hashed as ``perfbench/workloads.canon`` writes it, except that the
terms of a polynomial or an operator keep their insertion order, so a
kernel that reorders the terms of a result shows as a diff.

First it prints one ``catalog NAME N k sha256`` line for each catalog entry
of a fixed grid (``k`` is ``-`` when not given), the hash taken over the
serialized operator or the error text; the benchmark builds only a few
catalog entries. Then it prints one ``certificate LABEL STEP sha256`` line
for each of ``annihilator``, ``W`` and ``Cbeta`` (``construct_annihilator``,
``compute_W`` and ``construct_Cbeta``) on every catalog entry of that grid
in N = 2 and 3 and on a few seeded random operators, the hash taken over
the canonical text of the result or the error text; the benchmark builds
these certificates for two operators only. Last come ``lift LABEL sha256``
lines: ``polynomial_lift`` of a seeded target of each degree 0 to 4 in the
image of each of those catalog entries, and of one target that is not in
the image, hashed the same way; the benchmark lifts two targets per seed.
Then ``factorization LABEL sha256`` lines hash, the same way, ``construct_L``
(with the serialized L) on every korn pair (equal N, d and order) and
sobolev pair among those catalog entries, full gradients and identities, on
the trace-free symmetric gradient in N = 3 against D (s = 2) and on the
random 4x2 and 1x2 pairs of order 2 in N = 3 drawn from random.Random(1),
(2) and (3) (s = 4); a benchmark pass builds six (five in certify, one in
numerics). Then ``wide LABEL sha256`` lines hash inputs wider than the
benchmark's: ``symcheck analyze`` of the random 8x4 order-1 operator in
N = 3 drawn from random.Random(1) (exit code, output and report, as for a
benchmark operation), and ``zero_dim_origin`` of three dense quartics in
N = 3 with seeded rational coefficients, once as drawn (only the origin)
and once made to vanish at (1, 2, -1).
Then ``numerics LABEL sha256`` lines hash, the same way, parameters the
benchmark never runs: ``korn_constant_p2`` with 500 samples and seeds 0
and 1 on the pairs of ``TestBitIdentity`` whose kernel inclusion holds,
with 2 samples (so that refinement rounds restart) and seeds 0 and 1 on
sym_gradient(2) -> curl(2) and the hessian/random pair, and with 500
samples on gradient(1) -> gradient(1) (every refinement skipped),
``bb_ratio_experiment`` with 50 trials on four small grids,
``sobolev_ratio_experiment`` on gradient(3) -> id with p = 1 and 2 and on
gradient(2) -> id with grid 8, and ``counterexample_blowup`` on curl(3) -> D
and divergence(3) -> D with modes 1, 2, 4 on a grid of 32.
"""

import argparse
import dataclasses
import hashlib
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(tempfile.gettempdir()) / "symcheck-output-fingerprints"

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("checkout", type=Path)
parser.add_argument("seeds", type=int, nargs="+")
args = parser.parse_args()
src = args.checkout.resolve() / "src"
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"  # as perfbench/run.py
sys.path[:0] = [str(src), str(ROOT / "perfbench")]
import symcheck  # noqa: E402
import workloads  # noqa: E402
from symcheck import analysis, groebner, numerics  # noqa: E402
from symcheck.exact import MultiPoly, monomials_of_degree  # noqa: E402
from symcheck.operators import (  # noqa: E402
    DiffOp, OperatorFormatError, OperatorPair, catalog, grad_power, save_op, serialize_op)

if not Path(symcheck.__file__).resolve().is_relative_to(src):
    sys.exit(f"symcheck imported from {symcheck.__file__}, not from {src}")

# a fixed list of names, so that a name added later does not show as a diff
CATALOG_GRID = [(name, N, None) for name in (
    "gradient", "divergence", "curl", "sym_gradient", "laplacian", "bilaplacian",
    "cauchy_riemann", "d2_laplacian", "div_k") for N in range(1, 5)] + [
    ("div_k", N, k) for N in range(1, 5) for k in range(6)]
certificate_ops = []  # (label, operator): the grid's entries in N = 2 and 3
for name, N, k in CATALOG_GRID:
    try:
        op = catalog(name, N, k)
        text = serialize_op(op)
        if N in (2, 3):
            certificate_ops.append((f"{name}/{N}/{'-' if k is None else k}", op))
    except OperatorFormatError as exc:
        text = f"OperatorFormatError: {exc}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    print("catalog", name, N, "-" if k is None else k, digest, flush=True)


def canon(x) -> str:
    """Deterministic text of a library result: dicts sorted by the repr of
    their keys, term maps (``MultiPoly``, ``DiffOp``) in insertion order."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + canon({f.name: getattr(x, f.name)
                                         for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}"
                              for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(v) for v in x) + "]"
    if hasattr(x, "terms"):
        return canon(list(x.terms.items()))
    if hasattr(x, "entries"):  # ScalarMatrix, PolyMatrix
        return canon(x.entries)
    return repr(x)


def fingerprint(o) -> str:
    """The exit code, stdout, stderr, report and library value of an outcome."""
    return "\n".join([str(o.code), o.stdout, o.stderr, o.report, canon(o.value)])


def outcome(fn, *args):
    """The value of fn(*args) and its canonical text, or None and the error
    text (with the data that the error carries)."""
    try:
        value = fn(*args)
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc} {canon(getattr(exc, 'data', None))}"
    return value, canon(value)


# (N, d, l, k, planted, definite): l > d and l < d, order 2, a real rank drop
# planted at (1, -2), and a definite first entry with no real rank drop
RANDOM_SHAPES = [(2, 2, 3, 1, None, False), (3, 2, 4, 1, None, False),
                 (3, 3, 2, 1, None, False), (2, 2, 2, 2, None, False),
                 (2, 2, 3, 1, (1, -2), False), (2, 1, 2, 2, None, True)]
catalog_ops = list(certificate_ops)
for seed, (N, d, l, k, planted, definite) in enumerate(RANDOM_SHAPES, 1):
    op = workloads.random_op(random.Random(seed), f"random{seed}", N, d, l, k, planted, definite)
    certificate_ops.append((f"random{seed}/{N}/{k}", op))
for label, op in certificate_ops:
    ann, ann_text = outcome(analysis.construct_annihilator, op)
    W, W_text = outcome(analysis.compute_W, op)
    cbeta_text = "needs an annihilator and W"
    if ann is not None and W is not None:
        cbeta_text = outcome(analysis.construct_Cbeta, ann, W.W_basis, op.l)[1]
    for step, text in (("annihilator", ann_text), ("W", W_text), ("Cbeta", cbeta_text)):
        print("certificate", label, step, hashlib.sha256(text.encode()).hexdigest(), flush=True)


def lift_target(rng, op, degree):
    """op applied to a field with one seeded term in each degree up to
    degree + k: a target of degree at most `degree` in the image of op."""
    field = [MultiPoly(op.N, {rng.choice(monomials_of_degree(op.N, t)): Fraction(rng.randint(1, 9))
                              for t in range(degree + op.k + 1)}) for _ in range(op.d)]
    return op.apply_to_poly(field)


rng = random.Random(0)
for label, op in catalog_ops:
    for degree in range(5):
        text = outcome(analysis.polynomial_lift, op, lift_target(rng, op, degree))[1]
        print("lift", f"{label}/{degree}", hashlib.sha256(text.encode()).hexdigest(), flush=True)
# a strain whose e_11 = x_2^2 breaks Saint-Venant compatibility in degree 2
x1, x2 = (MultiPoly.monomial(2, e) for e in ((1, 0), (0, 1)))
strain = [1 + x2 * x2, x1, MultiPoly.zero(2)]
text = outcome(analysis.polynomial_lift, catalog("sym_gradient", 2), strain)[1]
print("lift", "sym_gradient/2/-/incompatible", hashlib.sha256(text.encode()).hexdigest(), flush=True)

# every korn (equal N, d, k) and sobolev pair among those catalog entries,
# full gradients and identities; the trace-free symmetric gradient, which
# needs s = 2; and the s = 4 rung of a random 4x2 and 1x2 pair of order 2
factor_ops = catalog_ops + [(f"D/{N}", grad_power(1, N, N)) for N in (2, 3)] + [
    (f"id/{d}/{N}", grad_power(0, d, N))
    for N in (2, 3) for d in sorted({op.d for _, op in catalog_ops if op.N == N})]
MODES = {0: "korn", 1: "sobolev"}  # by ord calA - ord A
factor_pairs = [(f"{a} -> {b}/{MODES[calA.k - A.k]}", OperatorPair(calA, A, MODES[calA.k - A.k]))
                for a, calA in factor_ops for b, A in factor_ops
                if (calA.N, calA.d) == (A.N, A.d) and calA.k - A.k in MODES]
factor_pairs.append(("tf_sym_gradient/3 -> D/3", OperatorPair(
    workloads.tf_sym_gradient(3), grad_power(1, 3, 3))))
for seed in (1, 2, 3):
    rung = random.Random(seed)
    factor_pairs.append((f"s=4 rung/{seed}", OperatorPair(
        workloads.random_op(rung, "calA", 3, 2, 4, 2), workloads.random_op(rung, "A", 3, 2, 1, 2))))
for label, pair in factor_pairs:
    cert, text = outcome(analysis.construct_L, pair)
    if cert is not None:
        text += serialize_op(cert.L)
    print("factorization", label, hashlib.sha256(text.encode()).hexdigest(), flush=True)

shutil.rmtree(WORKDIR, ignore_errors=True)
WORKDIR.mkdir()
save_op(workloads.random_op(random.Random(1), "random8x4", 3, 4, 8, 1), WORKDIR / "wide.json")
text = fingerprint(workloads.cli_op("wide", ["analyze", "--op", str(WORKDIR / "wide.json")],
                                   WORKDIR / "wide-report.json", None).run())
print("wide", "analyze/random8x4", hashlib.sha256(text.encode()).hexdigest(), flush=True)


def dense_quartics(zero=None):
    """Three quartics in N = 3, every coefficient a seeded rational; with
    `zero`, each is made to vanish there through its x_1^4 coefficient."""
    rng, out = random.Random(43), []
    for _ in range(3):
        p = MultiPoly(3, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for m in monomials_of_degree(3, 4)})
        if zero is not None:
            p = p - MultiPoly.monomial(3, (4, 0, 0), p.evaluate(zero) / Fraction(zero[0]) ** 4)
        out.append(p)
    return out


for label, zero in (("origin only", None), ("zero at (1, 2, -1)", (1, 2, -1))):
    text = outcome(groebner.zero_dim_origin, dense_quartics(zero))[1]
    print("wide", f"zero_dim_origin/{label}", hashlib.sha256(text.encode()).hexdigest(), flush=True)


def reweighted(op, weights):
    return DiffOp(op.name, op.N, op.d, op.l, op.k, op.terms, weights)


# the pairs of tests/test_numerics.py::TestBitIdentity whose kernel inclusion
# holds, the random order-2 operator drawn here with workloads.random_op
KORN2_PAIRS = [
    ("sym_gradient(2) -> D", catalog("sym_gradient", 2), grad_power(1, 2, 2)),
    ("sym_gradient(3) -> D", catalog("sym_gradient", 3), grad_power(1, 3, 3)),
    ("reweighted sym_gradient(3) -> weighted D",
     reweighted(catalog("sym_gradient", 3), (1, 3, 2, 5, 1, 7)),
     reweighted(grad_power(1, 3, 3), tuple(range(1, 10)))),
    ("curl(3) -> curl(3)", catalog("curl", 3), catalog("curl", 3)),
    ("divergence(2) -> divergence(2)", catalog("divergence", 2), catalog("divergence", 2)),
    ("hessian of a 2-field (3) -> random order 2", grad_power(2, 2, 3),
     workloads.random_op(random.Random(3), "random", 3, 2, 3, 2)),
]
for label, calA, A in KORN2_PAIRS:
    for seed in (0, 1):
        text = outcome(numerics.korn_constant_p2, OperatorPair(calA, A, "korn"), 500, 80, seed)[1]
        print("numerics", f"korn2/{label}/{seed}", hashlib.sha256(text.encode()).hexdigest(), flush=True)
# two samples leave a poor supremum, so the refinement rounds restart; in
# N = 1 every refinement is skipped
KORN2_RUNS = [(f"{label}/samples=2/{seed}", OperatorPair(calA, A, "korn"), 2, seed)
              for label, calA, A in [("sym_gradient(2) -> curl(2)", catalog("sym_gradient", 2),
                                      catalog("curl", 2)), KORN2_PAIRS[-1]]
              for seed in (0, 1)]
KORN2_RUNS.append(("gradient(1) -> gradient(1)/0",
                   OperatorPair(catalog("gradient", 1), catalog("gradient", 1), "korn"), 500, 0))
for label, pair, samples, seed in KORN2_RUNS:
    text = outcome(numerics.korn_constant_p2, pair, samples, 80, seed)[1]
    print("numerics", f"korn2/{label}", hashlib.sha256(text.encode()).hexdigest(), flush=True)
for k, N, n_grid in ((1, 2, 16), (2, 2, 16), (1, 3, 8), (2, 3, 8)):
    text = outcome(numerics.bb_ratio_experiment, k, N, 50, n_grid, 0)[1]
    print("numerics", f"bb/k={k}/N={N}/grid={n_grid}", hashlib.sha256(text.encode()).hexdigest(), flush=True)
sobolev_pair = OperatorPair(catalog("gradient", 3), grad_power(0, 1, 3), "sobolev")
for p in (1, 2):
    text = outcome(numerics.sobolev_ratio_experiment, sobolev_pair, p, 20, 16, 0)[1]
    print("numerics", f"sobolev/gradient(3) -> id/p={p}", hashlib.sha256(text.encode()).hexdigest(),
          flush=True)
sobolev_pair = OperatorPair(catalog("gradient", 2), grad_power(0, 1, 2), "sobolev")
text = outcome(numerics.sobolev_ratio_experiment, sobolev_pair, 1, 20, 8, 0)[1]
print("numerics", "sobolev/gradient(2) -> id/grid=8", hashlib.sha256(text.encode()).hexdigest(),
      flush=True)
for name in ("curl", "divergence"):
    pair = OperatorPair(catalog(name, 3), grad_power(1, 3, 3), "korn")
    witness = analysis.find_witness(pair)
    text = outcome(numerics.counterexample_blowup, pair, witness, (1, 2, 4), 32)[1]
    print("numerics", f"blowup/{name}(3) -> D/grid=32", hashlib.sha256(text.encode()).hexdigest(),
          flush=True)

for name in ("certify", "refute", "numerics"):
    for seed in args.seeds:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        for op in workloads.build(name, seed, WORKDIR):
            text = fingerprint(op.run()).replace(str(src), "CHECKOUT/src")
            print(name, seed, op.label, hashlib.sha256(text.encode()).hexdigest(), flush=True)
shutil.rmtree(WORKDIR, ignore_errors=True)
