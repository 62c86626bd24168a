"""Print one fingerprint per benchmark operation, to compare two checkouts.

    python3 tools/output_fingerprints.py CHECKOUT SEED [SEED ...]

Imports ``symcheck`` from ``CHECKOUT/src`` and the workloads from this
checkout's ``perfbench/``, runs every operation of every workload once and
prints ``workload seed label sha256`` lines, the hash taken over the exit
code, stdout, stderr, report and library value. Inputs are written to one
fixed directory, so the paths inside the reports are the same for any two
checkouts; two runs whose outputs are equal print equal lines.

First it prints one ``catalog NAME N k sha256`` line for each catalog entry
of a fixed grid (``k`` is ``-`` when not given), the hash taken over the
serialized operator or the error text; the benchmark builds only a few
catalog entries.
"""

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
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
from symcheck.operators import OperatorFormatError, catalog, serialize_op  # noqa: E402

if not Path(symcheck.__file__).resolve().is_relative_to(src):
    sys.exit(f"symcheck imported from {symcheck.__file__}, not from {src}")

# a fixed list of names, so that a name added later does not show as a diff
CATALOG_GRID = [(name, N, None) for name in (
    "gradient", "divergence", "curl", "sym_gradient", "laplacian", "bilaplacian",
    "cauchy_riemann", "d2_laplacian", "div_k") for N in range(1, 5)] + [
    ("div_k", N, k) for N in range(1, 5) for k in range(6)]
for name, N, k in CATALOG_GRID:
    try:
        text = serialize_op(catalog(name, N, k))
    except OperatorFormatError as exc:
        text = f"OperatorFormatError: {exc}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    print("catalog", name, N, "-" if k is None else k, digest, flush=True)

for name in ("certify", "refute", "numerics"):
    for seed in args.seeds:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        for op in workloads.build(name, seed, WORKDIR):
            text = op.run().fingerprint().replace(str(src), "CHECKOUT/src")
            print(name, seed, op.label, hashlib.sha256(text.encode()).hexdigest(), flush=True)
shutil.rmtree(WORKDIR, ignore_errors=True)
