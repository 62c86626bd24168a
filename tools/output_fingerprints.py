"""Print one fingerprint per benchmark operation, to compare two checkouts.

    python3 tools/output_fingerprints.py CHECKOUT SEED [SEED ...]

Imports ``symcheck`` from ``CHECKOUT/src`` and the workloads from this
checkout's ``perfbench/``, runs every operation of every workload once and
prints ``workload seed label sha256`` lines, the hash taken over the exit
code, stdout, stderr, report and library value. Inputs are written to one
fixed directory, so the paths inside the reports are the same for any two
checkouts; two runs whose outputs are equal print equal lines.
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

if not Path(symcheck.__file__).resolve().is_relative_to(src):
    sys.exit(f"symcheck imported from {symcheck.__file__}, not from {src}")

for name in ("certify", "refute", "numerics"):
    for seed in args.seeds:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        for op in workloads.build(name, seed, WORKDIR):
            text = op.run().fingerprint().replace(str(src), "CHECKOUT/src")
            print(name, seed, op.label, hashlib.sha256(text.encode()).hexdigest(), flush=True)
shutil.rmtree(WORKDIR, ignore_errors=True)
