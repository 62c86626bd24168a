"""Spread of the end-to-end metrics over repeated runs, to set and check bounds.

    python3 perfbench/spread.py [--runs 10]

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json once per seed
(seeds 1, 2, ..., runs), one run at a time, for ``run_seconds``. For every
workload and end-to-end metric it prints the median, the first and third
quartile (``statistics.quantiles(values, n=4)``), their distance as a share
of the median next to the metric's bound, and the share of failed
operations. Below them come the same figures for the bare times of the
runs (wall and CPU time per pass, cold start), which are not gated, and
the warm-up pass over pass_s. Scaling by the reference steadies only work
bound by Python speed: if most of a workload's time moves into C kernels,
its pass_s spread rises toward its bare wall spread, and these lines show it.
Run it from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values, bare, shares = {}, {}, set()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            shares.add((result["failed"] / result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
                  flush=True)
            for line in proc.stderr.splitlines():
                if line.startswith("perfbench: bare "):
                    for name, value in json.loads(line[len("perfbench: bare "):]).items():
                        bare.setdefault(name, []).append(value)
                elif "timed passes" in line or "setup_s" in line or "FLAG" in line:
                    print("   ", line, flush=True)
        print(f"\n{workload}: failed share {sorted(shares)}")
        print(f"{'metric':<14}{'median':>10}{'q1':>10}{'q3':>10}{'iqr/med':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            print_row(metric["name"], values[metric["name"]], metric["bound"])
        for name, v in bare.items():
            print_row(name, v, "-")
        print(flush=True)
    sys.exit(0 if ok else 1)


def print_row(name, values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    print(f"{name:<14}{med:>10.4f}{q1:>10.4f}{q3:>10.4f}{(q3 - q1) / med:>9.3f}{bound:>7}")


if __name__ == "__main__":
    main()
