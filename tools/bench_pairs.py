"""Benchmark two checkouts in alternating pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE PAIRS --out BENCH_<n>.json [--claim TEXT]

Runs ``perfbench/run.py`` of each checkout on every workload of this
checkout's BENCHMARK.json with seeds 1..PAIRS, one run at a time, for
``run_seconds``. In pair i both sides run with seed i;
the parent runs first when i is odd and the change when i is even, so a
drift in host speed falls on both sides alike. The file has the shape of
BENCH_13.json: per workload and end-to-end metric the median and quartiles
(``statistics.quantiles(values, n=4)``) of each side, the failed shares and
every run. Added to that are the wins (the pairs in which the change is
better on the metric, by the metric's ``better``; a tie is no win), the
relative change of the median, the gap between the medians over the
parent's quartile distance, and the same median and quartiles for the bare
figures ``run.py`` prints on stderr (wall and CPU time per pass, cold start,
warm-up ratio), which are not gated. Run it from anywhere; progress goes to
stdout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, command, workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {"seed": seed, "correct": result["correct"], "failed": result["failed"],
           "attempted": result["attempted"]}
    run.update({name: m["value"] for name, m in result["metrics"].items()})
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: bare "):
            run["bare"] = json.loads(line[len("perfbench: bare "):])
    return run


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(spec, runs) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r[name] for r in runs[side]] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"], stats["change"]
        wins = [(c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])]
        iqr = parent["q3"] - parent["q1"]
        gap = abs(change["median"] - parent["median"])
        out[name] = dict(stats, wins={"change": sum(wins), "pairs": len(wins), "per_pair": wins},
                         median_change=(change["median"] - parent["median"]) / parent["median"],
                         gap_over_parent_iqr=gap / iqr if iqr else None)
    out["failed_share"] = {side: sorted({r["failed"] / r["attempted"] for r in runs[side]})
                           for side in SIDES}
    out["correct"] = {side: all(r["correct"] for r in runs[side]) for side in SIDES}
    out["bare"] = {name: {side: quartiles([r["bare"][name] for r in runs[side]])
                          for side in SIDES}
                   for name in runs["parent"][0]["bare"]}
    out["runs"] = runs
    return out


def revision(checkout: Path) -> str:
    """HEAD's short hash, ``<hash>-dirty-<12 hex of sha256 of git diff HEAD>``
    when tracked files have uncommitted changes, ``unknown`` outside git."""
    def git(*argv) -> bytes:
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True).stdout

    sha = git("rev-parse", "--short", "HEAD").decode().strip()
    if not sha:
        return "unknown"
    diff = git("diff", "HEAD")
    return f"{sha}-dirty-{hashlib.sha256(diff).hexdigest()[:12]}" if diff else sha


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("pairs", type=int)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", default="none")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("need at least 2 pairs for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = run_once(checkouts[side], spec["command"], workload, seed,
                               spec["run_seconds"])
                runs[workload][side].append(run)
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      f"failed={run['failed']}/{run['attempted']} "
                      + " ".join(f"{m['name']}={run[m['name']]:.4f}" for m in spec["end_to_end"]),
                      flush=True)
    report = {
        "what": "end-to-end metrics per workload, parent and change, in alternating pairs",
        "command": (f"python3 tools/bench_pairs.py PARENT CHANGE {args.pairs} "
                    f"(seeds 1-{args.pairs}, {spec['run_seconds']} s per run, "
                    "parent first in odd pairs, change first in even pairs)"),
        "host": (f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                 f"Python {platform.python_version()}"),
        "parent": revision(checkouts["parent"]),
        "change": revision(checkouts["change"]),
        "claim": args.claim,
        "workloads": {w: summarise(spec, runs[w]) for w in workloads},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for w in workloads:
        for metric in spec["end_to_end"]:
            s = report["workloads"][w][metric["name"]]
            print(f"{w} {metric['name']}: parent {s['parent']['median']:.4f} "
                  f"change {s['change']['median']:.4f} ({s['median_change']:+.1%}), "
                  f"change better in {s['wins']['change']}/{s['wins']['pairs']} pairs")


if __name__ == "__main__":
    main()
