"""Benchmark of symcheck: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. A run measures set-up in fresh interpreters, then runs
a warm-up pass over the workload's operations and repeats the pass, closed
loop in this one process, until ``--seconds`` have passed (at least three
times). It then checks every output against computations made apart from
the program (``checks.py``) and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run wraps the program's layers (``tracer.py``) and
the metrics are the per-layer ones. Diagnostics go to stderr.
"""

import os

# One BLAS thread, set before numpy is first imported (here or in a child).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_PASSES = 3
# Seconds the two references take on the 2-core host the bounds were set
# on; pass_s and setup_s are given at that host speed (see run_pass).
REFERENCE_S = 0.003
SETUP_REFERENCE_S = 0.2
# A warm-up pass this many times slower than the timed passes is flagged:
# the timed passes repeat the warm-up's inputs, so a cache that lives across
# operations would make them cheap while fresh inputs cost as before.
WARMUP_FLAG = 1.5


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def import_program():
    """Import symcheck from this checkout's src/, and nothing else."""
    package = SRC / "symcheck"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import symcheck

    if Path(symcheck.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: symcheck imported from {symcheck.__file__}, not {package}")


def setup_probe(workload, seed, workdir):
    """Child process: import the program, write the inputs, report the time."""
    import_program()
    import workloads

    workloads.build(workload, seed, Path(workdir))
    print(time.monotonic(), flush=True)


NUMPY_COLD_START = ["-c", "import time, numpy; print(time.monotonic())"]


def _cold_start(argv):
    """Seconds from spawning an interpreter to the monotonic time it prints."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120)
    if proc.returncode:
        sys.exit(f"perfbench: cold start {argv[:2]} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def measure_setup(workload, seed, workroot):
    """Median over cold starts of interpreter start -> first operation.

    Like pass_s (see run_pass), each cold start is given in units of a
    reference timed before and after it, here a fresh interpreter that
    imports numpy, and then in seconds at the host speed where that takes
    SETUP_REFERENCE_S. Loading and linking follow the reference of
    run_pass poorly; they follow this one to about 2%.
    """
    raw, ratios = [], []
    before = _cold_start(NUMPY_COLD_START)
    for i in range(SETUP_PROBES):
        raw.append(_cold_start([str(Path(__file__).resolve()), "--setup-probe",
                                str(workroot / f"probe{i}"), "--workload", workload,
                                "--seed", str(seed)]))
        after = _cold_start(NUMPY_COLD_START)
        ratios.append(raw[-1] / ((before + after) / 2))
        before = after
    setup_s = SETUP_REFERENCE_S * statistics.median(ratios)
    log(f"setup_s {setup_s:.4f} s; wall of the cold starts:", [round(t, 4) for t in raw])
    return setup_s, statistics.median(raw)


def reference():
    """Fixed pure-Python work of the exact layer's kind: the product of two
    sparse polynomials with Fraction coefficients."""
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in p.items():
            key = (e1[0] + e2[0], e1[1] + e2[1])
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_pass(ops):
    """Run every operation once, with the reference timed between them.

    On the shared 2-core host the bounds were set on, the speed of
    interpreted code switches between two levels about 2x apart, each lasting about a second, in a mix that
    drifts over minutes (C kernels such as sha256 stay steady). A wall time
    alone therefore does not repeat between runs. The reference before and
    after an operation measures the host speed around it.
    Returns (seconds per operation, the same in reference units, outcomes).
    """
    seconds, refs, outcomes = [], [_timed(reference)], []
    for op in ops:
        t0 = time.perf_counter()
        outcomes.append(op.run())
        seconds.append(time.perf_counter() - t0)
        refs.append(_timed(reference))
    ratios = [t / ((a + b) / 2) for t, a, b in zip(seconds, refs, refs[1:])]
    return seconds, ratios, outcomes


def check_outputs(ops, outcomes):
    """(correct, failed) over one pass; a crashed operation counts as failed
    and its output is not checked further."""
    import checks

    correct, failed = True, 0
    for op, outcome in zip(ops, outcomes):
        if outcome.crashed:
            failed += 1
            last = outcome.stderr.strip().splitlines()[-1:] or ["?"]
            log(f"FAILED {op.label}: {last[0]}")
            continue
        try:
            op.check(outcome)
        except Exception as exc:  # a check that cannot even read the output also rejects it
            correct = False
            log(f"WRONG {op.label}: {type(exc).__name__}: {exc}")
    return correct, failed


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workroot = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        import_program()
        import workloads

        setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(
            args.workload, args.seed, workroot)

        ops = workloads.build(args.workload, args.seed, workroot / "run")
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        warm_s, warm_ratios, warm = run_pass(ops)
        log(f"warm-up pass {sum(warm_s):.3f} s over {len(ops)} operations")
        fingerprints = [o.fingerprint() for o in warm]
        if tracer:
            tracer.begin_window()
        times, ratios, identical = [], [], True
        t_start, cpu_start = time.perf_counter(), time.process_time()
        while len(times) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            elapsed, in_reference_units, outcomes = run_pass(ops)
            times.append(elapsed)
            ratios.append(in_reference_units)
            for op, o, fp in zip(ops, outcomes, fingerprints):
                if o.fingerprint() != fp:
                    identical = False
                    log(f"WRONG {op.label}: output differs from the warm-up pass")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # each operation's median over the passes, in units of the
        # reference timed next to it, summed and given in seconds at the
        # host speed where the reference takes REFERENCE_S
        pass_s = REFERENCE_S * sum(statistics.median(r) for r in zip(*ratios))
        wall_s = sum(statistics.median(t) for t in zip(*times))
        cpu_s = (time.process_time() - cpu_start) / len(times)
        warmup_ratio = REFERENCE_S * sum(warm_ratios) / pass_s
        log(f"{len(times)} timed passes: pass_s {pass_s:.4f} s, wall {wall_s:.4f} s, "
            f"cpu {cpu_s:.4f} s per pass; whole passes:", [round(sum(t), 4) for t in times])
        if warmup_ratio > WARMUP_FLAG:
            log(f"FLAG: the warm-up pass took {warmup_ratio:.2f}x the timed pass_s; "
                "pass_s may show a cache across operations that fresh inputs do not hit")
        # the same run unscaled, for spread.py: scaling by the reference
        # removes host noise only from work bound by Python speed
        log("bare " + json.dumps({"wall_s": wall_s, "cpu_s": cpu_s,
                                  "setup_wall_s": setup_wall_s,
                                  "warmup_ratio": warmup_ratio}))
        if tracer:
            tracer.uninstall()
            values = tracer.metrics(len(times))
            trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write(trace_path)
            log(f"traced pass_s {pass_s:.4f} s; spans written to {trace_path}")
            wanted = spec["per_layer"]
        else:
            values = {"pass_s": pass_s, "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
            wanted = spec["end_to_end"]
        correct, failed = check_outputs(ops, warm)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    passes = 1 + len(times)
    return {
        "correct": correct and identical,
        "attempted": len(ops) * passes,
        "failed": failed * passes,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "refute", "numerics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
