"""trapprob benchmark: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload theorem1-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Runs from a checkout of the repository: the package is imported from
``src/`` next to this directory (nothing is installed), single-process, with
``TRAPPROB_THREADS`` pinned to 1.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a separate traced
phase (see tracer.py).  Workloads, operations and the metric predictions
are described in DESIGN.md.  Scratch files and span dumps go to
``.perfbench/`` at the root of the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_PASSES = 2  # per measured phase; figures compares every pass with the first

# _reference_kernel() builds KERNEL_ROUNDS Philox generators and draws two
# normals from each.  End-to-end times are reported at the speed at which it
# takes KERNEL_REFERENCE_S, a fixed constant near its time on the box the
# benchmark was built on (2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6)
# when that box is calm; the constant only sets the scale.
KERNEL_ROUNDS = 600
KERNEL_REFERENCE_S = 0.008

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sample_batch.trajectories": "count",
    "sample_batch.s": "s",
    "sample_batch.self_s": "s",
    "steps": "count",
    "steps_max": "count",
    "captured": "count",
    "censored": "count",
    "steps_per_s": "1/s",
    "philox_stream.calls": "count",
    "philox_stream.s": "s",
    "philox_stream.share": "share",
    "release_circle.s": "s",
    "survival_curve.s": "s",
    "abelian_estimate.s": "s",
    "PlanePoint.constructed": "count",
    "PlanePoint.s": "s",
    "bessel_j0_y0.calls": "count",
    "bessel_j0_y0.elements_series": "count",
    "bessel_j0_y0.elements_asymptotic": "count",
    "bessel_j0_y0.ns_per_element": "ns",
    "k0.calls": "count",
    "k0.us_per_call": "us",
    "k0_bounds.calls": "count",
    "k0_bounds.us_per_call": "us",
    "p_disk.calls": "count",
    "p_disk.ms_per_call": "ms",
    "p_disk.self_ms_per_call": "ms",
    "p_disk.integrand_evals": "count",
    "p_disk.shortcut_calls": "count",
    "f_disk.calls": "count",
    "f_disk.us_per_call": "us",
    "f_disk.failed": "count",
    "check_theorem1.calls": "count",
    "check_theorem1.self_s": "s",
    "figure_series.self_s": "s",
    "write_csv.calls": "count",
    "write_csv.bytes": "count",
    "write_csv.s": "s",
    "svg_lineplot.s": "s",
    "write_manifest.s": "s",
    "main.self_s": "s",
    "failed_op_share": "share",
    "trace.overhead_s": "s",
}

WORKLOAD_NAMES = ("theorem1-sweep", "figures", "disk-oracle")


def _provenance(seed, inherited_threads):
    import numpy

    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "trapprob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "TRAPPROB_THREADS": os.environ["TRAPPROB_THREADS"],
        "TRAPPROB_THREADS_inherited": inherited_threads,
    }


def _reference_kernel():
    """Fixed numpy and interpreter work that runs no trapprob code."""
    import numpy as np

    t0 = perf_counter()
    for i in range(KERNEL_ROUNDS):
        np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64))).standard_normal(2)
    return perf_counter() - t0


def _measure(run_pass, state, ledger, seconds, after_pass=None):
    """Repeat identical passes until ``seconds`` have elapsed (at least
    MIN_PASSES).  Returns the passes and, for each, the factor that converts
    its times to the reference speed: KERNEL_REFERENCE_S over the mean of the
    reference-kernel times just before and just after it.  ``after_pass``
    runs between a pass and the kernel that follows it."""
    passes = []
    _reference_kernel()  # the first call pays one-off costs
    kernel = [_reference_kernel()]
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(run_pass(state, ledger))
        if after_pass is not None:
            after_pass()
        kernel.append(_reference_kernel())
    scales = [2.0 * KERNEL_REFERENCE_S / (a + b) for a, b in zip(kernel, kernel[1:])]
    return passes, scales


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _wall(passes, scales):
    return statistics.median(p.wall_s * s for p, s in zip(passes, scales))


def _end_to_end(setups, passes, scales):
    """End-to-end metrics: medians over the passes of reference-speed times.

    On a shared box a core's speed drifts by 1.1x to 2x, for fractions of a
    second and in regimes of many minutes.  Process CPU time drifts with it,
    so neighbours slow the core rather than take it away.  Each pass, and the
    set-up after it, is therefore timed against the reference kernel run on
    either side of it, which slows down with the workloads.
    """
    wall = _wall(passes, scales)

    def latency_ms(q):
        return statistics.median(_percentile(p.latencies_s, q) * s for p, s in zip(passes, scales)) * 1e3

    return {
        "setup_s": statistics.median(t * s for t, s in zip(setups, scales)),
        "wall_s": wall,
        "items_per_s": passes[0].items / wall,
        "latency_p50_ms": latency_ms(50),
        "latency_p99_ms": latency_ms(99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _result_line(ledger, metrics, units):
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    )


def run_workload(workload, seed, seconds, trace):
    import workloads

    setup, run_pass = workloads.WORKLOADS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        state = setup(seed, work_dir)
        ledger = workloads.Ledger()
        if not trace:
            setups = []

            # One more set-up after every pass, so the set-up samples spread
            # over the run like the passes do.  Their states are discarded.
            def timed_setup():
                t0 = perf_counter()
                setup(seed, work_dir)
                setups.append(perf_counter() - t0)

            passes, scales = _measure(run_pass, state, ledger, seconds, timed_setup)
            metrics, units = _end_to_end(setups, passes, scales), END_TO_END_UNITS
            n_latencies = sum(len(p.latencies_s) for p in passes)
            print(f"passes {len(passes)}, timed calls {n_latencies}, setups {len(setups)}")
            print("pass seconds " + " ".join(f"{p.wall_s:.4f}" for p in passes))
            print("reference-speed factors " + " ".join(f"{s:.4f}" for s in scales))
        else:
            from tracer import Tracer

            plain = _measure(run_pass, state, ledger, seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _measure(run_pass, state, ledger, seconds / 2.0, tracer.end_pass)
            finally:
                tracer.uninstall()
            if tracer.missing:
                print(f"perfbench: trace targets not found: {', '.join(tracer.missing)}", file=sys.stderr)
            metrics = tracer.layer_metrics(len(traced[0]))
            metrics["trace.overhead_s"] = _wall(*traced) - _wall(*plain)
            units = PER_LAYER_UNITS
            spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
            tracer.save(spans)
            print(f"passes {len(plain[0])} untraced + {len(traced[0])} traced; "
                  f"{len(tracer.start)} spans in {spans.relative_to(ROOT)}")
            for r, tau, captured, censored in tracer.combos(len(traced[0])):
                print(f"combo r={r:g} tau={tau:.4g}: captured {captured:g}, censored {censored:g}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    known = sum(ledger.known_defects.values())
    failed_op_share = (ledger.failed + known) / ledger.attempted
    if trace:
        metrics["failed_op_share"] = failed_op_share
    print(
        f"operations: attempted {ledger.attempted}, failed {ledger.failed}, known defects {known}, "
        f"failed_op_share {failed_op_share:.6g} share"
    )
    for kind, count in sorted(ledger.known_defects.items()):
        print(f"known defect: {kind}: {count}")
    for what in ledger.failures:
        print(f"FAILED: {what}")
    _print_named(workload, metrics, units)
    print(_result_line(ledger, metrics, units))
    return 0


def _print_named(workload, metrics, units):
    """Every metric by name and unit, plus the specific names for the
    workload-specific readings of the generic end-to-end metrics."""
    aliases = {}
    if "items_per_s" in metrics:
        if workload == "disk-oracle":
            aliases = {"p_disk_p50_ms": "latency_p50_ms", "p_disk_p99_ms": "latency_p99_ms"}
        else:
            aliases = {"trajectories_per_s": "items_per_s"}
    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6g} {unit}")
    for alias, name in aliases.items():
        print(f"{alias:34s} {metrics[name]:>16.6g} {units[name]}  (= {name})")


def run_all(seed, seconds, trace):
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trapprob" / "__init__.py").is_file():
        print(f"perfbench: no trapprob package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    inherited = os.environ.get("TRAPPROB_THREADS")
    os.environ["TRAPPROB_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(_provenance(args.seed, inherited)))
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
