"""ncerm benchmark: closed-loop workloads over the best-of-T, BoostNet and
Monte Carlo paths, and a separate traced run for the per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload halfspace_l2 --seed 1 --seconds 25 --trace 0

One instance at a time: each call starts after the previous one returns.
No threads; the only child processes are the import timings for
``setup_s``, run one after another.  ``--trace 0`` times instances until ``--seconds`` have passed
(and at least the workload's minimum count), runs the fixed loop in
``reference.py`` between instances, and prints the end-to-end metrics
with each instance's time in units of the loops around it.  ``--trace 1``
runs the kernel sweep, then a fixed list of instances twice, untraced
and traced, and prints the per-layer metrics.
The last line of standard output is the result object; the line before it
records the environment and the workload-specific details.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
WORKLOADS = ("halfspace_l2", "halfspace_lp", "boostnet", "montecarlo")

# Single-threaded BLAS unless the caller says otherwise: the closed loop
# runs one call at a time and the machine may be shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def environment(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    sources = sorted((SRC / "ncerm").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "git_commit": git_commit(),
        "src_ncerm_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_times(repeats):
    """Seconds to import ncerm and the workloads in fresh interpreters.

    An import runs once per process, so one in-process figure is a single
    noisy sample; each child times its own imports, which leaves
    interpreter start-up out.
    """
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
            "t0 = time.perf_counter(); import ncerm, workloads; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).resolve().parent)],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def timed_call(wl, i, problems):
    """Run one instance: (seconds, raw output, or None if it raised)."""
    t0 = time.perf_counter()
    try:
        raw = wl.run(i)
    except Exception as exc:  # a failed operation is counted, not fatal
        problems.append(f"instance {i}: {type(exc).__name__}: {exc}")
        raw = None
    return time.perf_counter() - t0, raw


def checked(wl, i, raw, problems):
    """The instance's Outcome, or None if it did not run or did not check."""
    if raw is None:
        return None
    try:
        outcome = wl.check(i, raw)
    except Exception as exc:  # malformed output is a failure, not a crash
        problems.append(f"instance {i}: check raised {type(exc).__name__}: {exc}")
        return None
    problems += [f"instance {i}: {p}" for p in outcome.problems]
    return None if outcome.problems else outcome


def timed_run(wl, seconds, reference_loop):
    """Closed loop for --seconds (and at least wl.min_instances).

    One untimed instance and reference loop warm up first.  The reference
    loop then runs before the first instance and after every instance, so
    each instance is bracketed by two loop times.
    """
    times, refs, outcomes, problems = [], [], [], []
    timed_call(wl, 0, [])  # instance 0 runs again, timed and checked
    reference_loop()
    refs.append(timed_reference(reference_loop))
    t_begin = time.perf_counter()
    i = 0
    while i < wl.min_instances or time.perf_counter() - t_begin < seconds:
        dt, raw = timed_call(wl, i, problems)
        times.append(dt)
        refs.append(timed_reference(reference_loop))
        outcomes.append(checked(wl, i, raw, problems))
        i += 1
    return times, refs, outcomes, problems


def timed_reference(reference_loop):
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def summarize_quality(outcomes):
    done = [o for o in outcomes if o is not None]
    checks = sum(o.checks for o in done)
    return (sum(o.passed for o in done) / checks) if checks else 0.0


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ncerm" / "__init__.py").is_file():
        fail(f"no ncerm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))

    t_import = time.perf_counter()
    import ncerm
    import reference
    import sweep
    import tracer as tracer_mod
    import workloads

    if Path(ncerm.__file__).resolve().parent != (SRC / "ncerm").resolve():
        fail(f"imported ncerm from {ncerm.__file__}, not from {SRC}")
    import_s = time.perf_counter() - t_import

    env = environment(args.seed)
    wl = workloads.make(args.workload)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    child_imports = import_times(SETUP_REPEATS)
    setup_s = statistics.median(child_imports) + statistics.median(setup_times)

    detail = {"workload": args.workload, "import_s": import_s,
              "child_import_s": child_imports, "input_generation_s": setup_times}
    try:
        if args.trace == 0:
            correct, attempted, failed, metrics = timed_mode(
                wl, args.seconds, setup_s, detail, reference.reference_loop)
        else:
            correct, attempted, failed, metrics = traced_mode(
                wl, detail, sweep, tracer_mod)
    finally:
        wl.close()
    print(json.dumps({"env": env, "detail": detail}, default=float))
    print(result_line(correct, attempted, failed, metrics))
    return 0


def timed_mode(wl, seconds, setup_s, detail, reference_loop):
    times, refs, outcomes, problems = timed_run(wl, seconds, reference_loop)
    failed = outcomes.count(None)
    attempted = len(outcomes)
    # Quality is judged on the fixed prefix every run completes, so it is
    # the same for a given seed however fast the instances run.
    prefix = outcomes[:wl.min_instances]
    pass_frac = summarize_quality(prefix)
    rounds = sum(o.rounds for o in outcomes if o is not None)
    total = sum(times)
    # Each instance's time in units of the reference loops around it.
    rel = [dt / (0.5 * (refs[k] + refs[k + 1])) for k, dt in enumerate(times)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = [o for o in prefix if o is not None]
    excess = [o.quality["excess"] for o in done if "excess" in o.quality]
    margins = [o.quality["margin"] for o in done if "margin" in o.quality]
    extra = {
        "wall_s": (statistics.median(times), "s"),
        "rounds_per_s": (rounds / total, "1/s"),
        "reference_s": (statistics.median(refs), "s"),
        "error_frac": (failed / attempted, "frac"),
    }
    if len(rel) > 20:
        # The highest order statistic with ten samples above it.
        extra["wall_ref_tail"] = (sorted(rel)[-11], "ref")
        detail["wall_ref_tail_quantile"] = (len(rel) - 10) / len(rel)
    if excess:
        extra["excess_risk_mean"] = (sum(excess) / len(excess), "risk")
    if margins:
        extra["margin_min"] = (min(margins), "margin")
    if wl.name == "montecarlo":
        extra["trials_per_s"] = (rounds / total, "1/s")
    detail.update({
        "instances": attempted,
        "instance_s": times,
        "reference_loop_s": refs,
        "rounds": rounds,
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "problems": problems[:20],
    })
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(rel), "ref"),
        "rounds_per_ref": (statistics.median(
            o.rounds / r for o, r in zip(outcomes, rel) if o is not None), "1/ref"),
        "pass_frac": (pass_frac, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return failed == 0, attempted, failed, metrics


def traced_mode(wl, detail, sweep, tracer_mod):
    kernels = sweep.kernel_sweep()
    detail["roadmap_ratio"] = sweep.roadmap_divergence(kernels)

    n = wl.trace_instances
    problems = []
    # Instance 0 runs once untimed first: it warms lazy state, and its
    # result must match the later repeats byte for byte.  Untraced and
    # traced runs of each instance alternate in order, so drift in machine
    # speed does not land on one side of the overhead estimate.
    warm = timed_call(wl, 0, problems)
    tr = tracer_mod.Tracer()
    untraced, traced = [], []

    def run_traced(i):
        tr.instance = i
        tr.install()
        try:
            return timed_call(wl, i, problems)
        finally:
            tr.uninstall()

    for i in range(n):
        if i % 2:
            traced.append(run_traced(i))
            untraced.append(timed_call(wl, i, problems))
        else:
            untraced.append(timed_call(wl, i, problems))
            traced.append(run_traced(i))

    # Checks run after the tracer is gone, so they add no spans.
    warm_out = checked(wl, 0, warm[1], problems)
    outs_u = [checked(wl, i, raw, problems) for i, (_, raw) in enumerate(untraced)]
    outs_t = [checked(wl, i, raw, problems) for i, (_, raw) in enumerate(traced)]
    for i in range(n):
        twins = [outs_u[i], outs_t[i]] + ([warm_out] if i == 0 else [])
        if None not in twins and len({(o.digest, o.passed) for o in twins}) > 1:
            outs_t[i] = None
            problems.append(f"instance {i}: repeated or traced result differs")
    if tr.descent["risk_raised"]:
        outs_t[-1] = None
        problems.append(f"monotone_descent raised risk {tr.descent['risk_raised']} times")
    failed = [warm_out, *outs_u, *outs_t].count(None)

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{wl.name}.npz"
    tr.save(trace_path)
    wall_u = sum(t for t, _ in untraced)
    wall_t = sum(t for t, _ in traced)
    detail.update({
        "instances": n,
        "untraced_s": wall_u,
        "traced_s": wall_t,
        "spans": len(tr.start),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "descent": tr.descent,
        "problems": problems[:20],
    })
    metrics = tr.summarize()
    metrics.update(kernels)
    metrics["bench.trace_overhead_frac"] = (wall_t / wall_u - 1.0, "frac")
    return failed == 0, 2 * n + 1, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
