"""Record perfbench runs into BENCH_<label>.json.

Run from the repository root:

    python3 bench/record.py --label base --seeds 1 2 3 4 5 --seconds 6
    python3 bench/record.py --label change --seeds 1 2 3 4 5 --seconds 6 \\
        --baseline ../parent-checkout

Each run is a child process ``perfbench/run.py --workload W --seed S
--seconds N --trace 0``, one at a time.  With ``--baseline DIR`` (another
checkout of the repository, outside this one) every workload and seed
also runs there, and the two sides alternate which goes first from pair
to pair, so drift in machine speed does not land on one side.  Each side's
children write and read their bytecode under PYTHONPYCACHEPREFIX, in a
fresh temporary directory per side, so a ``__pycache__`` left in one
checkout cannot make that side start faster than the other.

The file holds the environment record once per side, every run's
result, and per side and workload the median, quartiles and range of
each end-to-end metric.  With a baseline, it also counts for each
end-to-end metric the pairs in which the change did better, by the
direction BENCHMARK.json gives.  The per-workload medians are printed as
a Markdown table.  The exit status is 1 if any run reports
``"correct": false`` or fails to report at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("halfspace_l2", "halfspace_lp", "boostnet", "montecarlo")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--baseline", type=Path, help="checkout to run as the parent side")
    ap.add_argument("--out", type=Path, default=ROOT, help="directory of the output file")
    args = ap.parse_args(argv)
    if args.seconds < 1 or min(args.seeds) < 0:
        ap.error("--seconds must be >= 1 and every seed >= 0")
    if args.baseline is not None:
        args.baseline = args.baseline.resolve()
        if not (args.baseline / "perfbench" / "run.py").is_file():
            ap.error(f"--baseline {args.baseline} has no perfbench/run.py")
    return args


def run_once(checkout, workload, seed, seconds, pycache):
    """(env, run record) of one perfbench child, with its bytecode cache under
    the directory `pycache`; env is None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache)))
    record = {"workload": workload, "seed": seed, "elapsed_s": time.perf_counter() - t0,
              "returncode": proc.returncode, "correct": False}
    lines = proc.stdout.strip().splitlines()
    try:
        head, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        record["error"] = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, record
    record.update(
        correct=proc.returncode == 0 and result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        loadavg_start=head["env"]["loadavg_start"],
        metrics=result["metrics"],
        problems=head["detail"].get("problems", []),
    )
    env = {k: v for k, v in head["env"].items() if k not in ("seed", "loadavg_start")}
    return env, record


def uncommitted(checkout):
    """Whether a git checkout has uncommitted changes to tracked files (its
    env's git_commit is then only the parent of what ran); None without git."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=checkout, capture_output=True, text=True)
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def spread(values):
    """Median, quartiles and range of a list of numbers."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs):
    """Per side, workload and metric: the spread over that side's runs."""
    summary = {}
    for r in runs:
        if "metrics" in r:
            summary.setdefault(r["side"], {}).setdefault(r["workload"], []).append(r)
    return {side: {workload: {name: dict(spread([r["metrics"][name]["value"] for r in rs]),
                                         unit=metric["unit"])
                              for name, metric in rs[0]["metrics"].items()}
                   for workload, rs in by_workload.items()}
            for side, by_workload in summary.items()}


def pair_wins(runs, directions):
    """Per workload and end-to-end metric: of the pairs (same workload and
    seed) that both sides ran, how many the change did better."""
    keyed = {(r["side"], r["workload"], r["seed"]): r for r in runs if "metrics" in r}
    wins = {}
    for (side, workload, seed), new in keyed.items():
        old = keyed.get(("parent", workload, seed))
        if side != "change" or old is None:
            continue
        for name, better in directions.items():
            sign = 1.0 if better == "higher" else -1.0
            tally = wins.setdefault(workload, {}).setdefault(
                name, {"change_better": 0, "pairs": 0})
            tally["pairs"] += 1
            delta = new["metrics"][name]["value"] - old["metrics"][name]["value"]
            tally["change_better"] += sign * delta > 0
    return wins


def markdown(summary):
    """Table of the median of each metric, per workload and side."""
    names = sorted({m for by_workload in summary.values() for ms in by_workload.values()
                    for m in ms})
    lines = ["| workload | side | " + " | ".join(names) + " |",
             "|---" * (2 + len(names)) + "|"]
    for side, by_workload in sorted(summary.items(), reverse=True):
        for workload, metrics in by_workload.items():
            cells = [f"{metrics[m]['median']:.4g}" if m in metrics else "-" for m in names]
            lines.append(f"| {workload} | {side} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"change": ROOT} | ({"parent": args.baseline} if args.baseline else {})
    envs, runs = {}, []
    pairs = [(w, s) for w in args.workloads for s in args.seeds]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as caches:
        for i, (workload, seed) in enumerate(pairs):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                env, record = run_once(sides[side], workload, seed, args.seconds,
                                       Path(caches) / side)
                record.update(side=side, first=order[0])
                runs.append(record)
                if env is not None and side not in envs:
                    envs[side] = dict(env, uncommitted_changes=uncommitted(sides[side]))
                wall_ref = record.get("metrics", {}).get("wall_ref", {}).get("value")
                print(f"{side} {workload} seed {seed}: correct={record['correct']} "
                      f"wall_ref={wall_ref}", file=sys.stderr)
    summary = summarize(runs)
    out = {
        "label": args.label,
        "command": f"perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": args.workloads,
        "env": envs,
        "runs": runs,
        "summary": summary,
        "wins": pair_wins(runs, directions) if args.baseline else None,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(markdown(summary))
    bad = [r for r in runs if not r["correct"]]
    for r in bad:
        print(f"error: {r['side']} {r['workload']} seed {r['seed']} is not correct",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
