#!/usr/bin/env python3
"""Runs the benchmark over many seeds and compares sets of runs.

Run every workload ten times (seeds 1..10) in this checkout:
    python3 perfbench/compare.py run --runs 10 --out base.json

Alternate two checkouts, one run of each per seed, flipping which goes first:
    python3 perfbench/compare.py run --runs 10 --checkout ../parent \
        --checkout . --out pair.json

Summarise the spread of each end-to-end metric (median, quartiles, and the
interquartile range as a share of the median, against the metric's bound):
    python3 perfbench/compare.py spread base.json

Compare two sets (medians, and whether B is worse than A by more than the
bound in BENCHMARK.json):
    python3 perfbench/compare.py diff base.json change.json

Metric names, directions, bounds and the run length come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall_s = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        raise SystemExit(f"{checkout}: {workload} printed metrics "
                         f"{sorted(set(result['metrics']) ^ set(expected))} "
                         "that differ from BENCHMARK.json")
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "wall_s": wall_s,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cmd_run(args):
    spec = load_spec()
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    out = {"trace": args.trace, "checkouts": checkouts, "runs": {}}
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            order = checkouts if i % 2 == 0 else list(reversed(checkouts))
            for checkout in order:
                run = run_once(checkout, spec, workload, seed, args.trace)
                out["runs"].setdefault(checkout, {}).setdefault(
                    workload, []).append(run)
                shown = ", ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()
                                  if not args.trace)
                print(f"{os.path.basename(checkout) or checkout} {workload} "
                      f"seed={seed} correct={run['correct']} "
                      f"failed={run['failed']} {shown}", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)


def series(result, checkout=None):
    runs = result["runs"]
    key = checkout or next(iter(runs))
    return runs[key]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_spread(args):
    spec = load_spec()
    result = json.load(open(args.result))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for checkout, workloads in result["runs"].items():
        print(f"== {checkout}")
        for workload, runs in workloads.items():
            bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
            wall = statistics.median(r.get("wall_s", 0) for r in runs)
            print(f"{workload}: {len(runs)} runs, median wall {wall:.1f} s"
                  + (f", failures in seeds {bad}" if bad else ""))
            for name in bounds:
                values = [r["metrics"][name] for r in runs if name in r["metrics"]]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ("" if spread <= bounds[name] / 3 else
                        " above bound/3" if spread <= bounds[name] else
                        " ABOVE BOUND")
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
                print(f"  {name:22s} median {med:12.6g}  q1 {q1:12.6g}  "
                      f"q3 {q3:12.6g}  spread {spread:7.4f}  bound "
                      f"{bounds[name]:.2f}{flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")


def cmd_diff(args):
    spec = load_spec()
    base = json.load(open(args.base))
    change = json.load(open(args.change))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    regressed = False
    for workload, base_runs in series(base, args.base_checkout).items():
        change_runs = series(change, args.change_checkout).get(workload)
        if not change_runs:
            continue
        print(workload)
        for name, m in metrics.items():
            a = [r["metrics"][name] for r in base_runs]
            b = [r["metrics"][name] for r in change_runs]
            qa1, ma, qa3 = quartiles(a)
            _, mb, _ = quartiles(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread = (qa3 - qa1) / ma
            if worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"  {name:22s} {ma:12.6g} -> {mb:12.6g}  worse by "
                  f"{100 * worse:+7.2f}%  (bound {100 * m['bound']:.0f}%)  {verdict}")
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over consecutive seeds")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", help="comma-separated subset")
    run.add_argument("--checkout", action="append",
                     help="checkout to run in (repeat to alternate two)")
    run.add_argument("--trace", action="store_true", help="traced runs")
    run.add_argument("--out", required=True)
    spread = sub.add_parser("spread", help="median and quartile spread per metric")
    spread.add_argument("result")
    diff = sub.add_parser("diff", help="compare medians of two result files")
    diff.add_argument("base")
    diff.add_argument("change")
    diff.add_argument("--base-checkout")
    diff.add_argument("--change-checkout")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
    elif args.command == "spread":
        cmd_spread(args)
    else:
        sys.exit(cmd_diff(args))


if __name__ == "__main__":
    main()
