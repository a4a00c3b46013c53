#!/usr/bin/env python3
"""Steadiness report for the end-to-end metrics of one workload.

Runs perfbench/run.py once per seed and prints, for every end-to-end metric
of BENCHMARK.json, the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound. Each run's
calibration-loop ns/op and failed share are printed too, so a drifting set
of runs can be told from a code change.

    python3 perfbench/steady.py --workload ingest --seeds 1-10 --out a.json
    python3 perfbench/steady.py --compare a.json b.json

Every run lasts BENCHMARK.json's run_seconds. --compare is the two-set
check on two sets of the same workload and run length: for every metric
the second set's median may not be worse than the first's by more than the
bound, and every spread but that of setup_s must stay within its bound.
setup_s is gated by its median alone, as the benchmark's acceptance rule
has it.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, spec):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run failed: workload {workload} seed {seed}")
    result = json.loads(lines[-1])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        raise SystemExit(f"seed {seed}: metrics differ from BENCHMARK.json: {sorted(got)}")
    if not result["correct"] or result["failed"]:
        sys.stderr.write(f"seed {seed}: run not clean; its report lines follow\n")
        sys.stderr.write("\n".join(l for l in lines if "FAILED" in l or "MISMATCH" in l) + "\n")
    calibration = [float(m) for m in re.findall(r"calibration_ns_per_op: ([0-9.]+)",
                                                proc.stdout)]
    return {"seed": seed, "result": result, "calibration_ns_per_op": calibration}


def summarize(runs, spec):
    """Per metric: median, quartiles, spread, bound and verdict."""
    rows = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metric["bound"]
        if name == "setup_s":
            verdict = "median only"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
        rows.append({"name": name, "unit": metric["unit"], "better": metric["better"],
                     "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                     "verdict": verdict})
    return rows


def print_report(data, spec):
    runs = data["runs"]
    print(f"workload {data['workload']}: {len(runs)} runs, seeds "
          f"{', '.join(str(r['seed']) for r in runs)}")
    for r in runs:
        res = r["result"]
        share = res["failed"] / res["attempted"]
        cal = " / ".join(f"{c:.4f}" for c in r["calibration_ns_per_op"])
        print(f"  seed {r['seed']:>4}: calibration {cal} ns/op, failed share {share:.6f}, "
              f"correct {res['correct']}")
    print(f"  {'metric':<24} {'median':>13} {'q1':>13} {'q3':>13} {'spread':>8} "
          f"{'bound':>6} {'spread/bound':>12}  verdict")
    for row in summarize(runs, spec):
        print(f"  {row['name']:<24} {row['median']:>13.6g} {row['q1']:>13.6g} "
              f"{row['q3']:>13.6g} {row['spread']:>8.4f} {row['bound']:>6.3f} "
              f"{row['spread'] / row['bound']:>12.3f}  {row['verdict']}")


def compare(first, second, spec):
    for key in ("workload", "seconds"):
        if first[key] != second[key]:
            print(f"sets differ in {key}: {first[key]} vs {second[key]}; not comparable")
            return 1
    a = {row["name"]: row for row in summarize(first["runs"], spec)}
    b = {row["name"]: row for row in summarize(second["runs"], spec)}
    ok = True
    print(f"workload {first['workload']}: second set vs first set")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        m1, m2 = a[name]["median"], b[name]["median"]
        worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
        spreads_ok = name == "setup_s" or (a[name]["spread"] <= metric["bound"] and
                                           b[name]["spread"] <= metric["bound"])
        good = worse <= metric["bound"] and spreads_ok
        ok = ok and good
        print(f"  {name:<24} first {m1:>13.6g} second {m2:>13.6g} worse by {worse:+.4f} "
              f"(bound {metric['bound']}) spreads {a[name]['spread']:.4f}/"
              f"{b[name]['spread']:.4f}  {'ok' if good else 'FAIL'}")
    print("accepted" if ok else "REJECTED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    spec = load_benchmark()

    if args.compare:
        with open(args.compare[0]) as f1, open(args.compare[1]) as f2:
            return compare(json.load(f1), json.load(f2), spec)
    if not args.workload:
        parser.error("--workload or --compare is required")
    seconds = spec["run_seconds"]
    data = {"workload": args.workload, "seconds": seconds, "runs": []}
    for seed in parse_seeds(args.seeds):
        data["runs"].append(run_once(args.workload, seed, seconds, spec))
        print(f"seed {seed} done", file=sys.stderr, flush=True)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(data, f, indent=1)
    print_report(data, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
