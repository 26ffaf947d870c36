#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json N times per workload, each run with
its own seed, and prints for every metric the median, the quartiles and
the spread (q3 - q1) / median against the metric's bound. A metric is
steady when its spread stays below a third of its bound (setup_s is
exempt from the spread rule). With --sets 2 it repeats the whole set and
also prints how far the second set's median moved from the first's, in
the worse direction, against the bound.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads put-large --trace 1

Run it from the checkout root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(args)} (exit {p.returncode})")
    res = json.loads(lines[-1])
    # Reference figures ("ref <name> <value> <unit>" lines) are reported
    # beside the metrics, without a bound.
    for line in lines[:-1]:
        f = line.split()
        if len(f) == 4 and f[0] == "ref":
            res["metrics"][f[1]] = {"value": float(f[2]), "unit": f[3]}
    return res


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--json-out", default="", help="write every run's result here")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        bounds.setdefault(m["name"], m)

    raw = {}
    steady = True
    for wl in names:
        medians = []
        for s in range(a.sets):
            results = []
            for i in range(a.runs):
                seed = a.seed_base + s * a.runs + i
                results.append(run_once(bench["command"], wl, seed, seconds, a.trace))
            raw[f"{wl}/set{s + 1}"] = results
            failed = {(r["failed"], r["attempted"]) for r in results}
            shares = sorted({f / n for f, n in failed})
            correct = all(r["correct"] for r in results)
            print(f"\n{wl} set {s + 1}: {a.runs} runs, seeds {a.seed_base + s * a.runs}.."
                  f"{a.seed_base + s * a.runs + a.runs - 1}, correct {correct}, failed shares {shares}")
            print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  ok")
            steady = steady and correct
            meds = {}
            for name in sorted(results[0]["metrics"]):
                vals = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, spread = summarize(vals)
                meds[name] = med
                bound = bounds.get(name, {}).get("bound")
                ok = ""
                if bound is not None and name != "setup_s":
                    ok = "yes" if spread < bound / 3 else "NO"
                    steady = steady and ok == "yes"
                print(f"  {name:34} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
                      f"{'' if bound is None else bound:>6}  {ok}")
            medians.append(meds)
        for s in range(1, len(medians)):
            print(f"\n{wl}: set {s + 1} median against set 1 (share worse; bound)")
            for name, m0 in sorted(medians[0].items()):
                meta = bounds.get(name)
                if not meta or "bound" not in meta:
                    continue
                m1 = medians[s][name]
                worse = (m1 - m0) / m0 if meta["better"] == "lower" else (m0 - m1) / m0
                ok = worse <= meta["bound"]
                steady = steady and ok
                print(f"  {name:34} {worse:+8.4f}  {meta['bound']}  {'yes' if ok else 'NO'}")
    if a.json_out:
        with open(a.json_out, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
