"""Runs one workload over several seeds and reports each end-to-end
metric's median and spread (inter-quartile distance over median, with
statistics.quantiles(values, n=4)) against its bound in BENCHMARK.json.

    python3 perfbench/spread.py or_search 10        # seeds 1..10
    python3 perfbench/spread.py serve_mix 5 --first-seed 100
    python3 perfbench/spread.py or_search 10 --against 101

With --against S it runs a second set of seeds S.. alternately with the
first, so that a drift of the host's speed falls on both sets alike, and
also prints how far the second set's median lies from the first's, as a
share of the first, against the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(v):
    q1, med, q3 = statistics.quantiles(v, n=4)
    return med, (q3 - q1) / med


def flag(x, bound):
    return "ok" if x < bound / 3 else ("WIDE" if x > bound else "near")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("runs", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", type=int, default=None)
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    names = [m["name"] for m in spec["end_to_end"]]
    sets = {"A": a.first_seed} if a.against is None else {"A": a.first_seed, "B": a.against}
    values = {s: {n: [] for n in names} for s in sets}
    for k in range(a.runs):
        for s, first in sets.items():
            seed = first + k
            r = run(a.workload, seed, spec["run_seconds"])
            if not r["correct"] or r["failed"]:
                print(f"seed {seed}: failed {r['failed']} of {r['attempted']}")
            for n in names:
                values[s][n].append(r["metrics"][n]["value"])
            print(f"{s} seed {seed}: " + " ".join(
                f"{n}={r['metrics'][n]['value']:.4g}" for n in names), flush=True)
    for m in spec["end_to_end"]:
        line = f"{a.workload:16s} {m['name']:18s}"
        meds = {}
        for s in sets:
            med, sp = spread(values[s][m["name"]])
            meds[s] = med
            line += f"  {s} median {med:11.5g} spread {sp:6.3f} {flag(sp, m['bound']):4s}"
        if "B" in sets:
            d = (meds["B"] - meds["A"]) / meds["A"]
            line += f"  B-A {d:+6.3f} {'ok' if abs(d) <= m['bound'] else 'WIDE'}"
        print(line + f"  bound {m['bound']:.2f}")


if __name__ == "__main__":
    main()
