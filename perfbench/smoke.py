"""Smoke test of the benchmark: every workload at tiny size.

    python3 perfbench/smoke.py

For each workload it runs a tiny untraced and a tiny traced run and checks
that the result line has exactly the contract's keys, that every metric
of BENCHMARK.json's end-to-end (untraced) or per-layer (traced) list is
printed by name with its unit, and that nothing failed.  Then it runs
each workload once with one expected answer deliberately corrupted and
checks that the run reports the failure, and runs the generator's
coordinated-omission self-test against a stalling stub server.  Exits 1
on the first problem.
"""
import json
import subprocess
import sys

SPEC = json.load(open("BENCHMARK.json"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    return p


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main():
    for w in WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            p = bench("--workload", w, "--seed", "7", "--seconds", "1",
                      "--trace", trace, "--tiny")
            check(p.returncode == 0, f"{w} trace {trace} exited {p.returncode}: {p.stderr[-2000:]}")
            lines = p.stdout.strip().splitlines()
            r = json.loads(lines[-1])
            check(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result keys {sorted(r)}")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{w} trace {trace}: {r['failed']} of {r['attempted']} failed")
            names = [m["name"] for m in SPEC[group]]
            check(sorted(r["metrics"]) == sorted(names), f"{w}: metric names differ from {group}")
            report = {l.split()[0]: l.split()[2] for l in lines[:-1] if len(l.split()) == 3}
            for m in SPEC[group]:
                check(r["metrics"][m["name"]]["unit"] == m["unit"], f"{w}: unit of {m['name']}")
                check(report.get(m["name"]) == m["unit"], f"{w}: report line for {m['name']}")
            if trace == "0":
                check(report.get("failed_share") == "ratio", f"{w}: no failed_share line")
            else:
                check(r["metrics"]["failed_share"]["value"] == 0, f"{w}: failed_share not 0")
            print(f"ok   {w} trace {trace}: {r['attempted']} operations, 0 failed")
        p = bench("--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0",
                  "--tiny", "--corrupt")
        r = json.loads(p.stdout.strip().splitlines()[-1])
        check(not r["correct"] and r["failed"] > 0, f"{w}: a corrupted expected answer went unnoticed")
        print(f"ok   {w} corrupted reference: {r['failed']} of {r['attempted']} failed, as it must")
    p = bench("--workload", "stall_selftest", "--seed", "7")
    check(p.returncode == 0, f"stall self-test: {p.stdout}{p.stderr[-2000:]}")
    print("ok   " + p.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    main()
