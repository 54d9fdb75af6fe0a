"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload or_search --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  It builds perfbench/bench.exe and
bin/ace_serve.exe with dune (build output goes to standard error), then
runs the workload; the last line of standard output is the JSON result.
It exits non-zero, printing no result, when the checkout holds no
buildable source tree.
"""
import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVE = os.path.join("_build", "default", "bin", "ace_serve.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: no dune-project and lib/ here; run from a checkout root")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/bench.exe", "bin/ace_serve.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"run.py: build failed ({build.returncode})")
    args = [BENCH, *sys.argv[1:], "--serve-exe", SERVE]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
