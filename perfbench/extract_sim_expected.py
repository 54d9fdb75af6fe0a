"""Extracts paper_sim's expected cycle counts from experiments_output.txt.

The deterministic prefix of experiments_output.txt holds the simulated
tables; each "unopt/opt (+x%)" cell there is a pair of kilocycle counts
rounded to the nearest thousand cycles.  This script writes one line per
cell, `paper_ref<TAB>row label<TAB>P<TAB>unopt_kc<TAB>opt_kc`, which the
benchmark compares its own simulated runs against.

    python3 perfbench/extract_sim_expected.py experiments_output.txt \
        > perfbench/paper_sim_expected.tsv
"""
import re
import sys

HEADER = re.compile(r"^== (Table \d+): ")
CELL = re.compile(r"(\d+)/(\d+) \([+-]?\d+%\)")


def extract(lines):
    ref, procs = None, None
    for line in lines:
        m = HEADER.match(line)
        if m:
            ref, procs = m.group(1), None
            continue
        if ref is None:
            continue
        if line.startswith("benchmark"):
            procs = [int(p) for p in re.findall(r"P=(\d+)", line)]
            continue
        cells = CELL.findall(line)
        if procs and cells:
            label = line[: CELL.search(line).start()].strip()
            for p, (u, o) in zip(procs, cells):
                yield f"{ref}\t{label}\t{p}\t{u}\t{o}"


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        for row in extract(f):
            print(row)
