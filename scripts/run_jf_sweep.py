#!/usr/bin/env python3
"""Chain-coupling sweep on the embedded demo instance: a preset of `postman jf-sweep`.

Writes the 6-node demo graph as demo.edgelist next to the output, then runs

    postman jf-sweep demo.edgelist --m 12 --p 8 --gauges 10 --seed 0 --out results/jf_sweep.csv

with this script's arguments appended, so any `postman jf-sweep` flag may be
given and overrides the preset (`--gauges 100` matches the study-scale
protocol but is ~10x slower). The output is a plot-ready CSV of success
probability per chain coupling and decode policy.
"""

from _demo import run

PRESET = ["--m", "12", "--p", "8", "--gauges", "10", "--seed", "0", "--out", "results/jf_sweep.csv"]


if __name__ == "__main__":
    raise SystemExit(run("jf-sweep", PRESET))
