#!/usr/bin/env python3
"""Penalty sweep on the demo instance: a preset of `postman penalty-sweep`.

Writes the 6-node demo graph as demo.edgelist next to the output, then runs

    postman penalty-sweep demo.edgelist --p-grid 4,8,16,32 --reads 1000 --sweeps 500 \
        --seed 7 --out results/penalty_sweep.csv

with this script's arguments appended, so any `postman penalty-sweep` flag may
be given and overrides the preset. Rows are (p, p/N, exact gap between the two
lowest levels, P_gs for annealing, P_gs for tabu).
"""

from _demo import run

PRESET = [
    "--p-grid", "4,8,16,32", "--reads", "1000", "--sweeps", "500",
    "--seed", "7", "--out", "results/penalty_sweep.csv",
]


if __name__ == "__main__":
    raise SystemExit(run("penalty-sweep", PRESET))
