#!/usr/bin/env python3
"""Penalty sweep on the demo instance: a preset of `postman penalty-sweep`.

Writes the 6-node demo graph as demo.edgelist next to the output, then runs

    postman penalty-sweep demo.edgelist --p-grid 4,8,16,32 --reads 1000 --sweeps 500 \
        --seed 7 --out results/penalty_sweep.csv

with this script's arguments appended, so any `postman penalty-sweep` flag may
be given and overrides the preset. Rows are (p, p/N, exact gap between the two
lowest levels, P_gs for annealing, P_gs for tabu).
"""

import sys
from pathlib import Path

from postman import cli
from postman.graphs import Graph, write_edge_list

DEMO_EDGES = [
    (0, 1, 2), (0, 2, 5), (0, 4, 3), (1, 3, 5),
    (1, 4, 1), (2, 3, 6), (2, 5, 2), (3, 5, 1),
]
PRESET = [
    "--p-grid", "4,8,16,32", "--reads", "1000", "--sweeps", "500",
    "--seed", "7", "--out", "results/penalty_sweep.csv",
]


def main() -> int:
    argv = ["penalty-sweep", "demo.edgelist", *PRESET, *sys.argv[1:]]
    out = Path(cli.build_parser().parse_args(argv).out)
    out.parent.mkdir(parents=True, exist_ok=True)
    argv[1] = str(out.parent / "demo.edgelist")
    Path(argv[1]).write_text(write_edge_list(Graph(6, DEMO_EDGES), comments=["demo"]))
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
