#!/usr/bin/env python3
"""Chain-coupling sweep on the embedded demo instance: a preset of `postman jf-sweep`.

Writes the 6-node demo graph as demo.edgelist next to the output, then runs

    postman jf-sweep demo.edgelist --m 12 --p 8 --gauges 10 --seed 0 --out results/jf_sweep.csv

with this script's arguments appended, so any `postman jf-sweep` flag may be
given and overrides the preset (`--gauges 100` matches the study-scale
protocol but is ~10x slower). The output is a plot-ready CSV of success
probability per chain coupling and decode policy.
"""

import sys
from pathlib import Path

from postman import cli
from postman.graphs import Graph, write_edge_list

DEMO_EDGES = [
    (0, 1, 2), (0, 2, 5), (0, 4, 3), (1, 3, 5),
    (1, 4, 1), (2, 3, 6), (2, 5, 2), (3, 5, 1),
]
PRESET = ["--m", "12", "--p", "8", "--gauges", "10", "--seed", "0", "--out", "results/jf_sweep.csv"]


def main() -> int:
    argv = ["jf-sweep", "demo.edgelist", *PRESET, *sys.argv[1:]]
    out = Path(cli.build_parser().parse_args(argv).out)
    out.parent.mkdir(parents=True, exist_ok=True)
    argv[1] = str(out.parent / "demo.edgelist")
    Path(argv[1]).write_text(write_edge_list(Graph(6, DEMO_EDGES), comments=["demo"]))
    return cli.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
