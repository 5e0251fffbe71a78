"""The presets' shared runner: write the 6-node demo graph as demo.edgelist
next to the output, then run a `postman` subcommand on it with the preset's
arguments and this script's own appended (a flag given overrides the preset)."""

import sys
from pathlib import Path

from postman import cli
from postman.graphs import Graph, write_edge_list

DEMO_EDGES = [
    (0, 1, 2), (0, 2, 5), (0, 4, 3), (1, 3, 5),
    (1, 4, 1), (2, 3, 6), (2, 5, 2), (3, 5, 1),
]


def run(command: str, preset: list[str]) -> int:
    argv = [command, "demo.edgelist", *preset, *sys.argv[1:]]
    out = Path(cli.build_parser().parse_args(argv).out)
    out.parent.mkdir(parents=True, exist_ok=True)
    argv[1] = str(out.parent / "demo.edgelist")
    Path(argv[1]).write_text(write_edge_list(Graph(6, DEMO_EDGES), comments=["demo"]))
    return cli.main(argv)
