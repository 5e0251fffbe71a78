#!/usr/bin/env python3
"""Chain-coupling sweep on the embedded demo instance.

Compiles the 6-node demo graph at p=8 (12 logical variables), clique-embeds
it on a Chimera grid, and sweeps the intra-chain coupling, decoding the same
raw annealing samples under both chain policies. Output is a plot-ready CSV.
"""

import argparse
from pathlib import Path

from postman.chimera import chimera_graph, clique_embedding
from postman.exact import odd_pair_distances
from postman.graphs import Graph
from postman.metrics import curve_to_csv, jf_sweep
from postman.qubo import build_qubo, to_ising
from postman.samplers import Schedule, ground_state

DEMO_EDGES = [
    (0, 1, 2), (0, 2, 5), (0, 4, 3), (1, 3, 5),
    (1, 4, 1), (2, 3, 6), (2, 5, 2), (3, 5, 1),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=12)
    ap.add_argument("--p", type=int, default=8)
    ap.add_argument("--jf-grid", default="0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6,1.8,2.0")
    ap.add_argument("--reads", type=int, default=1000)
    ap.add_argument("--sweeps", type=int, default=1000)
    ap.add_argument(
        "--gauges", type=int, default=10,
        help="spin-reversal count; 100 matches the study-scale protocol but is ~10x slower",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/jf_sweep.csv")
    args = ap.parse_args()

    g = Graph(6, DEMO_EDGES)
    model = build_qubo(odd_pair_distances(g), args.p)
    logical = to_ising(model)
    emb = clique_embedding(model.dim, chimera_graph(args.m))
    reference = ground_state(logical).best().energy
    points = jf_sweep(
        logical,
        emb,
        [float(x) for x in args.jf_grid.split(",") if x],
        reference,
        schedule=Schedule(n_sweeps=args.sweeps),
        reads=args.reads,
        gauges=args.gauges,
        seed=args.seed,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(curve_to_csv(points))
    print(f"reference energy {reference}; {len(points)} rows -> {out}")


if __name__ == "__main__":
    main()
