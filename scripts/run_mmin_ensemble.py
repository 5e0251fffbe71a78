#!/usr/bin/env python3
"""Ensemble study: minimum extra-path weight vs. largest node degree.

Generates a unit-weight random non-Eulerian ensemble, solves every instance
exactly, and writes one scatter CSV per odd-node count d, mirroring the
three-panel layout (index, d, c_max, m_min per row).
"""

import argparse
from pathlib import Path

from postman.defects import group_by_d, mmin_vs_cmax, scatter_csv
from postman.errors import PostmanError
from postman.graphs import EnsembleSpec, random_graph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--count", type=int, default=10_000)
    ap.add_argument("--edge-prob", type=float, default=0.35)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/mmin_vs_cmax")
    args = ap.parse_args()

    # a refused argument or ensemble is one error line, before any directory is made
    try:
        spec = EnsembleSpec(n=args.n, edge_prob=args.edge_prob, count=args.count, seed=args.seed)
        points = mmin_vs_cmax(random_graph(spec, i) for i in range(spec.count))
    except PostmanError as exc:
        raise SystemExit(f"error: {exc}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    groups = group_by_d(points)
    for d, members in groups.items():
        path = out_dir / f"scatter_d{d}.csv"
        path.write_text(scatter_csv(members))
        at_floor = sum(1 for pt in members if pt.m_min == d // 2)
        print(f"d={d}: {len(members)} graphs, {at_floor} at the d/2 floor -> {path}")


if __name__ == "__main__":
    main()
