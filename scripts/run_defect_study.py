#!/usr/bin/env python3
"""Defect fingerprinting: exact M_min heatmaps under weight bumps.

Picks reference graphs by feature filtering (a unit-weight n=10 instance
with d=8, and a weighted n=14 instance with two degree-1 nodes), then scans
every single-edge defect over the standard bump list and writes one heatmap
CSV per bump value. Degree-1 edges show the characteristic base+delta ridge.
"""

import argparse
from pathlib import Path

from postman.defects import DEFAULT_DELTAS, defect_map, write_heatmaps
from postman.errors import PostmanError
from postman.graphs import EnsembleSpec, graph_features, random_graph, write_edge_list
from postman.numbers import parse_grid


def find_reference(spec: EnsembleSpec, predicate, scan_limit=20_000):
    for index in range(scan_limit):
        g = random_graph(spec, index)
        if predicate(graph_features(g)):
            return g, index
    raise SystemExit(f"no matching reference graph in {scan_limit} draws")


def scan_and_write(tag, g, deltas, out_dir: Path):
    scan = defect_map(g, deltas=deltas, k=1)
    write_heatmaps(scan, out_dir, tag)
    (out_dir / f"{tag}.edgelist").write_text(write_edge_list(g, comments=[tag]))
    print(f"{tag}: base M_min={scan.base}, {len(scan.deltas)} heatmaps -> {out_dir}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--deltas", default=",".join(str(d) for d in DEFAULT_DELTAS))
    ap.add_argument("--out", default="results/defects")
    args = ap.parse_args()
    out_dir = Path(args.out)
    # a refused delta ends the run with the error line of `postman defects`; each
    # scan runs before its files are written, so it leaves none
    try:
        deltas = parse_grid("--deltas", args.deltas)

        unit_spec = EnsembleSpec(n=10, edge_prob=0.35, count=1, seed=args.seed)
        g10, idx = find_reference(unit_spec, lambda f: f.d == 8 and f.c_1 >= 1)
        scan_and_write("n10_d8_unit", g10, deltas, out_dir)

        weighted_spec = EnsembleSpec(n=14, edge_prob=0.18, count=1, seed=args.seed, w_lo=1, w_hi=5)
        g14, idx = find_reference(weighted_spec, lambda f: f.d == 4 and f.c_1 == 2)
        scan_and_write("n14_d4_weighted", g14, deltas, out_dir)
    except PostmanError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    main()
