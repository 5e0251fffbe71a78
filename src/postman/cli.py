"""Command-line pipeline: generation, exact solving, compilation, sampling,
embedding, the annealer-style simulation loop, sweeps, defect scans, and
metric reports.

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 domain error (the message
names the violated precondition). Every stochastic subcommand records its
seed in the output metadata; POSTMAN_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import chimera, defects, exact, graphs, metrics, qubo, samplers
from .errors import ParseError, PenaltyTooSmallError, PostmanError
from .numbers import parse_number, to_jsonable


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand, paths, seed, format, and parameters."""

    command: str
    input_path: str | None
    out: str | None
    seed: int
    fmt: str
    params: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_seed() -> int:
    return int(os.environ.get("POSTMAN_SEED", "0"))


def build_parser() -> _Parser:
    parser = _Parser(prog="postman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, fmt_default="json"):
        if needs_input:
            p.add_argument("input", help="input file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="master seed (default POSTMAN_SEED or 0)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=fmt_default)

    p = sub.add_parser("gen", help="generate a random non-Eulerian ensemble")
    common(p, needs_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--edge-prob", type=float, default=0.4)
    p.add_argument("--w-lo", type=int, default=1)
    p.add_argument("--w-hi", type=int, default=1)

    p = sub.add_parser("exact", help="solve the route-inspection problem exactly")
    common(p)
    p.add_argument("--circuit", action="store_true", help="include a closed route")

    p = sub.add_parser("qubo", help="compile a graph into a .qubo file")
    common(p, fmt_default="csv")  # text format by default; --format json for JSON
    p.add_argument("--p", dest="penalty", default=None, help="penalty constant (default d)")

    p = sub.add_parser("sample", help="run a sampler on a .qubo file")
    common(p)
    p.add_argument("--sampler", choices=("sa", "tabu", "brute"), default="sa")
    p.add_argument("--reads", type=int, default=1000)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--beta-start", type=float, default=0.1)
    p.add_argument("--beta-end", type=float, default=5.0)
    p.add_argument("--tenure", type=int, default=10)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--keep", type=int, default=1)

    p = sub.add_parser("embed", help="clique-embed a model on a Chimera grid")
    common(p, needs_input=False)
    p.add_argument("--qubo", help=".qubo file whose dimension sets the clique size")
    p.add_argument("--n-logical", type=int, help="explicit clique size")
    p.add_argument("--m", type=int, default=12, help="Chimera grid size")
    p.add_argument("--faults", help="file of faulty qubit ids, one per line")

    p = sub.add_parser("simulate", help="full embedded-annealing pipeline on a graph")
    common(p)
    p.add_argument("--p", dest="penalty", default=None)
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--embedding", help="embedding JSON to use instead of the built-in clique embedding")
    p.add_argument("--jf", type=float, default=1.0)
    p.add_argument("--gauges", type=int, default=0)
    p.add_argument("--reads", type=int, default=1000)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--beta-start", type=float, default=0.1)
    p.add_argument("--beta-end", type=float, default=5.0)
    p.add_argument("--policy", choices=("majority", "discard", "both"), default="both")
    p.add_argument("--autoscale", action="store_true")
    p.add_argument("--anneal-time", type=float, default=metrics.DEFAULT_ANNEAL_TIME)

    p = sub.add_parser("jf-sweep", help="success probability vs intra-chain coupling")
    common(p, fmt_default="csv")
    p.add_argument("--p", dest="penalty", default=None)
    p.add_argument("--m", type=int, default=12)
    p.add_argument("--embedding", help="embedding JSON to use instead of the built-in clique embedding")
    p.add_argument("--jf-grid", default="0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6,1.8,2.0")
    p.add_argument("--gauges", type=int, default=0)
    p.add_argument("--reads", type=int, default=1000)
    p.add_argument("--sweeps", type=int, default=1000)
    p.add_argument("--beta-start", type=float, default=0.1)
    p.add_argument("--beta-end", type=float, default=5.0)
    p.add_argument("--policy", choices=("majority", "discard", "both"), default="both")
    p.add_argument("--anneal-time", type=float, default=metrics.DEFAULT_ANNEAL_TIME)

    p = sub.add_parser("penalty-sweep", help="gap and sampler success vs penalty")
    common(p, fmt_default="csv")
    p.add_argument("--p-grid", default="", help="comma list; default d,2d,4d,8d")
    p.add_argument("--reads", type=int, default=400)
    p.add_argument("--sweeps", type=int, default=500)
    p.add_argument("--beta-start", type=float, default=0.1)
    p.add_argument("--beta-end", type=float, default=5.0)
    p.add_argument("--restarts", type=int, default=20)

    p = sub.add_parser("defects", help="exact defect maps over edge combinations")
    common(p, fmt_default="csv")
    p.add_argument("--k", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--deltas", default=",".join(str(d) for d in defects.DEFAULT_DELTAS))

    p = sub.add_parser("metrics", help="success metrics from a sample-set file")
    common(p)
    p.add_argument("--reference", required=True, help="exact reference energy")
    p.add_argument("--anneal-time", type=float, default=metrics.DEFAULT_ANNEAL_TIME)
    p.add_argument("--n", type=int, default=None, help="size N for the sweep-cost formula")
    p.add_argument("--sweeps", type=int, default=None, help="n_s override for the sweep-cost formula")
    p.add_argument("--tau-s", type=float, default=metrics.DEFAULT_TAU_S)
    p.add_argument("--resamples", type=int, default=5000)

    return parser


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> graphs.Graph:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return graphs.graph_from_json(json.loads(text))
    return graphs.read_edge_list(text)


def _load_qubo(path: str) -> qubo.QuboModel:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return qubo.qubo_from_json(json.loads(text))
    return qubo.read_qubo(text)


def _policies(name: str) -> tuple[chimera.DecodePolicy, ...]:
    if name == "both":
        return (chimera.DecodePolicy.MAJORITY_VOTE, chimera.DecodePolicy.DISCARD_BROKEN)
    if name == "majority":
        return (chimera.DecodePolicy.MAJORITY_VOTE,)
    return (chimera.DecodePolicy.DISCARD_BROKEN,)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- subcommand handlers ----------------------------------------------------

def cmd_gen(cfg: RunConfig) -> int:
    spec = graphs.EnsembleSpec(
        n=cfg.params["n"],
        edge_prob=cfg.params["edge_prob"],
        count=cfg.params["count"],
        seed=cfg.seed,
        w_lo=cfg.params["w_lo"],
        w_hi=cfg.params["w_hi"],
    )
    chunks = []
    for index in range(spec.count):
        g = graphs.random_graph(spec, index)
        f = g.features()
        comments = [
            f"generated seed={cfg.seed} index={index} n={spec.n} p={spec.edge_prob}",
            f"features d={f.d} c_max={f.c_max} c_min={f.c_min} c_1={f.c_1}",
        ]
        chunks.append((index, graphs.write_edge_list(g, comments)))
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, text in chunks:
            (out_dir / f"g{index:04d}.edgelist").write_text(text)
        sys.stdout.write(f"wrote {len(chunks)} graphs to {out_dir}\n")
    else:
        sys.stdout.write("".join(text for _, text in chunks))
    return 0


def cmd_exact(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input_path)
    sol = exact.solve(g, with_circuit=cfg.params["circuit"])
    _emit(_json_dump(sol.to_json()), cfg.out)
    return 0


def cmd_qubo(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input_path)
    table = exact.odd_pair_distances(g)
    penalty = None if cfg.params["penalty"] is None else parse_number(cfg.params["penalty"])
    model = qubo.build_qubo(table, penalty)
    if cfg.fmt == "json":
        _emit(_json_dump(qubo.qubo_to_json(model)), cfg.out)
    else:
        _emit(qubo.write_qubo(model), cfg.out)
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    model = _load_qubo(cfg.input_path)
    name = cfg.params["sampler"]
    if name == "brute":
        result = samplers.brute_force(model, keep=cfg.params["keep"])
    elif name == "tabu":
        result = samplers.tabu_search(
            model,
            tenure=cfg.params["tenure"],
            max_restarts=cfg.params["restarts"],
            seed=cfg.seed,
        )
    else:
        schedule = samplers.Schedule(
            beta_start=cfg.params["beta_start"],
            beta_end=cfg.params["beta_end"],
            n_sweeps=cfg.params["sweeps"],
        )
        ising = qubo.to_ising(model)
        spins = samplers.simulated_annealing(
            ising, schedule=schedule, reads=cfg.params["reads"], seed=cfg.seed
        )
        # s -> (s + 1) / 2 keeps each energy and, being monotone, the record order
        records = tuple(
            dataclasses.replace(r, config=tuple((s + 1) // 2 for s in r.config))
            for r in spins.records
        )
        result = samplers.SampleSet(records=records, metadata=spins.metadata)
    if cfg.fmt == "csv":
        _emit(result.to_csv(), cfg.out)
    else:
        _emit(_json_dump(result.to_json()), cfg.out)
    return 0


def _read_faults(path: str | None) -> list[int]:
    if not path:
        return []
    out = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError:
            raise ParseError(f"not a qubit id: {line!r}", lineno) from None
    return out


def cmd_embed(cfg: RunConfig) -> int:
    if cfg.params["n_logical"] is not None:
        n_logical = cfg.params["n_logical"]
    elif cfg.params["qubo"]:
        n_logical = _load_qubo(cfg.params["qubo"]).dim
    else:
        raise ParseError("embed needs --n-logical or --qubo")
    topo = chimera.chimera_graph(cfg.params["m"], _read_faults(cfg.params["faults"]))
    emb = chimera.clique_embedding(n_logical, topo)
    stats = chimera.chain_stats(emb)
    ecc = chimera.eccentricity_stats(emb)
    payload = emb.to_json()
    payload["stats"] = {
        "physical_qubits": stats.physical_qubits,
        "max_chain_length": stats.max_chain_length,
        "chains_at_max": stats.chains_at_max,
        "eccentricity": dataclasses.asdict(ecc),
        "topology_qubits": topo.node_count,
    }
    _emit(_json_dump(payload), cfg.out)
    return 0


def _exact_reference(table: exact.OddPairDistances, model: qubo.QuboModel):
    """Certified ground energy of the compiled model: the exact M_min.

    Any assignment violating the pairing constraints carries penalty at least
    2p (a parity argument rules out a single unit of violation), so M_min is
    the ground energy when M_min < 2p. Otherwise PenaltyTooSmallError names the
    smallest integer p that certifies it, max(d, floor(M_min/2) + 1).
    """
    matching_weight = exact.minimum_matching(table).weight
    if matching_weight < 2 * model.penalty:
        return matching_weight
    raise PenaltyTooSmallError(
        f"M_min {matching_weight} >= 2p = {2 * model.penalty} leaves the reference energy"
        f" uncertified; use --p {max(table.d, matching_weight // 2 + 1)} or more"
    )


def _pipeline_pieces(cfg: RunConfig):
    table = exact.odd_pair_distances(_load_graph(cfg.input_path))
    penalty = None if cfg.params["penalty"] is None else parse_number(cfg.params["penalty"])
    model = qubo.build_qubo(table, penalty)
    logical = qubo.to_ising(model)
    if cfg.params.get("embedding"):
        emb = chimera.Embedding.from_json(json.loads(Path(cfg.params["embedding"]).read_text()))
    else:
        emb = chimera.clique_embedding(model.dim, chimera.chimera_graph(cfg.params["m"]))
    reference = _exact_reference(table, model)
    schedule = samplers.Schedule(
        beta_start=cfg.params["beta_start"],
        beta_end=cfg.params["beta_end"],
        n_sweeps=cfg.params["sweeps"],
    )
    return model, logical, emb, reference, schedule


def cmd_simulate(cfg: RunConfig) -> int:
    model, logical, emb, reference, schedule = _pipeline_pieces(cfg)
    embedded = chimera.embed_ising(logical, emb, cfg.params["jf"])
    factor = 1
    if cfg.params["autoscale"]:
        scaled, factor = chimera.autoscale(embedded.model)
        embedded = dataclasses.replace(embedded, model=scaled)
    physical = metrics.sample_embedded(
        embedded, schedule, cfg.params["reads"], cfg.params["gauges"], seed=cfg.seed
    )
    report = {
        "seed": cfg.seed,
        "jf": cfg.params["jf"],
        "gauges": cfg.params["gauges"],
        "reads": cfg.params["reads"],
        "penalty": to_jsonable(model.penalty),
        "reference_energy": to_jsonable(reference),
        "autoscale_factor": to_jsonable(factor),
        "physical_qubits": len(embedded.qubit_order),
        "policies": {},
    }
    for policy in _policies(cfg.params["policy"]):
        decoded, broken = metrics.decode_sampleset(physical, emb, logical, policy)
        prob = metrics.p_gs(decoded, reference)
        report["policies"][policy.value] = {
            "p_gs": float(prob),
            "t_99": metrics.finite_or_str(metrics.t_99(prob, cfg.params["anneal_time"])),
            "broken_fraction": broken,
        }
    _emit(_json_dump(report), cfg.out)
    return 0


def cmd_jf_sweep(cfg: RunConfig) -> int:
    model, logical, emb, reference, schedule = _pipeline_pieces(cfg)
    grid = [float(x) for x in cfg.params["jf_grid"].split(",") if x]
    points = metrics.jf_sweep(
        logical,
        emb,
        grid,
        reference,
        schedule=schedule,
        reads=cfg.params["reads"],
        policies=_policies(cfg.params["policy"]),
        gauges=cfg.params["gauges"],
        seed=cfg.seed,
        anneal_time=cfg.params["anneal_time"],
    )
    if cfg.fmt == "json":
        payload = {
            "seed": cfg.seed,
            "reference_energy": to_jsonable(reference),
            "points": [
                {
                    **dataclasses.asdict(pt),
                    "p_gs": float(pt.p_gs),
                    "t_99": metrics.finite_or_str(pt.t_99),
                }
                for pt in points
            ],
        }
        _emit(_json_dump(payload), cfg.out)
    else:
        _emit(metrics.curve_to_csv(points), cfg.out)
    return 0


def cmd_penalty_sweep(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input_path)
    table = exact.odd_pair_distances(g)
    d = table.d
    if cfg.params["p_grid"]:
        grid = [parse_number(x) for x in cfg.params["p_grid"].split(",") if x]
    else:
        grid = [d, 2 * d, 4 * d, 8 * d]
    schedule = samplers.Schedule(
        beta_start=cfg.params["beta_start"],
        beta_end=cfg.params["beta_end"],
        n_sweeps=cfg.params["sweeps"],
    )
    rows = []
    for p in grid:
        model = qubo.build_qubo(table, p)
        e0, e1, gap = samplers.spectral_gap_large(model)
        ising = qubo.to_ising(model)
        sa = samplers.simulated_annealing(
            ising, schedule=schedule, reads=cfg.params["reads"], seed=cfg.seed
        )
        tabu = samplers.tabu_search(
            model, max_restarts=cfg.params["restarts"], seed=cfg.seed
        )
        rows.append(
            {
                "p": to_jsonable(p),
                "p_over_n": float(p) / g.n,
                "gap": float(gap),
                "e0": to_jsonable(e0),
                "p_gs_sa": float(metrics.p_gs(sa, e0)),
                "p_gs_tabu": float(metrics.p_gs(tabu, e0)),
            }
        )
    if cfg.fmt == "json":
        _emit(_json_dump({"seed": cfg.seed, "rows": rows}), cfg.out)
    else:
        lines = ["p,p_over_n,gap,p_gs_sa,p_gs_tabu"]
        lines += [
            f"{r['p']},{r['p_over_n']},{r['gap']},{r['p_gs_sa']},{r['p_gs_tabu']}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_defects(cfg: RunConfig) -> int:
    g = _load_graph(cfg.input_path)
    deltas = [parse_number(x) for x in cfg.params["deltas"].split(",") if x]
    scan = defects.defect_map(g, deltas, k=cfg.params["k"])
    if cfg.params["k"] == 1 and cfg.out and not cfg.out.endswith(".csv"):
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for delta in scan.deltas:
            (out_dir / f"defects_delta_{delta}.csv").write_text(
                defects.heatmap_csv(scan, delta)
            )
        sys.stdout.write(f"wrote {len(scan.deltas)} heatmaps to {out_dir}\n")
    else:
        _emit(defects.combos_csv(scan), cfg.out)
    return 0


def cmd_metrics(cfg: RunConfig) -> int:
    payload = json.loads(Path(cfg.input_path).read_text())
    samples = samplers.SampleSet.from_json(payload)
    reference = parse_number(cfg.params["reference"])
    prob = metrics.p_gs(samples, reference)
    indicators = metrics.success_indicators(samples, reference)
    mean, two_sigma = metrics.bootstrap(
        indicators, resamples=cfg.params["resamples"], seed=cfg.seed
    )
    n_sweeps = cfg.params["sweeps"] or samples.metadata.get("n_sweeps")
    n_vars = cfg.params["n"]
    if n_vars is None and samples.records and samples.records[0].config is not None:
        n_vars = len(samples.records[0].config)
    tts = None
    if n_sweeps and n_vars:
        tts = metrics.tts_sa(prob, n_vars, int(n_sweeps), cfg.params["tau_s"])
    report = metrics.MetricsReport(
        p_gs=prob,
        t_99=metrics.t_99(prob, cfg.params["anneal_time"]),
        tts=tts,
        bootstrap_mean=mean,
        bootstrap_two_sigma=two_sigma,
        metadata={"seed": cfg.seed, "reference": to_jsonable(reference), "reads": samples.total_reads},
    )
    _emit(_json_dump(report.to_json()), cfg.out)
    return 0


_HANDLERS = {
    "gen": cmd_gen,
    "exact": cmd_exact,
    "qubo": cmd_qubo,
    "sample": cmd_sample,
    "embed": cmd_embed,
    "simulate": cmd_simulate,
    "jf-sweep": cmd_jf_sweep,
    "penalty-sweep": cmd_penalty_sweep,
    "defects": cmd_defects,
    "metrics": cmd_metrics,
}


def _to_config(args: argparse.Namespace) -> RunConfig:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "input", "out", "seed", "fmt")
    }
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        out=args.out,
        seed=args.seed if args.seed is not None else _default_seed(),
        fmt=args.fmt,
        params=params,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = _to_config(args)
    try:
        return _HANDLERS[cfg.command](cfg)
    except PostmanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: malformed JSON input: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
