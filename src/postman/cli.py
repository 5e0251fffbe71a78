"""Command-line pipeline: generation, exact solving, compilation, sampling,
embedding, the annealer-style simulation loop, sweeps, defect scans, and
metric reports.

Exit codes: 0 success, 1 usage, 2 I/O failure, 3 domain error (one
`error: ...` line naming the violated precondition or the malformed input).
A flag that a subcommand does not take is a usage error. The subcommands
that draw random numbers (gen, sample, simulate, jf-sweep, penalty-sweep,
metrics) take `--seed`, default POSTMAN_SEED or 0, and record it in their
output; those with two output forms (qubo, sample, jf-sweep, penalty-sweep)
take `--format json|csv`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import chimera, defects, exact, graphs, metrics, qubo, samplers
from .errors import InvalidArgumentError, ParseError, PenaltyTooSmallError, PostmanError
from .numbers import finite_or_str, parse_grid, parse_number, to_jsonable


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # refuse extras here, so a subcommand's own parser names itself in the error
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return args, extras


# Options taken by more than one subcommand, declared once.
_SHARED = {
    "--reads": dict(type=int, default=1000),
    "--sweeps": dict(type=int, default=1000),
    "--beta-start": dict(type=float, default=0.1),
    "--beta-end": dict(type=float, default=5.0),
    "--p": dict(dest="penalty", default=None, help="penalty constant (default d)"),
    "--m": dict(type=int, default=12, help="Chimera grid size"),
    "--embedding": dict(help="embedding JSON to use instead of the built-in clique embedding"),
    "--gauges": dict(type=int, default=0),
    "--policy": dict(choices=(*(p.value for p in chimera.DecodePolicy), "both"), default="both"),
    "--anneal-time": dict(type=float, default=metrics.DEFAULT_ANNEAL_TIME),
    "--restarts": dict(type=int, default=20),
}
_SCHEDULE = ("--reads", "--sweeps", "--beta-start", "--beta-end")
_PIPELINE = ("--p", "--m", "--embedding", "--gauges", "--policy", "--anneal-time")


def build_parser() -> _Parser:
    parser = _Parser(prog="postman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a string default goes through type=int, so a bad POSTMAN_SEED is a usage error
    seed_default = os.environ.get("POSTMAN_SEED", "0")

    def command(name, help, *shared, needs_input=True, seed=False, fmt=None):
        p = sub.add_parser(name, help=help)
        if needs_input:
            p.add_argument("input", help="input file")
        p.add_argument("--out", help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=seed_default,
                           help="master seed (default POSTMAN_SEED or 0)")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=fmt)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    p = command("gen", "generate a random non-Eulerian ensemble", needs_input=False, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--edge-prob", type=float, default=0.4)
    p.add_argument("--w-lo", type=int, default=1)
    p.add_argument("--w-hi", type=int, default=1)

    p = command("exact", "solve the route-inspection problem exactly")
    p.add_argument("--circuit", action="store_true", help="include a closed route")

    # the .qubo text form by default; --format json for JSON
    command("qubo", "compile a graph into a .qubo file", "--p", fmt="csv")

    p = command("sample", "run a sampler on a .qubo file", *_SCHEDULE, "--restarts",
                seed=True, fmt="json")
    p.add_argument("--sampler", choices=("sa", "tabu", "brute"), default="sa")
    p.add_argument("--tenure", type=int, default=10)
    p.add_argument("--keep", type=int, default=1)

    p = command("embed", "clique-embed a model on a Chimera grid", "--m", needs_input=False)
    p.add_argument("--qubo", help=".qubo file whose dimension sets the clique size")
    p.add_argument("--n-logical", type=int, help="explicit clique size")
    p.add_argument("--faults", help="file of faulty qubit ids, one per line")

    p = command("simulate", "full embedded-annealing pipeline on a graph", *_SCHEDULE, *_PIPELINE,
                seed=True)
    p.add_argument("--jf", type=float, default=1.0)
    p.add_argument("--autoscale", action="store_true")

    p = command("jf-sweep", "success probability vs intra-chain coupling", *_SCHEDULE, *_PIPELINE,
                seed=True, fmt="csv")
    p.add_argument("--jf-grid", default="0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6,1.8,2.0")

    p = command("penalty-sweep", "gap and sampler success vs penalty", *_SCHEDULE, "--restarts",
                seed=True, fmt="csv")
    p.set_defaults(reads=400, sweeps=500)
    p.add_argument("--p-grid", default="", help="comma list; default d,2d,4d,8d")

    p = command("defects", "exact defect maps over edge combinations")
    p.add_argument("--k", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--deltas", default=",".join(str(d) for d in defects.DEFAULT_DELTAS))

    p = command("metrics", "success metrics from a sample-set file", "--anneal-time", seed=True)
    p.add_argument("--reference", required=True, help="exact reference energy")
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


def _read_json(path: str):
    """The one parse of every JSON input; a syntax error exits 3 (`main`)."""
    return json.loads(Path(path).read_text())


def _load_graph(path: str) -> graphs.Graph:
    if path.endswith(".json"):
        return graphs.graph_from_json(_read_json(path))
    return graphs.read_edge_list(Path(path).read_text())


def _load_qubo(path: str) -> qubo.QuboModel:
    if path.endswith(".json"):
        return qubo.qubo_from_json(_read_json(path))
    return qubo.read_qubo(Path(path).read_text())


def _policies(name: str) -> tuple[chimera.DecodePolicy, ...]:
    return tuple(chimera.DecodePolicy) if name == "both" else (chimera.DecodePolicy(name),)


def _json_dump(obj) -> str:
    # strict JSON: infinities are written as strings (`finite_or_str`), and a
    # NaN or infinity that reaches here unconverted raises
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _schedule(args: argparse.Namespace) -> samplers.Schedule:
    return samplers.Schedule(
        beta_start=args.beta_start, beta_end=args.beta_end, n_sweeps=args.sweeps
    )


def _penalty(args: argparse.Namespace):
    return None if args.penalty is None else parse_number(args.penalty)


# --- subcommand handlers ----------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    spec = graphs.EnsembleSpec(
        n=args.n,
        edge_prob=args.edge_prob,
        count=args.count,
        seed=args.seed,
        w_lo=args.w_lo,
        w_hi=args.w_hi,
    )
    chunks = []
    for index in range(spec.count):
        g = graphs.random_graph(spec, index)
        f = graphs.graph_features(g)
        comments = [
            f"generated seed={args.seed} index={index} n={spec.n} p={spec.edge_prob}",
            f"features d={f.d} c_max={f.c_max} c_min={f.c_min} c_1={f.c_1}",
        ]
        chunks.append((index, graphs.write_edge_list(g, comments)))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for index, text in chunks:
            (out_dir / f"g{index:04d}.edgelist").write_text(text)
        sys.stdout.write(f"wrote {len(chunks)} graphs to {out_dir}\n")
    else:
        sys.stdout.write("".join(text for _, text in chunks))
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    sol = exact.solve(_load_graph(args.input), with_circuit=args.circuit)
    _emit(_json_dump(sol.to_json()), args.out)
    return 0


def cmd_qubo(args: argparse.Namespace) -> int:
    table = exact.odd_pair_distances(_load_graph(args.input))
    model = qubo.build_qubo(table, _penalty(args))
    if args.fmt == "json":
        _emit(_json_dump(qubo.qubo_to_json(model)), args.out)
    else:
        _emit(qubo.write_qubo(model), args.out)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    model = _load_qubo(args.input)
    if args.sampler == "brute":
        result = samplers.brute_force(model, keep=args.keep)
    elif args.sampler == "tabu":
        result = samplers.tabu_search(
            model, tenure=args.tenure, max_restarts=args.restarts, seed=args.seed
        )
    else:
        result = samplers.simulated_annealing(
            model, schedule=_schedule(args), reads=args.reads, seed=args.seed
        )
    if args.fmt == "csv":
        _emit(result.to_csv(), args.out)
    else:
        _emit(_json_dump(result.to_json()), args.out)
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


def cmd_embed(args: argparse.Namespace) -> int:
    if args.n_logical is not None:
        n_logical = args.n_logical
    elif args.qubo:
        n_logical = _load_qubo(args.qubo).dim
    else:
        raise ParseError("embed needs --n-logical or --qubo")
    topo = chimera.chimera_graph(args.m, _read_faults(args.faults))
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
    _emit(_json_dump(payload), args.out)
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


def _pipeline_pieces(args: argparse.Namespace):
    table = exact.odd_pair_distances(_load_graph(args.input))
    model = qubo.build_qubo(table, _penalty(args))
    logical = qubo.to_ising(model)
    if args.embedding:
        emb = chimera.Embedding.from_json(_read_json(args.embedding))
    else:
        emb = chimera.clique_embedding(model.dim, chimera.chimera_graph(args.m))
    return model, logical, emb, _exact_reference(table, model)


def cmd_simulate(args: argparse.Namespace) -> int:
    model, logical, emb, reference = _pipeline_pieces(args)
    embedded = chimera.embed_ising(logical, emb, args.jf)
    factor = 1
    if args.autoscale:
        scaled, factor = chimera.autoscale(embedded.model)
        embedded = dataclasses.replace(embedded, model=scaled)
    schedule = _schedule(args)
    metrics._check_anneal_time(args.anneal_time)
    physical = metrics.sample_embedded(embedded, schedule, args.reads, args.gauges, seed=args.seed)
    report = {
        "seed": args.seed,
        "jf": args.jf,
        "gauges": args.gauges,
        "reads": args.reads,
        "penalty": to_jsonable(model.penalty),
        "reference_energy": to_jsonable(reference),
        "autoscale_factor": to_jsonable(factor),
        "physical_qubits": len(embedded.qubit_order),
        "policies": {},
    }
    for policy, prob, t99, broken in metrics._policy_outcomes(
        physical, emb, logical, reference, _policies(args.policy), args.anneal_time
    ):
        report["policies"][policy.value] = {
            "p_gs": float(prob),
            "t_99": finite_or_str(t99),
            "broken_fraction": broken,
        }
    _emit(_json_dump(report), args.out)
    return 0


def cmd_jf_sweep(args: argparse.Namespace) -> int:
    model, logical, emb, reference = _pipeline_pieces(args)
    points = metrics.jf_sweep(
        logical,
        emb,
        parse_grid("--jf-grid", args.jf_grid, float),
        reference,
        schedule=_schedule(args),
        reads=args.reads,
        policies=_policies(args.policy),
        gauges=args.gauges,
        seed=args.seed,
        anneal_time=args.anneal_time,
    )
    if args.fmt == "json":
        payload = {
            "seed": args.seed,
            "reference_energy": to_jsonable(reference),
            "points": [
                {
                    **dataclasses.asdict(pt),
                    "p_gs": float(pt.p_gs),
                    "t_99": finite_or_str(pt.t_99),
                }
                for pt in points
            ],
        }
        _emit(_json_dump(payload), args.out)
    else:
        _emit(metrics.curve_to_csv(points), args.out)
    return 0


def cmd_penalty_sweep(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    table = exact.odd_pair_distances(g)
    d = table.d
    grid = parse_grid("--p-grid", args.p_grid) if args.p_grid else [d, 2 * d, 4 * d, 8 * d]
    schedule = _schedule(args)
    if args.reads < 1:
        raise InvalidArgumentError("need at least one read")
    if args.restarts < 1:
        raise InvalidArgumentError("need at least one restart")
    # every model in grid order here, so a bad p is refused before any search;
    # each p's gap, SA and tabu runs are then one unit over the cores
    models = [qubo.build_qubo(table, p) for p in grid]

    def row(model: qubo.QuboModel) -> dict:
        e0, _e1, gap = samplers.spectral_gap_large(model)
        sa = samplers.simulated_annealing(
            qubo.to_ising(model), schedule=schedule, reads=args.reads, seed=args.seed
        )
        tabu = samplers.tabu_search(model, max_restarts=args.restarts, seed=args.seed)
        return {
            "p": to_jsonable(model.penalty),
            "p_over_n": float(model.penalty) / g.n,
            "gap": float(gap),
            "e0": to_jsonable(e0),
            "p_gs_sa": float(metrics.p_gs(sa, e0)),
            "p_gs_tabu": float(metrics.p_gs(tabu, e0)),
        }

    rows = samplers._fan_out(row, models)
    if args.fmt == "json":
        _emit(_json_dump({"seed": args.seed, "rows": rows}), args.out)
    else:
        lines = ["p,p_over_n,gap,p_gs_sa,p_gs_tabu"]
        lines += [
            f"{r['p']},{r['p_over_n']},{r['gap']},{r['p_gs_sa']},{r['p_gs_tabu']}"
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_defects(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    scan = defects.defect_map(g, parse_grid("--deltas", args.deltas), k=args.k)
    if args.k == 1 and args.out and not args.out.endswith(".csv"):
        out_dir = Path(args.out)
        defects.write_heatmaps(scan, out_dir, "defects")
        sys.stdout.write(f"wrote {len(scan.deltas)} heatmaps to {out_dir}\n")
    else:
        _emit(defects.combos_csv(scan), args.out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    samples = samplers.SampleSet.from_json(_read_json(args.input))
    reference = parse_number(args.reference)
    prob = metrics.p_gs(samples, reference)
    indicators = metrics.success_indicators(samples, reference)
    mean, two_sigma = metrics.bootstrap(
        indicators, resamples=args.resamples, seed=args.seed
    )
    n_sweeps = samples.metadata.get("n_sweeps") if args.sweeps is None else args.sweeps
    n_vars = args.n
    if n_vars is None and samples.records and samples.records[0].config is not None:
        n_vars = len(samples.records[0].config)
    tts = None
    if n_sweeps is not None and n_vars is not None:
        if type(n_sweeps) is not int:
            raise ParseError(f"sample-set n_sweeps is not an integer: {n_sweeps!r}")
        tts = metrics.tts_sa(prob, n_vars, n_sweeps, args.tau_s)
    report = {
        "p_gs": to_jsonable(prob),
        "p_gs_float": float(prob),
        "t_99": finite_or_str(metrics.t_99(prob, args.anneal_time)),
        "tts": finite_or_str(tts),
        "bootstrap_mean": mean,
        "bootstrap_two_sigma": two_sigma,
        "metadata": {"seed": args.seed, "reference": to_jsonable(reference), "reads": samples.total_reads},
    }
    _emit(_json_dump(report), args.out)
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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
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
