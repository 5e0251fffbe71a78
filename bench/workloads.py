"""The four benchmark workloads: the studies the toolkit exists to run.

Each workload first chooses its inputs from the seed (untimed): it makes
them through the program (`postman gen`) and computes their expected answers
with the independent checker. Its timed set-up then redoes only the program's
part, and whole rounds of one study follow. Every round's output is checked
against the checker or against properties the method must have.
The program is driven only through public names: `postman.cli.main` for the
CLI studies, and the library calls `scripts/run_mmin_ensemble.py` uses.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from postman import cli, defects, exact, graphs, qubo

from checker import ExactQuadratic, GraphAnswer, edge_pair_bumps, odd_nodes, parse_edge_list


# Graphs drawn per `postman gen` call, then the fallback if too few pass the
# filters. The first draw suffices for almost every seed (the rarest need, two
# d = 14 graphs from 128 n = 20 draws, fails about once in a thousand), so
# set-up does the same work whatever the seed.
DRAWS = (128, 512)


class SetupError(RuntimeError):
    """The seed's inputs could not be made; the run stops without a result."""


def run_cli(argv) -> tuple[int, str]:
    """`postman <argv>` in this process; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def gen(directory: Path, n: int, count: int, edge_prob: float, seed: int) -> None:
    """`postman gen` into `directory`."""
    rc, err = run_cli(["gen", "--n", n, "--count", count, "--edge-prob", edge_prob,
                       "--seed", seed, "--out", directory])
    if rc:
        raise SetupError(f"postman gen exited {rc}: {err.strip()}")


def generate(directory: Path, n: int, count: int, edge_prob: float, seed: int):
    """`postman gen` into `directory`; yields (file name, n, edges) per graph."""
    gen(directory, n, count, edge_prob, seed)
    for path in sorted(directory.glob("*.edgelist")):
        yield (path.name, *parse_edge_list(path.read_text()))


def first_graphs(directory: Path, n: int, edge_prob: float, seed: int, d: int, accept, count: int = 1):
    """The first `count` generated graphs with d odd nodes whose checker
    answers pass `accept`, as (graphs drawn, [(file name, answer)])."""
    for draws in DRAWS:
        found = []
        for name, size, edges in generate(directory / f"c{draws}", n, draws, edge_prob, seed):
            if len(odd_nodes(size, edges)) != d:
                continue
            answer = GraphAnswer(size, edges)
            if accept(answer):
                found.append((name, answer))
                if len(found) == count:
                    return draws, found
    raise SetupError(f"fewer than {count} graphs for n={n} p={edge_prob} seed={seed} pass the filter")


def compile_instance(path: Path, p=None):
    """The program's pass over one instance before a study: parse, odd-pair
    distances, the exact reference and, given p, the QUBO; returns the QUBO."""
    table = exact.odd_pair_distances(graphs.read_edge_list(path.read_text()))
    exact.minimum_matching(table)
    return qubo.build_qubo(table, p) if p is not None else None


def cross_pairing_gap(dist):
    """Gap between the two lowest weights of the pairings that match the first
    half of the odd nodes to the second half (None if they all tie).

    These pairings are the lowest energies the exact gap search attains with
    one half of the variables at zero, so this gap sets how many
    half-assignments it keeps, and with them its time and memory.
    """
    h = len(dist) // 2
    weights = sorted({sum(dist[i][h + j] for i, j in enumerate(perm)) for perm in permutations(range(h))})
    return weights[1] - weights[0] if len(weights) > 1 else None


def arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def exact_model(model) -> ExactQuadratic:
    """Checker view of a program model, from its coefficients alone."""
    if hasattr(model, "couplings"):
        return ExactQuadratic(model.offset, model.h, model.couplings)
    return ExactQuadratic(model.offset, model.linear, model.quadratic)


class Workload:
    name = ""
    capture: tuple[str, ...] = ()   # traced targets whose calls the checks read

    def __init__(self, seed: int):
        self.seed = seed
        self.notes: dict = {}           # figures from the traced checks, for the trace file

    def choose(self, directory: Path) -> None:
        """Untimed, once: pick the seed's instances and compute their expected
        answers with the checker."""
        raise NotImplementedError

    def setup(self, directory: Path) -> None:
        """Timed: the program's work before the first operation, into `directory`."""
        raise NotImplementedError

    def round(self, directory: Path) -> tuple[int, object | None]:
        """One timed round: (operations attempted, output or None if it failed)."""
        raise NotImplementedError

    def check(self, output, captures) -> list[str]:
        """Errors in one round's output; `captures` is None in untraced runs."""
        raise NotImplementedError


class JfSweepD8(Workload):
    name = "jf_sweep_d8"
    capture = ("chimera.embed_ising", "metrics.sample_embedded", "metrics.decode_sampleset")
    P = 8
    GRID = (1.0, 2.0)
    GAUGES = 2
    READS = 20          # the study's ratio: 10 reads per gauge
    SWEEPS = 25

    def choose(self, directory):
        def accept(answer):
            return answer.m_min < 2 * self.P

        self.draws, [(self.file, self.answer)] = first_graphs(directory, 12, 0.35, self.seed, 8, accept)

    def setup(self, directory):
        gen(directory, 12, self.draws, 0.35, self.seed)
        self.path = directory / self.file
        model = compile_instance(self.path, self.P)
        if model.dim != 56:
            raise SetupError(f"d=8 instance compiled to {model.dim} variables, not 56")

    def round(self, directory):
        out = directory / "jf.json"
        rc, _ = run_cli(["jf-sweep", self.path, "--m", 14, "--p", self.P,
                         "--jf-grid", ",".join(map(str, self.GRID)), "--gauges", self.GAUGES,
                         "--reads", self.READS, "--sweeps", self.SWEEPS, "--seed", self.seed,
                         "--format", "json", "--out", out])
        return self.READS * len(self.GRID), (out.read_text() if rc == 0 else None)

    def check(self, output, captures):
        errors = []
        m_min = self.answer.m_min
        data = json.loads(output)
        if Fraction(str(data["reference_energy"])) != m_min:
            errors.append(f"reference_energy {data['reference_energy']} != checker M_min {m_min}")
        if not m_min < 2 * self.P:
            errors.append(f"M_min {m_min} is not below 2p = {2 * self.P}")
        points = data["points"]
        if sorted((pt["jf"], pt["policy"]) for pt in points) != sorted(
            (jf, pol) for jf in self.GRID for pol in ("discard", "majority")
        ):
            errors.append("jf-sweep points do not cover the grid under both policies")
        broken = {}
        for pt in points:
            if pt["reads"] != self.READS or not 0 <= pt["p_gs"] <= 1:
                errors.append(f"bad point {pt}")
            broken.setdefault(pt["jf"], set()).add(pt["broken_fraction"])
            if pt["policy"] == "discard":
                hits, lost = round(pt["p_gs"] * self.READS), round(pt["broken_fraction"] * self.READS)
                if hits + lost > self.READS:
                    errors.append(f"discard p_gs {pt['p_gs']} > 1 - broken {pt['broken_fraction']}")
        errors += [f"broken_fraction differs between policies at jf={jf}" for jf, v in broken.items() if len(v) != 1]
        if captures is not None:
            errors += self._check_traced(captures)
        return errors

    def _check_traced(self, captures) -> list[str]:
        errors = []
        m_min = self.answer.m_min
        logical_of = {}
        for args, kwargs, embedded in captures["chimera.embed_ising"]:
            logical_of[id(embedded)] = arg(args, kwargs, 0, "logical")
        checked = unbroken = 0
        for args, kwargs, physical in captures["metrics.sample_embedded"]:
            embedded = arg(args, kwargs, 0, "embedded")
            phys = exact_model(embedded.model)
            logical = exact_model(logical_of[id(embedded)])
            pos = {q: i for i, q in enumerate(embedded.qubit_order)}
            chains = [[pos[q] for q in chain] for chain in embedded.embedding.chains]
            for record in physical.records:
                if record.config is None:
                    continue
                checked += 1
                if phys.energy(record.config) != record.energy:
                    errors.append(f"stored physical energy {record.energy} is not exact")
                spins = [record.config[c[0]] for c in chains]
                if all(record.config[i] == s for c, s in zip(chains, spins) for i in c):
                    unbroken += 1
                    if record.energy != logical.energy(spins) + embedded.constant:
                        errors.append("unbroken read: physical != logical + constant")
            # The same identity on chain-aligned copies of the first reads' decodes.
            for record in physical.records[:4]:
                if record.config is None:
                    continue
                spins = [1 if sum(record.config[i] for i in c) >= 0 else -1 for c in chains]
                aligned = [0] * phys.n
                for c, s in zip(chains, spins):
                    for i in c:
                        aligned[i] = s
                if phys.energy(aligned) != logical.energy(spins) + embedded.constant:
                    errors.append("chain-aligned config: physical != logical + constant")
        for args, kwargs, (decoded, _broken) in captures["metrics.decode_sampleset"]:
            logical = exact_model(arg(args, kwargs, 2, "logical_model"))
            for record in decoded.records:
                if record.config is None:
                    continue
                if record.energy < m_min:
                    errors.append(f"decoded energy {record.energy} below M_min {m_min}")
                if logical.energy(record.config) != record.energy:
                    errors.append(f"decoded energy {record.energy} is not exact")
        if checked == 0:
            errors.append("traced run captured no physical reads")
        self.notes = {"physical_reads_checked": checked, "unbroken_reads": unbroken}
        return errors


class PenaltySweepD6(Workload):
    name = "penalty_sweep_d6"
    capture = ("samplers.spectral_gap_large", "samplers.simulated_annealing", "samplers.tabu_search")
    GRID = (6, 24)       # p = d and 4d
    INSTANCES = 3        # per round, so one instance's cost does not set the figure
    RESTARTS = 10        # tabu restarts per point (the CLI default is 20)

    def choose(self, directory):
        def accept(answer):
            # Gap 1, the common case, pins the exact search to ~289 kept
            # half-assignments; tied instances keep up to twice as many.
            return answer.m_min < 2 * self.GRID[0] and cross_pairing_gap(answer.odd_dist) == 1

        self.draws, self.chosen = first_graphs(directory, 16, 0.25, self.seed, 6, accept, self.INSTANCES)

    def setup(self, directory):
        gen(directory, 16, self.draws, 0.25, self.seed)
        self.instances = [(directory / name, answer) for name, answer in self.chosen]
        for path, _answer in self.instances:
            model = compile_instance(path, self.GRID[0])
            if model.dim != 30:
                raise SetupError(f"d=6 instance compiled to {model.dim} variables, not 30")

    def round(self, directory):
        texts = []
        for k, (path, _answer) in enumerate(self.instances):
            out = directory / f"penalty{k}.json"
            rc, _ = run_cli(["penalty-sweep", path, "--p-grid", ",".join(map(str, self.GRID)),
                             "--restarts", self.RESTARTS, "--seed", self.seed,
                             "--format", "json", "--out", out])
            if rc:
                return len(self.GRID) * self.INSTANCES, None
            texts.append(out.read_text())
        return len(self.GRID) * self.INSTANCES, texts

    def check(self, output, captures):
        errors = []
        for text, (path, answer) in zip(output, self.instances):
            rows = json.loads(text)["rows"]
            if [Fraction(str(r["p"])) for r in rows] != list(self.GRID):
                errors.append(f"{path.name}: penalty grid {[r['p'] for r in rows]} != {list(self.GRID)}")
            for r in rows:
                if Fraction(str(r["e0"])) != answer.m_min:
                    errors.append(f"{path.name}: e0 {r['e0']} != checker M_min {answer.m_min} at p={r['p']}")
                if not r["gap"] > 0:
                    errors.append(f"{path.name}: gap {r['gap']} not positive at p={r['p']}")
                if not (0 <= r["p_gs_sa"] <= 1 and 0 <= r["p_gs_tabu"] <= 1):
                    errors.append(f"{path.name}: p_gs out of [0, 1] at p={r['p']}")
        if captures is not None:
            errors += self._check_traced(captures)
        return errors

    def _check_traced(self, captures) -> list[str]:
        errors = []
        gaps = captures["samplers.spectral_gap_large"]
        for i, (_args, _kwargs, (e0, e1, gap)) in enumerate(gaps):
            # Calls come in round order: every grid point of instance 0, then of instance 1, ...
            answer = self.instances[i // len(self.GRID) % self.INSTANCES][1]
            m_min, second = answer.m_min, answer.second_pairing_weight
            if e0 != m_min or e1 - e0 != gap:
                errors.append(f"gap triple ({e0}, {e1}, {gap}) inconsistent with M_min {m_min}")
            if second is not None and e1 > second:
                errors.append(f"e1 {e1} above the second pairing weight {second}")
        for target in ("samplers.simulated_annealing", "samplers.tabu_search"):
            for args, kwargs, samples in captures[target]:
                model = exact_model(arg(args, kwargs, 0, "model"))
                for record in samples.records:
                    if record.config is not None and model.energy(record.config) != record.energy:
                        errors.append(f"{target} stored energy {record.energy} is not exact")
        if not gaps:
            errors.append("traced run captured no spectral_gap_large call")
        return errors


class DefectsK2(Workload):
    name = "defects_k2"
    DELTAS = (1, 2, 3, 10, 15, 27, 34, 50)   # the CLI's default bump list
    N, EDGES, D = 10, 15, 4

    def choose(self, directory):
        def accept(answer):
            return len(answer.edges) == self.EDGES

        self.draws, [(self.file, self.answer)] = first_graphs(directory, self.N, 0.3, self.seed, self.D, accept)
        self.cells = edge_pair_bumps(self.answer, self.DELTAS)

    def setup(self, directory):
        gen(directory, self.N, self.draws, 0.3, self.seed)
        self.path = directory / self.file
        compile_instance(self.path)

    def round(self, directory):
        out = directory / "defects.csv"
        rc, _ = run_cli(["defects", self.path, "--k", 2, "--out", out])
        return len(self.cells), (out.read_text() if rc == 0 else None)

    def check(self, output, captures):
        errors = []
        base = self.answer.m_min
        seen = {}
        for line in output.splitlines()[1:]:
            delta, edges, value = line.split(",")
            combo = tuple(tuple(int(x) for x in e.split("-")) for e in edges.split(";"))
            seen[(Fraction(delta), combo)] = Fraction(value)
        if set(seen) != set(self.cells):
            errors.append(f"defect cells {len(seen)} do not match the {len(self.cells)} expected")
        for key, value in seen.items():
            delta = key[0]
            if value != self.cells.get(key) or not base <= value <= base + 2 * delta:
                errors.append(f"cell {key}: {value} vs checker {self.cells.get(key)}, base {base}")
        return errors


class MminEnsemble(Workload):
    name = "mmin_ensemble"
    # (n, edge probability) of the `postman gen` calls, and graphs kept per odd count d.
    SIZES = ((10, 0.35), (14, 0.5), (20, 0.5))
    QUOTA = {2: 2, 4: 12, 6: 12, 8: 12, 10: 8, 12: 4, 14: 2}

    def choose(self, directory):
        for count in DRAWS:
            left = dict(self.QUOTA)
            chosen = []
            for n, edge_prob in self.SIZES:
                for name, size, edges in generate(directory / f"c{count}" / f"n{n}", n, count, edge_prob, self.seed):
                    d = len(odd_nodes(size, edges))
                    if left.get(d, 0) > 0:
                        left[d] -= 1
                        chosen.append((f"n{n}/{name}", GraphAnswer(size, edges)))
            if not any(left.values()):
                self.draws, self.chosen = count, chosen
                return
        raise SetupError(f"ensemble quota {self.QUOTA} not met for seed {self.seed}")

    def setup(self, directory):
        for n, edge_prob in self.SIZES:
            gen(directory / f"n{n}", n, self.draws, edge_prob, self.seed)
        self.paths = [directory / name for name, _answer in self.chosen]

    def round(self, directory):
        parsed = [graphs.read_edge_list(path.read_text()) for path in self.paths]
        points = defects.mmin_vs_cmax(parsed)
        return len(self.paths), [(pt.index, pt.d, pt.c_max, pt.m_min) for pt in points]

    def check(self, output, captures):
        errors = []
        if [p[0] for p in output] != list(range(len(self.chosen))):
            errors.append("scatter points do not cover the ensemble in order")
        for (index, d, c_max, m_min), (name, answer) in zip(output, self.chosen):
            if (d, c_max, m_min) != (answer.d, answer.c_max, answer.m_min):
                errors.append(f"{name}: (d, c_max, m_min) = {(d, c_max, m_min)}, "
                              f"checker {(answer.d, answer.c_max, answer.m_min)}")
            if 2 * m_min < d:
                errors.append(f"{name}: m_min {m_min} below d/2 = {d / 2}")
        return errors


WORKLOADS = {w.name: w for w in (JfSweepD8, PenaltySweepD6, DefectsK2, MminEnsemble)}
