"""Byte-for-byte golden outputs of the CLI, of the experiment scripts (the
presets of it and the two library studies, whose output directories are
pinned file by file), of the reference ground-state search and of the Chimera
embedding layer.

Inputs and expected outputs live in tests/golden/. After a deliberate change
of output, rewrite the expected files with `PYTHONPATH=src python
tests/test_golden.py` and review the diff.
"""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from postman import chimera, exact, graphs, metrics, qubo, samplers
from postman.cli import main
from postman.numbers import to_jsonable

from conftest import enumerate_matchings, ground_state, ising_to_json

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMO = str(GOLDEN / "demo.edgelist")
DEMO_QUBO = str(GOLDEN / "demo.qubo")
D6 = str(GOLDEN / "d6.edgelist")
D8 = str(GOLDEN / "d8.edgelist")  # the bench's d = 8 instance: 56 variables, 840 spins on C14
D14 = str(GOLDEN / "d14.edgelist")  # graph 27 of `postman gen --n 20 --edge-prob 0.5 --seed 1`, the first with d = 14
SAMPLES = str(GOLDEN / "samples.json")

# case name -> CLI arguments; the expected stdout is tests/golden/<name>.out
CASES = {
    "exact_circuit": ["exact", DEMO, "--circuit"],
    "exact_d14": ["exact", D14, "--circuit"],
    "qubo": ["qubo", DEMO, "--p", "8"],
    "sample_sa": ["sample", DEMO_QUBO, "--sampler", "sa", "--reads", "40", "--sweeps", "100", "--seed", "6"],
    "sample_tabu": ["sample", DEMO_QUBO, "--sampler", "tabu", "--restarts", "5", "--seed", "3"],
    "sample_brute": ["sample", DEMO_QUBO, "--sampler", "brute", "--keep", "3"],
    "simulate": [
        "simulate", DEMO, "--p", "8", "--m", "3", "--gauges", "3",
        "--reads", "30", "--sweeps", "60", "--seed", "2",
    ],
    "jf_sweep": [
        "jf-sweep", DEMO, "--p", "8", "--m", "3", "--jf-grid", "1.0,2.0",
        "--gauges", "2", "--reads", "20", "--sweeps", "150", "--seed", "4",
    ],
    "penalty_sweep_demo": [
        "penalty-sweep", DEMO, "--reads", "30", "--sweeps", "60", "--restarts", "3", "--seed", "1",
    ],
    "penalty_sweep_d6": [
        "penalty-sweep", D6, "--p-grid", "6", "--reads", "20", "--sweeps", "60",
        "--restarts", "3", "--seed", "1", "--format", "json",
    ],
    "penalty_sweep_d8": [
        "penalty-sweep", D8, "--p-grid", "8,16,32", "--reads", "10", "--sweeps", "20",
        "--restarts", "2", "--seed", "1", "--format", "json",
    ],
    "jf_sweep_d8": [
        "jf-sweep", D8, "--m", "14", "--p", "8", "--jf-grid", "0.5,2.0",
        "--gauges", "3", "--reads", "25", "--sweeps", "30", "--seed", "5",
    ],
    "simulate_d8": [
        "simulate", D8, "--m", "14", "--p", "8", "--autoscale", "--gauges", "2",
        "--reads", "9", "--sweeps", "10", "--seed", "3",
    ],
    "defects_k2": ["defects", DEMO, "--k", "2", "--deltas", "1,5"],
    "defects_d6_k3": ["defects", D6, "--k", "3", "--deltas", "1,7/2"],
    "defects_d8_k1": ["defects", D8, "--k", "1"],
    "embed": ["embed", "--n-logical", "12", "--m", "3"],
    "metrics": ["metrics", SAMPLES, "--reference", "5", "--resamples", "200", "--seed", "0"],
}


# case name -> script and arguments; the expected CSV is tests/golden/<name>.csv
SCRIPTS = {
    "script_jf_sweep": [
        "run_jf_sweep.py", "--reads", "20", "--sweeps", "30", "--gauges", "2", "--jf-grid", "0.5,1.5",
    ],
    "script_penalty_sweep": ["run_penalty_sweep.py", "--reads", "30", "--sweeps", "40"],
}


# case name -> script and arguments writing a directory; tests/golden/<name>.out
# lists the sha256 of each file in it, in `sha256sum` format
DIR_SCRIPTS = {
    "script_mmin_ensemble_sha256": ["run_mmin_ensemble.py", "--count", "50"],
    "script_defect_study_sha256": ["run_defect_study.py", "--deltas", "1,10"],
}


def run_script(name: str, out: Path) -> bytes:
    """Run a script with its output (and the demo edge list beside it) in out's
    directory; the output's bytes, or for a directory its `sha256sum` listing."""
    script, *args = SCRIPTS[name] if name in SCRIPTS else DIR_SCRIPTS[name]
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        check=True, env={**os.environ, "PYTHONPATH": path},
    )
    if name in SCRIPTS:
        return out.read_bytes()
    return "".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n" for f in sorted(out.iterdir())).encode()


def _ground_states() -> str:
    """Argmin configurations and candidate counts of the reference ground-state
    search (`conftest.ground_state`), both forms."""
    model = qubo.build_qubo(exact.odd_pair_distances(graphs.read_edge_list(Path(D6).read_text())), 6)
    sets = {"qubo": ground_state(model), "ising": ground_state(qubo.to_ising(model))}
    return json.dumps({k: v.to_json() for k, v in sets.items()}, indent=2, sort_keys=True) + "\n"


def _embedded(path: str, p: int, n: int, m: int) -> str:
    """The pair-QUBO of an edge list clique-embedded as K_n on C_m at jf 1.5."""
    model = qubo.build_qubo(exact.odd_pair_distances(graphs.read_edge_list(Path(path).read_text())), p)
    emb = chimera.clique_embedding(n, chimera.chimera_graph(m))
    embedded = chimera.embed_ising(qubo.to_ising(model), emb, 1.5)
    payload = {
        "model": ising_to_json(embedded.model),
        "coupling_insertion_order": [list(k) for k in embedded.model.couplings],
        "chain_offsets": [to_jsonable(v) for v in embedded.chain_offsets],
        "constant": to_jsonable(embedded.constant),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _physical_d8() -> str:
    """The physical reads behind the simulate_d8 report. A report of this size
    reads broken_fraction 1.0 and p_gs 0 whatever the chain, so these reads are
    what pin the annealer at paper scale (840 spins, fractional couplings)."""
    model = qubo.build_qubo(exact.odd_pair_distances(graphs.read_edge_list(Path(D8).read_text())), 8)
    emb = chimera.clique_embedding(model.dim, chimera.chimera_graph(14))
    embedded = chimera.embed_ising(qubo.to_ising(model), emb, 1.0)
    scaled, _ = chimera.autoscale(embedded.model)
    embedded = dataclasses.replace(embedded, model=scaled)
    physical = metrics.sample_embedded(embedded, samplers.Schedule(n_sweeps=10), 9, 2, seed=3)
    return json.dumps(physical.to_json(), sort_keys=True)


def _invalid_embeddings() -> str:
    """Violations reported for the five invalid embeddings of test_chimera.TestValidate."""
    c1, c2 = chimera.chimera_graph(1), chimera.chimera_graph(2)
    cases = {
        "overlap": (((0, 4), (4, 1)), c1, []),
        "disconnected": (((0, 1),), c1, []),
        "through_fault": (((0, 4, 1),), chimera.chimera_graph(1, faulty=[4]), []),
        "no_coverage": (((c2.qubit(0, 0, 0, 0),), (c2.qubit(1, 1, 1, 0),)), c2, [(0, 1)]),
        "empty_chain": (((),), c1, [(0, 5)]),
    }
    out = {
        name: [[v.kind, v.detail] for v in chimera.validate_embedding(chimera.Embedding(chains, topo), couplers)]
        for name, (chains, topo, couplers) in cases.items()
    }
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


PRODUCERS = {
    "ground_state_d6": _ground_states,
    "embed_k12_c3": lambda: _embedded(DEMO, 8, 12, 3),
    "embed_k30_c8_sha256": lambda: hashlib.sha256(_embedded(D6, 6, 30, 8).encode()).hexdigest() + "\n",
    "validate_invalid": _invalid_embeddings,
    "sample_embedded_d8_sha256": lambda: hashlib.sha256(_physical_d8().encode()).hexdigest() + "\n",
}


def produce(name: str) -> str:
    if name in PRODUCERS:
        return PRODUCERS[name]()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(CASES[name])
    assert code == 0, name
    return buf.getvalue()


NAMES = [*CASES, *PRODUCERS]


@pytest.mark.parametrize("name", NAMES)
def test_golden(name):
    assert produce(name) == (GOLDEN / f"{name}.out").read_text()


def test_penalty_sweep_d8_levels():
    # e0 is M_min at every p, and e0 + gap is the next level: at most the
    # second-lowest pairing weight, since every pairing is a legal state
    table = exact.odd_pair_distances(graphs.read_edge_list(Path(D8).read_text()))
    weights = sorted({sum(table.dist[i][j] for i, j in m) for m in enumerate_matchings(table.d)})
    rows = json.loads((GOLDEN / "penalty_sweep_d8.out").read_text())["rows"]
    assert [r["p"] for r in rows] == [8, 16, 32]
    for r in rows:
        assert r["e0"] == weights[0] == 4
        assert r["e0"] + r["gap"] == 5 <= weights[1]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_golden(name, tmp_path):
    assert run_script(name, tmp_path / f"{name}.csv") == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", DIR_SCRIPTS)
def test_script_directory_golden(name, tmp_path):
    assert run_script(name, tmp_path / name) == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name in NAMES:
        (GOLDEN / f"{name}.out").write_text(produce(name))
        print(f"wrote {name}.out", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:  # not GOLDEN: the scripts write demo.edgelist
        for name in SCRIPTS:
            (GOLDEN / f"{name}.csv").write_bytes(run_script(name, Path(tmp) / f"{name}.csv"))
            print(f"wrote {name}.csv", file=sys.stderr)
        for name in DIR_SCRIPTS:
            (GOLDEN / f"{name}.out").write_bytes(run_script(name, Path(tmp) / name))
            print(f"wrote {name}.out", file=sys.stderr)
