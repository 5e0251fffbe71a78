"""Byte-for-byte golden outputs of the CLI and of the exact ground-state search.

Inputs and expected outputs live in tests/golden/. After a deliberate change
of output, rewrite the expected files with `PYTHONPATH=src python
tests/test_golden.py` and review the diff.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from postman import exact, graphs, qubo, samplers
from postman.cli import main

GOLDEN = Path(__file__).parent / "golden"
DEMO = str(GOLDEN / "demo.edgelist")
DEMO_QUBO = str(GOLDEN / "demo.qubo")
D6 = str(GOLDEN / "d6.edgelist")
SAMPLES = str(GOLDEN / "samples.json")

# case name -> CLI arguments; the expected stdout is tests/golden/<name>.out
CASES = {
    "exact_circuit": ["exact", DEMO, "--circuit"],
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
    "defects_k2": ["defects", DEMO, "--k", "2", "--deltas", "1,5"],
    "embed": ["embed", "--n-logical", "12", "--m", "3"],
    "metrics": ["metrics", SAMPLES, "--reference", "5", "--resamples", "200", "--seed", "0"],
}


def _ground_states() -> str:
    """Argmin configurations and candidate counts of the exact search, both forms."""
    model = qubo.build_qubo(exact.odd_pair_distances(graphs.read_edge_list(Path(D6).read_text())), 6)
    sets = {"qubo": samplers.ground_state(model), "ising": samplers.ground_state(qubo.to_ising(model))}
    return json.dumps({k: v.to_json() for k, v in sets.items()}, indent=2, sort_keys=True) + "\n"


def produce(name: str) -> str:
    if name == "ground_state_d6":
        return _ground_states()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(CASES[name])
    assert code == 0, name
    return buf.getvalue()


NAMES = [*CASES, "ground_state_d6"]


@pytest.mark.parametrize("name", NAMES)
def test_golden(name):
    assert produce(name) == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name in NAMES:
        (GOLDEN / f"{name}.out").write_text(produce(name))
        print(f"wrote {name}.out", file=sys.stderr)
