import itertools

import numpy as np
import pytest

from postman.graphs import Graph
from postman.numbers import as_exact, normalize
from postman.qubo import IsingModel
from postman.samplers import SampleSet

# 6-node worked instance: odd nodes {0,1,2,3}, pair distances
# W01=2 W02=5 W03=7 W12=7 W13=5 W23=3, minimum matching {(0,1),(2,3)} at 5.
DEMO_EDGES = [
    (0, 1, 2),
    (0, 2, 5),
    (0, 4, 3),
    (1, 3, 5),
    (1, 4, 1),
    (2, 3, 6),
    (2, 5, 2),
    (3, 5, 1),
]


@pytest.fixture(scope="session")
def demo() -> Graph:
    return Graph(6, DEMO_EDGES)


def random_connected_graph(rng: np.random.Generator, n: int, p: float, w_hi: int = 9) -> Graph | None:
    """One draw of G(n, p) with random integer weights; None if disconnected."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, int(rng.integers(1, w_hi + 1))))
    if not edges:
        return None
    g = Graph(n, edges)
    from postman.graphs import is_connected

    return g if is_connected(g) else None


def graph_stream(seed: int, n: int, p: float, w_hi: int = 9):
    """Endless deterministic stream of connected graphs."""
    rng = np.random.default_rng(seed)
    while True:
        g = random_connected_graph(rng, n, p, w_hi)
        if g is not None:
            yield g


def exhaustive(model) -> SampleSet:
    """Every configuration of a small model with its exact energy, sorted by
    energy: the reference for the exact searches. It evaluates through
    `SampleSet.from_configs` (exact integer products), so it shares no code
    with the float enumeration those searches run on."""
    n, values = (model.n, (-1, 1)) if isinstance(model, IsingModel) else (model.dim, (0, 1))
    return SampleSet.from_configs(model, itertools.product(values, repeat=n), {})


def levels(samples: SampleSet) -> list:
    """The distinct energies of a sample set, ascending."""
    return sorted({r.energy for r in samples.records})


def apply_gauge(model: IsingModel, gauge) -> IsingModel:
    """The model under spin-reversal gauge g in exact arithmetic (h_i -> g_i h_i,
    J_ij -> g_i g_j J_ij; an involution): the reference for gauged sampling."""
    if len(gauge) != model.n:
        raise ValueError("gauge length must match model size")
    return IsingModel(
        n=model.n,
        h=tuple(normalize(as_exact(v) * gauge[i]) for i, v in enumerate(model.h)),
        couplings={
            (i, j): normalize(as_exact(v) * gauge[i] * gauge[j])
            for (i, j), v in model.couplings.items()
        },
        offset=model.offset,
    )
