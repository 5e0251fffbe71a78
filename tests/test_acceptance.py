"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here, not configurable.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from postman.chimera import (
    DecodePolicy,
    chimera_graph,
    clique_embedding,
    decode_chains,
    embed_ising,
    validate_embedding,
)
from postman.defects import defect_map
from postman.exact import m_min, odd_pair_distances
from postman.graphs import EnsembleSpec, Graph, graph_features, odd_nodes, random_graph
from postman.metrics import bootstrap, decode_sampleset, p_gs, t_99
from postman.qubo import IsingModel, build_qubo, decode, is_legal, penalties, to_ising, variable_pairs
from postman.samplers import (
    SampleSet,
    Schedule,
    brute_force,
    ground_state,
    simulated_annealing,
    spectral_gap_large,
    tabu_search,
)

from conftest import DEMO_EDGES, apply_gauge, enumerate_matchings, exhaustive, graph_stream, num_quadratic


def report(line: str):
    print(f"PASS {line}")


@pytest.fixture(scope="module")
def demo():
    return Graph(6, DEMO_EDGES)


def graphs_with_d(seed, n, p, d_target, count, w_hi=1):
    out = []
    for g in graph_stream(seed=seed, n=n, p=p, w_hi=w_hi):
        if len(odd_nodes(g)) == d_target:
            out.append(g)
            if len(out) == count:
                return out


def test_c01_worked_example_exact(demo):
    start = time.monotonic()
    table = odd_pair_distances(demo)
    assert table.nodes == (0, 1, 2, 3)
    assert table.dist[0][1] == 2
    assert table.dist[2][3] == 3
    pairing_costs = [
        sum(table.dist[i][j] for i, j in pairing)
        for pairing in enumerate_matchings(4)
    ]
    assert pairing_costs == [5, 10, 14]
    sol = m_min(demo)
    assert sol.m_min == 5
    assert sol.l_t == 30
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"criterion 1: worked example W01=2 W23=3 m=(5,10,14) M_min=5 l_T=30 ({elapsed:.3f}s)")


def test_c02_matching_counts():
    counts = {d: len(list(enumerate_matchings(d))) for d in (2, 4, 6, 8)}
    assert counts == {2: 1, 4: 3, 6: 15, 8: 105}
    report("criterion 2: pairing counts 1/3/15/105 for d=2/4/6/8")


def test_c03_qubo_semantics(demo):
    start = time.monotonic()
    # exhaustive scan of the worked example at p=8
    model = build_qubo(odd_pair_distances(demo), 8)
    result = brute_force(model)
    assert result.best().energy == 5
    pairs = variable_pairs(4)
    expected = set()
    for a in ((0, 1), (1, 0)):
        for b in ((2, 3), (3, 2)):
            x = [0] * 12
            x[pairs.index(a)] = 1
            x[pairs.index(b)] = 1
            expected.add(tuple(x))
    assert {r.config for r in result.records} == expected

    # 20 random unit-weight instances at p = d: the global argmin always
    # decodes to a minimum-weight pairing
    checked = 0
    for d_target, seed in ((4, 301), (6, 302)):
        for g in graphs_with_d(seed=seed, n=9, p=0.5, d_target=d_target, count=10):
            table = odd_pair_distances(g)
            q = build_qubo(table, d_target)
            exact_min = m_min(g).m_min
            if d_target == 4:
                found = brute_force(q)
                argmins = [r.config for r in found.records]
            else:
                found = ground_state(q)
                argmins = [found.best().config]
            assert found.best().energy == exact_min
            for x in argmins:
                pairing = decode(x, d_target)
                weight = sum(table.dist[i][j] for i, j in pairing)
                assert weight == exact_min
            checked += 1
    assert checked == 20
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(f"criterion 3: E0=5 with the 4 orientation variants; 20 random argmins decode to minimum matchings ({elapsed:.1f}s)")


def test_c04_legality_equivalence():
    for bits in itertools.product((0, 1), repeat=12):
        p1, p2 = penalties(bits, 4)
        legal = p1 == 0 and p2 == 0
        assert is_legal(bits, 4) == legal
        try:
            decode(bits, 4)
            decodable = True
        except Exception:
            decodable = False
        assert decodable == legal
    report("criterion 4: over all 2^12 vectors, legality <=> P1=P2=0 <=> decodable")


def test_c05_size_bookkeeping():
    rng = np.random.default_rng(1)
    for d, dim, terms in ((2, 2, None), (4, 12, 54), (6, 30, 255), (8, 56, 700)):
        dist = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                dist[i][j] = dist[j][i] = int(rng.integers(1, 9))
        model = build_qubo(dist, d)
        assert model.dim == dim
        if terms is not None:
            # d=6 yields 255 couplings, not 256: see README, encoding conventions
            assert num_quadratic(model) == terms
    report("criterion 5: variable counts 2/12/30/56; coupling counts 54/255/700 (d=6 is 255, documented)")


def test_c06_formula_reproduction():
    a = t_99(0.8783, 20e-6)
    b = t_99(0.5107, 20e-6)
    assert a == pytest.approx(4.37e-5, rel=0.01)
    assert b == pytest.approx(1.29e-4, rel=0.01)
    report(f"criterion 6: t_99(0.8783)={a:.3e}s, t_99(0.5107)={b:.3e}s within 1%")


def test_c07_embedding_correctness():
    topo = chimera_graph(12)
    assert topo.node_count == 1152
    emb = clique_embedding(12, topo)
    couplers = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    assert validate_embedding(emb, couplers) == []
    lengths = [len(c) for c in emb.chains]
    assert sum(lengths) == 48
    assert max(lengths) == 4
    report("criterion 7: K12 on C12 validates; 48 qubits, max chain 4; C12 has 1152 qubits")


def test_c08_embedded_energy_identity():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    logical = IsingModel(
        n=4,
        h=tuple(int(v) for v in rng.integers(-3, 4, 4)),
        couplings={(i, j): int(rng.integers(-3, 4)) for i in range(4) for j in range(i + 1, 4)},
        offset=1,
    )
    emb = clique_embedding(4, chimera_graph(1))
    embedded = embed_ising(logical, emb, 1)
    unbroken = 0
    for s in itertools.product((-1, 1), repeat=8):
        decoded, broken = decode_chains(s, emb, DecodePolicy.DISCARD_BROKEN)
        if broken == 0:
            unbroken += 1
            assert embedded.model.energy(s) - logical.energy(decoded) == embedded.constant
    assert unbroken == 16

    strong = embed_ising(logical, emb, 2)
    logical_e0 = brute_force(logical).best().energy
    for r in brute_force(strong.model).records:
        decoded, broken = decode_chains(r.config, emb, DecodePolicy.DISCARD_BROKEN)
        assert broken == 0
        assert logical.energy(decoded) == logical_e0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"criterion 8: unbroken physical-logical offset constant; jf=2 grounds decode to logical ground ({elapsed:.2f}s)")


def test_c09_decode_ordering():
    emb = clique_embedding(4, chimera_graph(1))
    n_phys = len(emb.qubit_order())
    dummy = IsingModel(n=n_phys, h=(0,) * n_phys, couplings={}, offset=0)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        logical = IsingModel(
            n=4,
            h=tuple(int(v) for v in rng.integers(-2, 3, 4)),
            couplings={(i, j): int(rng.integers(-2, 3)) for i in range(4) for j in range(i + 1, 4)},
            offset=0,
        )
        reference = brute_force(logical).best().energy
        configs = [tuple(int(v) for v in rng.integers(0, 2, n_phys) * 2 - 1) for _ in range(40)]
        raw = SampleSet.from_configs(dummy, configs, {"sampler": "raw"})
        mv, _ = decode_sampleset(raw, emb, logical, DecodePolicy.MAJORITY_VOTE)
        db, _ = decode_sampleset(raw, emb, logical, DecodePolicy.DISCARD_BROKEN)
        assert p_gs(mv, reference) >= p_gs(db, reference)
    report("criterion 9: majority-vote p_gs >= discard-broken p_gs on 50 shared sample sets")


def test_c10_gauge_invariance():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        model = IsingModel(
            n=n,
            h=tuple(int(v) for v in rng.integers(-5, 6, n)),
            couplings={
                (i, j): int(rng.integers(-5, 6))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            },
            offset=int(rng.integers(-3, 4)),
        )
        gauge = tuple(int(v) for v in rng.integers(0, 2, n) * 2 - 1)
        state = tuple(int(v) for v in rng.integers(0, 2, n) * 2 - 1)
        gauged = apply_gauge(model, gauge)
        flipped = tuple(s * g for s, g in zip(state, gauge))
        assert gauged.energy(flipped) == model.energy(state)
    report("criterion 10: exact gauge invariance on 1000 random (model, gauge, state) triples")


def test_c11_sampler_competence(demo):
    start = time.monotonic()
    model = build_qubo(odd_pair_distances(demo), 8)
    ising = to_ising(model)
    sa = simulated_annealing(ising, schedule=Schedule(), reads=1000, seed=0)
    assert sa.best().energy == 5
    prob = p_gs(sa, 5)
    assert prob >= Fraction(1, 2)

    # tabu reaches the exact floor on every d <= 6 instance
    instances = [build_qubo(odd_pair_distances(demo), 8)]
    for g in graphs_with_d(seed=401, n=7, p=0.5, d_target=2, count=1):
        instances.append(build_qubo(odd_pair_distances(g), 2))
    for g in graphs_with_d(seed=402, n=9, p=0.5, d_target=4, count=2):
        instances.append(build_qubo(odd_pair_distances(g), 4))
    for g in graphs_with_d(seed=403, n=9, p=0.5, d_target=6, count=2):
        instances.append(build_qubo(odd_pair_distances(g), 6))
    for q in instances:
        floor = (exhaustive(q) if q.dim <= 12 else ground_state(q)).best().energy
        assert tabu_search(q, seed=7).best().energy == floor
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(f"criterion 11: SA P_gs={float(prob):.3f} >= 0.5 at E0=5; tabu exact on {len(instances)} instances d<=6 ({elapsed:.1f}s)")


def test_c12_defect_identities():
    start = time.monotonic()
    deltas = (1, 2, 3, 10, 15, 27, 34, 50)
    found = 0
    stream = graph_stream(seed=500, n=8, p=0.3)
    while found < 100:
        g = next(stream)
        feats = graph_features(g)
        if feats.c_1 == 0 or not odd_nodes(g):
            continue
        found += 1
        scan = defect_map(g, deltas=deltas, k=1)
        degree_one = [v for v in range(g.n) if g.degrees[v] == 1]
        for v in degree_one:
            (edge,) = [e[:2] for e in g.edges if v in e[:2]]
            for delta in deltas:
                assert scan.matrix(delta)[edge] == scan.base + delta
        for combo in scan.results[deltas[0]]:
            values = [scan.results[d][combo] for d in deltas]
            assert all(a <= b for a, b in zip(values, values[1:]))
    elapsed = time.monotonic() - start
    report(f"criterion 12: degree-1 identity and monotone defects on 100 graphs ({elapsed:.1f}s)")


def test_c13_unit_weight_bound():
    spec = EnsembleSpec(n=10, edge_prob=0.35, count=1000, seed=77)
    equality = 0
    for index in range(spec.count):
        g = random_graph(spec, index)
        d = len(odd_nodes(g))
        value = m_min(g).m_min
        assert value >= d // 2
        if value == d // 2:
            equality += 1
    assert equality >= 1
    report(f"criterion 13: M_min >= d/2 on 1000 unit graphs; equality {equality} times")


def test_c14_penalty_sweep(demo):
    table = odd_pair_distances(demo)
    grid = (4, 8, 16, 32)
    gaps = []
    decodes = []
    probs = []
    bands = []
    for p in grid:
        model = build_qubo(table, p)
        e0, e1, gap = spectral_gap_large(model)
        gaps.append(gap)
        ground = brute_force(model)
        assert ground.best().energy == 5
        decodes.append({decode(r.config, 4) for r in ground.records})
        sa = simulated_annealing(
            to_ising(model), schedule=Schedule(n_sweeps=500), reads=400, seed=7
        )
        hits = [int(r.energy is not None and r.energy <= e0) for r in sa.records for _ in range(r.multiplicity)]
        mean, two_sigma = bootstrap(hits, resamples=2000, seed=7)
        probs.append(float(p_gs(sa, e0)))
        bands.append(two_sigma)
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))            # gap non-decreasing in p
    assert all(dec == decodes[0] for dec in decodes)              # decode p-invariant
    for i in range(len(grid) - 1):
        assert probs[i + 1] <= probs[i] + bands[i] + bands[i + 1]  # non-increasing within 2-sigma
    assert probs[-1] + bands[-1] <= probs[0] - bands[0]            # clear drop from p=4 to p=32
    report(
        "criterion 14: gaps "
        + "/".join(str(g) for g in gaps)
        + " non-decreasing; decode p-invariant; SA P_gs "
        + "/".join(f"{p:.3f}" for p in probs)
        + " non-increasing within 2-sigma bands"
    )
