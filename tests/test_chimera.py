from fractions import Fraction

import numpy as np
import pytest

from postman.chimera import (
    DecodePolicy,
    EmbeddedIsing,
    Embedding,
    autoscale,
    apply_gauge,
    chain_stats,
    chimera_graph,
    clique_embedding,
    decode_chains,
    eccentricity_stats,
    embed_ising,
    spin_reversal,
    validate_embedding,
)
from postman.errors import (
    DisconnectedEmbeddingError,
    DoesNotFitError,
    FaultOutOfRangeError,
    InvalidEmbeddingError,
)
from postman.qubo import IsingModel
from postman.samplers import brute_force


def k_couplers(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_logical(n, seed):
    rng = np.random.default_rng(seed)
    return IsingModel(
        n=n,
        h=tuple(int(v) for v in rng.integers(-3, 4, n)),
        couplings={(i, j): int(rng.integers(-3, 4)) for i, j in k_couplers(n)},
        offset=int(rng.integers(-2, 3)),
    )


class TestTopology:
    def test_c12_counts(self):
        topo = chimera_graph(12)
        assert topo.node_count == 1152

    def test_c1_cell(self):
        topo = chimera_graph(1)
        assert topo.node_count == 8
        assert len(topo.couplers()) == 16

    def test_faults_subtract(self):
        topo = chimera_graph(12, faulty=range(54))
        assert topo.node_count == 1098

    def test_fault_out_of_range(self):
        with pytest.raises(FaultOutOfRangeError):
            chimera_graph(2, faulty=[999])

    def test_degree_at_most_six(self):
        topo = chimera_graph(3)
        adj = topo.adjacency()
        assert max(len(nb) for nb in adj.values()) <= 6
        # interior shore qubits reach the full 4 + 2
        assert any(len(nb) == 6 for nb in adj.values())

    def test_faulty_couplers_removed(self):
        topo = chimera_graph(1, faulty=[0])
        assert all(0 not in c for c in topo.couplers())
        assert len(topo.couplers()) == 12


class TestCliqueEmbedding:
    def test_k12_on_c12(self):
        topo = chimera_graph(12)
        emb = clique_embedding(12, topo)
        stats = chain_stats(emb)
        assert stats.physical_qubits == 48
        assert stats.max_chain_length == 4
        assert stats.chains_at_max == 12
        assert validate_embedding(emb, k_couplers(12)) == []

    def test_k4_on_c1(self):
        topo = chimera_graph(1)
        emb = clique_embedding(4, topo)
        assert all(len(c) == 2 for c in emb.chains)
        assert validate_embedding(emb, k_couplers(4)) == []

    def test_k56_does_not_fit_c12(self):
        with pytest.raises(DoesNotFitError):
            clique_embedding(56, chimera_graph(12))

    def test_k56_fits_c14(self):
        topo = chimera_graph(14)
        emb = clique_embedding(56, topo)
        assert validate_embedding(emb, k_couplers(56)) == []
        assert chain_stats(emb).max_chain_length == 15  # ceil(56/4) + 1

    def test_fault_in_region(self):
        with pytest.raises(DoesNotFitError):
            clique_embedding(4, chimera_graph(1, faulty=[0]))

    def test_chain_length_rule(self):
        for n in (2, 5, 9, 13):
            emb = clique_embedding(n, chimera_graph(6))
            want = -(-n // 4) + 1
            assert all(len(c) == want for c in emb.chains)


class TestValidate:
    def test_overlap_detected(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 4), (4, 1)), topology=topo)
        kinds = {v.kind for v in validate_embedding(emb, [])}
        assert "overlap" in kinds

    def test_disconnected_chain(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 1),), topology=topo)  # same shore, no coupler
        kinds = {v.kind for v in validate_embedding(emb, [])}
        assert "connectivity" in kinds

    def test_chain_through_fault(self):
        topo = chimera_graph(1, faulty=[4])
        emb = Embedding(chains=((0, 4, 1),), topology=topo)
        kinds = {v.kind for v in validate_embedding(emb, [])}
        assert "missing-qubit" in kinds and "connectivity" in kinds

    def test_missing_coverage(self):
        topo = chimera_graph(2)
        # chains in different cells with no joining coupler
        emb = Embedding(chains=((topo.qubit(0, 0, 0, 0),), (topo.qubit(1, 1, 1, 0),)), topology=topo)
        kinds = {v.kind for v in validate_embedding(emb, [(0, 1)])}
        assert "coverage" in kinds

    def test_never_raises(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((),), topology=topo)
        assert validate_embedding(emb, [(0, 5)])  # reports, does not throw


class TestChainIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_probe(self, seed):
        """The one-pass index equals probing every qubit pair of two chains,
        including chains that overlap or hold a faulty qubit."""
        topo = chimera_graph(2, faulty=[3])
        rng = np.random.default_rng(seed)
        chains = tuple(
            tuple(int(q) for q in rng.choice(32, size=int(rng.integers(1, 6)), replace=False))
            for _ in range(5)
        )
        index = Embedding(chains=chains, topology=topo).chain_index
        assert index.qubit_order == tuple(sorted(q for chain in chains for q in chain))
        pos = {q: i for i, q in enumerate(index.qubit_order)}
        assert index.positions == tuple(tuple(pos[q] for q in chain) for chain in chains)
        couplers = set(topo.couplers())

        def probe(one, other):
            pairs = {(min(a, b), max(a, b)) for a in one for b in other}
            return tuple(sorted((pos[a], pos[b]) for a, b in pairs if (a, b) in couplers))

        for i, chain in enumerate(chains):
            assert index.within[i] == probe(chain, chain)
            for j in range(i + 1, len(chains)):
                assert index.between.get((i, j), ()) == probe(chain, chains[j])


class TestStats:
    def test_path_of_three(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 4, 1),), topology=topo)
        stats = eccentricity_stats(emb)
        assert stats.mean == pytest.approx(5 / 3)
        assert stats.variance == pytest.approx(2 / 9)

    def test_star_three_leaves(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((4, 0, 1, 2),), topology=topo)
        stats = eccentricity_stats(emb)
        assert stats.mean == pytest.approx(7 / 4)  # ecc {1,2,2,2}

    def test_disconnected_raises(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 1),), topology=topo)
        with pytest.raises(DisconnectedEmbeddingError):
            eccentricity_stats(emb)

    def test_uniform_eccentricities_degenerate_moments(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 4),), topology=topo)
        stats = eccentricity_stats(emb)
        assert (stats.variance, stats.skewness, stats.kurtosis) == (0.0, 0.0, 0.0)

    def test_embedding_json_round_trip(self):
        emb = clique_embedding(5, chimera_graph(3))
        again = Embedding.from_json(emb.to_json())
        assert again == emb


class TestEmbedIsing:
    def test_jf_zero_identity(self):
        logical = random_logical(4, seed=1)
        emb = clique_embedding(4, chimera_graph(1))
        embedded = embed_ising(logical, emb, 0)
        assert embedded.constant == 0
        rng = np.random.default_rng(2)
        for _ in range(10):
            s_log = tuple(int(v) for v in rng.integers(0, 2, 4) * 2 - 1)
            s_phys = expand_unbroken(s_log, emb, embedded)
            assert embedded.model.energy(s_phys) == logical.energy(s_log)

    def test_unbroken_offset_constant(self):
        logical = random_logical(4, seed=3)
        emb = clique_embedding(4, chimera_graph(1))
        embedded = embed_ising(logical, emb, 1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            s_log = tuple(int(v) for v in rng.integers(0, 2, 4) * 2 - 1)
            s_phys = expand_unbroken(s_log, emb, embedded)
            assert embedded.model.energy(s_phys) - logical.energy(s_log) == embedded.constant

    def test_chain_couplers_scale_linearly(self):
        logical = random_logical(4, seed=5)
        emb = clique_embedding(4, chimera_graph(1))
        one = embed_ising(logical, emb, 1.0)
        for jf in (0.2, 0.6, 1.4, 2.0):
            other = embed_ising(logical, emb, jf)
            assert other.constant == Fraction(str(jf)) * one.constant

    def test_size_mismatch_raises(self):
        logical = random_logical(5, seed=7)
        emb = clique_embedding(4, chimera_graph(1))
        with pytest.raises(InvalidEmbeddingError):
            embed_ising(logical, emb, 1)

    def test_invalid_embedding_raises(self):
        logical = random_logical(2, seed=8)
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 4), (4, 1)), topology=topo)
        with pytest.raises(InvalidEmbeddingError):
            embed_ising(logical, emb, 1)


def expand_unbroken(s_log, emb, embedded: EmbeddedIsing):
    owner = {}
    for i, chain in enumerate(emb.chains):
        for q in chain:
            owner[q] = i
    return tuple(s_log[owner[q]] for q in embedded.qubit_order)


class TestAutoscale:
    def test_identity_in_range(self):
        model = IsingModel(n=2, h=(1, -2), couplings={(0, 1): 1}, offset=5)
        scaled, factor = autoscale(model)
        assert factor == 1 and scaled == model

    def test_divides_by_max_j(self):
        model = IsingModel(n=2, h=(0, 0), couplings={(0, 1): 4}, offset=0)
        scaled, factor = autoscale(model)
        assert factor == 4
        assert scaled.couplings[(0, 1)] == 1

    def test_h_range_is_two(self):
        model = IsingModel(n=1, h=(6,), couplings={}, offset=0)
        scaled, factor = autoscale(model)
        assert factor == 3 and scaled.h[0] == 2

    def test_argmin_preserved_on_embedded_model(self):
        logical = random_logical(4, seed=9)
        emb = clique_embedding(4, chimera_graph(1))
        embedded = embed_ising(logical, emb, 1.5)
        scaled, factor = autoscale(embedded.model)
        before = {r.config for r in brute_force(embedded.model).records}
        after = {r.config for r in brute_force(scaled).records}
        assert factor > 1
        assert before == after

    def test_scaled_embedded_identity(self):
        # an embedded model swapped for its scaled copy keeps the unscaled
        # constant, so physical energy times the factor is logical + constant
        logical = random_logical(4, seed=3)
        emb = clique_embedding(4, chimera_graph(1))
        embedded = embed_ising(logical, emb, 1)
        scaled, factor = autoscale(embedded.model)
        assert factor > 1
        rng = np.random.default_rng(4)
        for _ in range(20):
            s_log = tuple(int(v) for v in rng.integers(0, 2, 4) * 2 - 1)
            s_phys = expand_unbroken(s_log, emb, embedded)
            assert scaled.energy(s_phys) * factor == logical.energy(s_log) + embedded.constant


class TestGauges:
    def test_energy_invariance(self):
        rng = np.random.default_rng(11)
        model = random_logical(6, seed=11)
        for gauge in spin_reversal(model.n, gauges=5, seed=4):
            gauged = apply_gauge(model, gauge)
            for _ in range(10):
                s = tuple(int(v) for v in rng.integers(0, 2, 6) * 2 - 1)
                gauged_state = tuple(si * gi for si, gi in zip(s, gauge))
                assert gauged.energy(gauged_state) == model.energy(s)
                # ungauging a state is the same sign flip
                assert tuple(si * gi for si, gi in zip(gauged_state, gauge)) == s

    def test_involution(self):
        model = random_logical(5, seed=12)
        gauge = spin_reversal(model.n, gauges=1, seed=9)[0]
        assert apply_gauge(apply_gauge(model, gauge), gauge) == model

    def test_zero_gauges_is_identity(self):
        model = random_logical(3, seed=13)
        assert spin_reversal(model.n, gauges=0, seed=1) == [(1, 1, 1)]
        assert apply_gauge(model, (1, 1, 1)) == model

    def test_gauge_count(self):
        assert len(spin_reversal(3, gauges=7, seed=2)) == 7


class TestDecode:
    def setup_method(self):
        self.topo = chimera_graph(1)
        self.emb = clique_embedding(4, self.topo)

    def test_aligned_agrees_across_policies(self):
        s_log = (1, -1, 1, -1)
        embedded = embed_ising(random_logical(4, seed=15), self.emb, 1)
        sample = expand_unbroken(s_log, self.emb, embedded)
        for policy in DecodePolicy:
            decoded, broken = decode_chains(sample, self.emb, policy)
            assert decoded == s_log and broken == 0

    def test_broken_chain_policies(self):
        # three-qubit chain (+1, +1, -1): majority says +1, discard rejects
        topo = chimera_graph(1)
        emb = Embedding(chains=((0, 4, 1),), topology=topo)
        sample_by_qubit = {0: 1, 4: 1, 1: -1}
        order = emb.qubit_order()
        sample = tuple(sample_by_qubit[q] for q in order)
        decoded, broken = decode_chains(sample, emb, DecodePolicy.MAJORITY_VOTE)
        assert decoded == (1,) and broken == 1
        decoded, broken = decode_chains(sample, emb, DecodePolicy.DISCARD_BROKEN)
        assert decoded is None and broken == 1

    def test_tie_break_lowest_qubit(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((4, 0),), topology=topo)  # chain order not sorted
        order = emb.qubit_order()  # (0, 4)
        sample = (1, -1)  # qubit 0 -> +1, qubit 4 -> -1
        decoded, broken = decode_chains(sample, emb, DecodePolicy.MAJORITY_VOTE)
        assert broken == 1
        assert decoded == (1,)  # lowest physical id (qubit 0) wins the tie
