from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from postman import chimera
from postman.chimera import (
    DecodePolicy,
    EmbeddedIsing,
    Embedding,
    autoscale,
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
    TooLargeError,
)
from postman.graphs import hops
from postman.numbers import normalize
from postman.qubo import IsingModel, _IntForm
from postman.samplers import brute_force

from conftest import (
    apply_gauge,
    assert_same_form,
    assert_same_model,
    reference_autoscale,
    reference_decode_chains,
    reference_embed,
    unequal_k4,
)


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
        assert len(topo.coupler_array()) == 16

    def test_faults_subtract(self):
        topo = chimera_graph(12, faulty=range(54))
        assert topo.node_count == 1098

    def test_grid_guard(self):
        # the guard is checked before any coupler array is built
        assert chimera_graph(256).node_count == 8 * 256**2
        with pytest.raises(TooLargeError, match="grid size 257 exceeds"):
            chimera_graph(257)

    def test_fault_out_of_range(self):
        with pytest.raises(FaultOutOfRangeError):
            chimera_graph(2, faulty=[999])

    def test_degree_at_most_six(self):
        topo = chimera_graph(3)
        degree = np.bincount(topo.coupler_array().ravel(), minlength=topo.node_count)
        assert degree.max() <= 6
        # interior shore qubits reach the full 4 + 2
        assert (degree == 6).any()

    def test_faulty_couplers_removed(self):
        topo = chimera_graph(1, faulty=[0])
        couplers = topo.coupler_array()
        assert 0 not in couplers and len(couplers) == 12


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

    def test_qubit_twice_in_one_chain(self):
        emb = clique_embedding(12, chimera_graph(3))
        first = emb.chains[0]
        twice = Embedding(chains=(first + first[:1], *emb.chains[1:]), topology=emb.topology)
        assert [(v.kind, v.detail) for v in validate_embedding(twice, k_couplers(12))] == [
            ("overlap", f"qubit {first[0]} appears twice in chain 0")
        ]
        with pytest.raises(InvalidEmbeddingError):
            embed_ising(random_logical(12, seed=1), twice, 1)

    def test_chain_checks_run_once_per_embedding(self, monkeypatch):
        # a jf sweep embeds at every grid point; only coverage depends on the model
        emb = clique_embedding(8, chimera_graph(2))
        starts = []
        monkeypatch.setattr(chimera, "hops", lambda adj, start: starts.append(start) or hops(adj, start))
        logical = random_logical(8, seed=2)
        embed_ising(logical, emb, 1)
        embed_ising(logical, emb, 2)
        assert len(starts) == len(emb.chains)
        assert [v.kind for v in validate_embedding(emb, [(0, 8)])] == ["coverage"]
        assert len(starts) == len(emb.chains)

    @settings(max_examples=80, deadline=None)
    @given(
        chains=st.lists(st.lists(st.integers(0, 31), min_size=0, max_size=4, unique=True), max_size=5),
        couplers=st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)), max_size=12),
    )
    @example(chains=[[0, 4]], couplers=[(2**62, 0), (0, -(2**63)), (0, 0)])
    @example(chains=[], couplers=[(0, 0)])
    def test_coverage_matches_per_coupler_check(self, chains, couplers):
        # every coupler is checked at once; the messages and their order are
        # those of a check of one coupler at a time
        emb = Embedding(chains=tuple(map(tuple, chains)), topology=chimera_graph(2))
        n, spans = len(chains), emb.chain_index.spans
        want = list(emb.chain_violations)
        for i, j in couplers:
            if not (0 <= i < n and 0 <= j < n):
                want.append(chimera.Violation("coverage", f"logical coupler ({i},{j}) out of range"))
            elif (min(i, j), max(i, j)) not in spans:
                want.append(chimera.Violation("coverage", f"no physical coupler joins chains {i} and {j}"))
        assert validate_embedding(emb, couplers) == want
        assert validate_embedding(emb, iter(couplers)) == want


def probed_groups(emb):
    """{(i, j): sorted position pairs} for every chain pair i <= j, found by
    probing every qubit pair of the two chains against the topology's couplers.
    A qubit listed more than once is named by its last position."""
    pos = {q: i for i, q in enumerate(sorted(q for chain in emb.chains for q in chain))}
    couplers = set(map(tuple, emb.topology.coupler_array().tolist()))
    groups = {}
    for i, one in enumerate(emb.chains):
        for j in range(i, len(emb.chains)):
            pairs = {(min(a, b), max(a, b)) for a in one for b in emb.chains[j]}
            groups[(i, j)] = tuple(sorted((pos[a], pos[b]) for a, b in pairs if (a, b) in couplers))
    return groups


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
        emb = Embedding(chains=chains, topology=topo)
        index = emb.chain_index
        assert index.qubit_order == tuple(sorted(q for chain in chains for q in chain))
        pos = {q: i for i, q in enumerate(index.qubit_order)}
        assert index.positions == tuple(tuple(pos[q] for q in chain) for chain in chains)
        groups = probed_groups(emb)
        assert set(index.spans) == {key for key, group in groups.items() if group}
        for key, group in groups.items():
            assert tuple(map(tuple, index.pairs[index.spans.get(key, slice(0, 0))].tolist())) == group


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

    def test_d8_clique_matches_probed_adjacency(self):
        # the d = 8 instance's 56 chains on C14, 840 qubits
        emb = clique_embedding(56, chimera_graph(14))
        adj = {p: [] for p in range(len(emb.chain_index.qubit_order))}
        for group in probed_groups(emb).values():
            for a, b in group:
                adj[a].append(b)
                adj[b].append(a)
        e = np.array([max(hops(adj, start).values()) for start in adj], dtype=float)
        mean = float(e.mean())
        m2, m3, m4 = (float(((e - mean) ** k).mean()) for k in (2, 3, 4))
        assert eccentricity_stats(emb) == chimera.EccentricityStats(
            mean=mean, variance=m2, skewness=m3 / m2**1.5, kurtosis=m4 / m2**2 - 3.0
        )

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


def coefficients():
    """Ints and small fractions, zero included."""
    return st.builds(lambda a, b: normalize(Fraction(a, b)), st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7]))


ONE_QUBIT_CHAINS = Embedding(chains=((0,), (4,)), topology=chimera_graph(1))  # no chain coupler at all


@st.composite
def embed_cases(draw):
    """(logical, embedding, jf): a fractional model over a clique embedding,
    `unequal_k4` or `ONE_QUBIT_CHAINS`, on a drawn subset of the chain pairs
    in drawn order, sometimes with one coefficient near 2**70 (past int64
    once scaled)."""
    emb = draw(st.sampled_from(["unequal", "single", 1, 2, 3, 5, 8]))
    if emb == "unequal":
        emb = unequal_k4()
    elif emb == "single":
        emb = ONE_QUBIT_CHAINS
    else:
        emb = clique_embedding(emb, chimera_graph(2))
    n = emb.n_logical
    keys = draw(st.lists(st.sampled_from(k_couplers(n)), unique=True)) if n > 1 else []
    values = draw(st.lists(coefficients(), min_size=n + len(keys) + 1, max_size=n + len(keys) + 1))
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = normalize(Fraction(2**70 + draw(st.integers(-3, 3)), draw(st.sampled_from([1, 3]))))
    logical = IsingModel(n=n, h=tuple(values[:n]), couplings=dict(zip(keys, values[n:-1])), offset=values[-1])
    return logical, emb, draw(st.sampled_from([0, Fraction(1, 2), 1.5, 2]))


BIG_CASE = (
    IsingModel(n=4, h=(Fraction(1, 3), 0, 2**70 + 1, -2), couplings={(2, 3): 0, (0, 1): Fraction(-5, 7), (1, 3): 3}, offset=Fraction(1, 2)),
    unequal_k4(),
    1.5,
)


class TestEmbedOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=embed_cases())
    @example(case=BIG_CASE)
    @example(case=(IsingModel(n=2, h=(1, 1), couplings={(0, 1): 1}), ONE_QUBIT_CHAINS, Fraction(1, 2)))
    def test_matches_fraction_reference(self, case):
        """The integer construction gives the Fraction loop's model, bookkeeping
        and coupling insertion order, with the integer form `_IntForm.build`
        makes of it, dtype included."""
        logical, emb, jf = case
        got, want = embed_ising(logical, emb, jf), reference_embed(logical, emb, jf)
        assert_same_model(got.model, want.model)
        assert (got.jf, got.scale, got.chain_offsets, got.constant) == (want.jf, want.scale, want.chain_offsets, want.constant)
        assert got.qubit_order == want.qubit_order
        assert_same_form(got.model.int_form, want.model.int_form)

    def test_big_case_takes_the_object_path(self):
        assert embed_ising(*BIG_CASE).model.int_form.quad.dtype == object


def expand_unbroken(s_log, emb, embedded: EmbeddedIsing):
    owner = {}
    for i, chain in enumerate(emb.chains):
        for q in chain:
            owner[q] = i
    return tuple(s_log[owner[q]] for q in embedded.qubit_order)


class TestAutoscaleOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=embed_cases())
    @example(case=BIG_CASE)
    def test_matches_fraction_reference(self, case):
        """The rescaling in integers gives the Fraction loop's model and factor,
        for a logical model and for its embedding, and the scaled model's form
        is the one `_IntForm.build` makes of it, dtype included."""
        logical, emb, jf = case
        for model in (logical, embed_ising(logical, emb, jf).model):
            got, factor = autoscale(model)
            want, want_factor = reference_autoscale(model)
            assert_same_model(got, want)
            assert (factor, type(factor)) == (want_factor, type(want_factor))
            assert_same_form(got.int_form, _IntForm.build("ising", got.n, got.h, got.couplings, got.offset))
            assert_same_form(got.int_form.rebased().rebased(), got.int_form)


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

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="sample has 3 spins, embedding uses 8 qubits"):
            decode_chains((1, 1, 1), self.emb, DecodePolicy.MAJORITY_VOTE)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_chain_loop(self, data):
        emb = unequal_k4()  # unsorted chains of unequal length; the two-qubit ones can tie
        sample = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=8, max_size=8))
        for policy in DecodePolicy:
            assert decode_chains(sample, emb, policy) == reference_decode_chains(sample, emb, policy)

    def test_tie_break_lowest_qubit(self):
        topo = chimera_graph(1)
        emb = Embedding(chains=((4, 0),), topology=topo)  # chain order not sorted
        order = emb.qubit_order()  # (0, 4)
        sample = (1, -1)  # qubit 0 -> +1, qubit 4 -> -1
        decoded, broken = decode_chains(sample, emb, DecodePolicy.MAJORITY_VOTE)
        assert broken == 1
        assert decoded == (1,)  # lowest physical id (qubit 0) wins the tie
