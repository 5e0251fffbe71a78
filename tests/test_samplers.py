import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from postman import samplers
from postman.chimera import apply_gauge, chimera_graph, clique_embedding, embed_ising
from postman.errors import (
    DimensionMismatchError, InvalidArgumentError, NoGapError, ParseError, TooLargeError,
)
from postman.exact import odd_pair_distances
from postman.graphs import Graph
from postman.metrics import bootstrap
from postman.qubo import IsingModel, QuboModel, build_qubo, to_ising
from postman.samplers import (
    BLOCK_FLOATS,
    _HalfSplit,
    _block_plan,
    _int_form,
    spectral_gap_large,
    SampleRecord,
    SampleSet,
    Schedule,
    brute_force,
    ground_state,
    simulated_annealing,
    tabu_search,
)

from conftest import exhaustive, levels


def demo_qubo(demo, p=8):
    return build_qubo(odd_pair_distances(demo), p)


def d6_pair_qubo(p=24):
    """The 30-variable pair-QUBO of a d = 6 distance table; returns (model, dist)."""
    rng = np.random.default_rng(5)
    d = 6
    dist = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            dist[i][j] = dist[j][i] = int(rng.integers(1, 5))
    return build_qubo(dist, p), dist


def random_ising(n, seed, lo=-4, hi=4):
    rng = np.random.default_rng(seed)
    h = tuple(int(v) for v in rng.integers(lo, hi + 1, n))
    couplings = {
        (i, j): int(rng.integers(lo, hi + 1))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    }
    return IsingModel(n=n, h=h, couplings=couplings, offset=int(rng.integers(-3, 4)))


class TestBruteForce:
    def test_demo_ground_states(self, demo):
        result = brute_force(demo_qubo(demo))
        assert result.best().energy == 5
        assert len(result.records) == 4
        assert all(r.energy == 5 for r in result.records)

    def test_d2_two_ground_orientations(self):
        model = build_qubo(((0, 3), (3, 0)), 2)
        result = brute_force(model)
        assert result.best().energy == 3
        assert {r.config for r in result.records} == {(1, 0), (0, 1)}

    def test_keep_levels(self, demo):
        result = brute_force(demo_qubo(demo, 64), keep=3)
        levels = sorted({r.energy for r in result.records})
        assert levels == [5, 10, 14]  # the three pairing weights lead the spectrum

    def test_guard(self):
        model = IsingModel(n=27, h=(0,) * 27, couplings={}, offset=0)
        with pytest.raises(TooLargeError):
            brute_force(model)

    def test_energies_reevaluate(self, demo):
        model = demo_qubo(demo)
        for r in brute_force(model, keep=2).records:
            assert model.energy(r.config) == r.energy

    def test_ising_input(self):
        model = random_ising(8, seed=4)
        viaq = brute_force(model)
        # spot check against direct evaluation of all configurations
        best = min(
            model.energy([2 * ((m >> k) & 1) - 1 for k in range(8)])
            for m in range(1 << 8)
        )
        assert viaq.best().energy == best

    @pytest.mark.parametrize("keep", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["qubo", "ising", "fractional", "flat"])
    def test_matches_exhaustive(self, kind, keep):
        # the reference shares no code with the split scan that brute force runs on
        spins = random_ising(9, seed=40)
        model = {
            "qubo": QuboModel(dim=9, linear=spins.h, quadratic=spins.couplings, offset=spins.offset),
            "ising": spins,
            "fractional": IsingModel(n=9, h=(Fraction(1, 3),) * 9, couplings={(0, 1): Fraction(-2, 7), (3, 8): 1}),
            "flat": QuboModel(dim=9, linear=(0,) * 9, quadratic={(2, 5): 1}),  # 384 ground states
        }[kind]
        every = exhaustive(model)
        heads = levels(every)
        want = [r for r in every.records if r.energy <= heads[min(keep, len(heads)) - 1]]
        got = brute_force(model, keep=keep)
        assert got.records == tuple(want)
        assert got.metadata["levels"] == len(heads)


def test_penalty_bound_limit():
    # p >= d is admissible, but only M_min < 2p makes every minimiser legal
    table = odd_pair_distances(Graph(2, [(0, 1, 10)]))
    low = brute_force(build_qubo(table, 2))
    assert low.best().energy == 4
    assert [r.config for r in low.records] == [(0, 0)]
    assert brute_force(build_qubo(table, 6)).best().energy == 10


class TestSpectralGap:
    def test_single_variable(self):
        model = QuboModel(dim=1, linear=(7,), quadratic={}, offset=0)
        assert spectral_gap_large(model) == (0, 7, 7)

    def test_demo_penalty_widens_gap(self, demo):
        gap8 = spectral_gap_large(demo_qubo(demo, 8))[2]
        gap16 = spectral_gap_large(demo_qubo(demo, 16))[2]
        assert gap16 >= gap8

    def test_strictly_positive(self, demo):
        e0, e1, gap = spectral_gap_large(demo_qubo(demo))
        assert e1 > e0 and gap == e1 - e0

    def test_no_gap(self):
        model = QuboModel(dim=2, linear=(0, 0), quadratic={}, offset=1)
        with pytest.raises(NoGapError):
            spectral_gap_large(model)

    def test_fractional_exact(self):
        model = IsingModel(n=2, h=(Fraction(1, 3), 0), couplings={(0, 1): Fraction(1, 7)}, offset=0)
        e0, e1, gap = spectral_gap_large(model)
        states = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        energies = sorted(model.energy(s) for s in states)
        assert e0 == energies[0]
        assert e1 == min(e for e in energies if e > energies[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_large_variant_matches_exhaustive(self, seed):
        model = random_ising(13, seed=300 + seed)
        e0, e1 = levels(exhaustive(model))[:2]
        assert spectral_gap_large(model) == (e0, e1, e1 - e0)

    def test_large_variant_past_guard(self):
        # 30-variable pairing model: levels are the matching weights
        from postman.exact import enumerate_matchings

        model, dist = d6_pair_qubo(4 * 6)  # big penalty keeps low levels legal
        weights = sorted(
            {sum(dist[i][j] for i, j in m) for m in enumerate_matchings(6)}
        )
        e0, e1, gap = spectral_gap_large(model)
        assert (e0, e1) == (weights[0], weights[1])
        # the scan holds one block of about BLOCK_FLOATS floats at a time
        sizes = [(len(rows), tot.size) for rows, tot in _HalfSplit(model).blocks(np.arange(200))]
        assert sum(rows for rows, _ in sizes) == 200
        assert max(size for _, size in sizes) == BLOCK_FLOATS


class TestGroundState:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force(self, seed):
        model = random_ising(11, seed=seed)
        assert ground_state(model).best().energy == exhaustive(model).best().energy

    def test_demo(self, demo):
        assert ground_state(demo_qubo(demo)).best().energy == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_adversarial_cross_check(self, seed):
        # denser, mixed-sign, fractional models at dim 14; prune must stay exact
        rng = np.random.default_rng(1000 + seed)
        n = 14
        h = tuple(Fraction(int(v), int(rng.integers(1, 4))) for v in rng.integers(-9, 10, n))
        couplings = {
            (i, j): Fraction(int(rng.integers(-9, 10)), 2)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.8
        }
        model = IsingModel(n=n, h=h, couplings=couplings, offset=Fraction(1, 3))
        gs = ground_state(model)
        assert gs.best().energy == exhaustive(model).best().energy
        assert model.energy(gs.best().config) == gs.best().energy

    def test_guard(self):
        model = IsingModel(n=33, h=(0,) * 33, couplings={}, offset=0)
        with pytest.raises(TooLargeError):
            ground_state(model)


class TestSimulatedAnnealing:
    def test_deterministic(self, demo):
        ising = to_ising(demo_qubo(demo))
        a = simulated_annealing(ising, reads=50, seed=9)
        b = simulated_annealing(ising, reads=50, seed=9)
        assert a.records == b.records

    def test_chunking_invariant(self, demo):
        # per-read RNG streams make the result independent of chunk splits
        ising = to_ising(demo_qubo(demo))
        sched = Schedule(n_sweeps=120)
        whole = simulated_annealing(ising, schedule=sched, reads=30, seed=2)
        split = simulated_annealing(ising, schedule=sched, reads=30, seed=2, chunk=7)
        assert whole.records == split.records

    def test_finds_demo_ground(self, demo):
        ising = to_ising(demo_qubo(demo))
        result = simulated_annealing(ising, reads=200, seed=11)
        assert result.best().energy == 5

    def test_energies_reevaluate(self, demo):
        ising = to_ising(demo_qubo(demo))
        result = simulated_annealing(ising, schedule=Schedule(n_sweeps=50), reads=40, seed=3)
        for r in result.records:
            assert ising.energy(r.config) == r.energy
        assert result.total_reads == 40

    def test_greedy_limit_never_climbs(self):
        model = random_ising(9, seed=7)
        sched = Schedule(beta_start=math.inf, beta_end=math.inf, n_sweeps=60)
        for read in range(10):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(21, read)))
            start = tuple(int(v) for v in rng.integers(0, 2, model.n) * 2 - 1)
            result = simulated_annealing(model, schedule=sched, reads=read + 1, seed=21)
            assert result.best().energy <= model.energy(start)

    def test_brute_force_is_lower_bound(self):
        model = random_ising(10, seed=13)
        e0 = brute_force(model).best().energy
        result = simulated_annealing(model, schedule=Schedule(n_sweeps=300), reads=100, seed=1)
        assert all(r.energy >= e0 for r in result.records)
        assert result.best().energy == e0  # generous budget reaches the floor

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(beta_start=2.0, beta_end=1.0)
        with pytest.raises(ValueError):
            Schedule(n_sweeps=0)
        # linspace(0.1, inf) would put nan at the first sweep
        with pytest.raises(InvalidArgumentError):
            Schedule(beta_start=0.1, beta_end=math.inf)
        assert Schedule(beta_start=math.inf, beta_end=math.inf, n_sweeps=2).betas().tolist() == [math.inf] * 2


def one_spin_annealing(model, schedule, reads, seed, chunk=None):
    """The one-spin-at-a-time Metropolis loop that `simulated_annealing`
    replaced, kept as the reference its block steps must reproduce bit for bit."""
    form = _int_form(model)
    n = form.n
    hf = np.array([v / form.scale for v in form.linear.tolist()], dtype=np.float64)
    J = [v / form.scale for v in form.quad.tolist()]
    Jm = np.zeros((n, n))
    Jm[form.rows, form.cols] = J
    Jm[form.cols, form.rows] = J
    betas = schedule.betas()
    n_sweeps = schedule.n_sweeps
    finals = np.empty((reads, n), dtype=np.int8)
    if chunk is None:  # cap the pregenerated uniform block at ~128 MB
        chunk = max(1, min(reads, (1 << 24) // max(1, n_sweeps * n)))
    for start in range(0, reads, chunk):
        stop = min(start + chunk, reads)
        m = stop - start
        S = np.empty((m, n))
        U = np.empty((m, n_sweeps, n))
        for row, r in enumerate(range(start, stop)):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
            S[row] = rng.integers(0, 2, n) * 2 - 1
            U[row] = rng.random((n_sweeps, n))
        F = S @ Jm
        for t in range(n_sweeps):
            beta = betas[t]
            for i in range(n):
                dE = -2.0 * S[:, i] * (hf[i] + F[:, i])
                accept = dE <= 0.0
                hard = ~accept
                if hard.any():
                    accept[hard] = U[hard, t, i] < np.exp(-beta * dE[hard])
                if accept.any():
                    old = S[accept, i].copy()
                    S[accept, i] = -old
                    F[accept] += (-2.0 * old)[:, None] * Jm[i][None, :]
        finals[start:stop] = S.astype(np.int8)
    return SampleSet.from_configs(form, finals, {})


# coefficients with denominators 1..7, so the float form rounds
_fraction = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


@st.composite
def dense_ising(draw):
    n = draw(st.integers(1, 10))
    zero_h = draw(st.booleans())
    h = tuple(0 if zero_h else draw(_fraction) for _ in range(n))
    complete = draw(st.booleans())
    couplings = {(i, j): draw(_fraction) for i in range(n) for j in range(i + 1, n) if complete or draw(st.booleans())}
    return IsingModel(n=n, h=h, couplings=couplings)


@st.composite
def embedded_ising(draw):
    """A logical model clique-embedded on C2 or C3: wide blocks whose spins
    share neighbours across a cell's shores."""
    m = draw(st.integers(2, 3))
    logical = draw(dense_ising().filter(lambda model: model.n <= 4 * m))
    emb = clique_embedding(logical.n, chimera_graph(m))
    return embed_ising(logical, emb, draw(st.sampled_from((Fraction(1, 2), 1, Fraction(3, 2), 2)))).model


schedules = st.builds(
    lambda kind, beta, sweeps: {
        "ramp": Schedule(0.1, beta, sweeps),
        "flat": Schedule(beta, beta, sweeps),
        "greedy": Schedule(math.inf, math.inf, sweeps),
    }[kind],
    st.sampled_from(("ramp", "flat", "greedy")),
    st.sampled_from((0.5, 2.0, 7.0)),
    st.integers(1, 6),
)


class TestBlockSteps:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.one_of(dense_ising(), embedded_ising()),
        schedule=schedules,
        reads=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from((None, 1, 3)),
    )
    def test_matches_one_spin_loop(self, model, schedule, reads, seed, chunk):
        got = simulated_annealing(model, schedule=schedule, reads=reads, seed=seed, chunk=chunk)
        want = one_spin_annealing(model, schedule, reads, seed, chunk)
        assert got.records == want.records

    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(dense_ising(), embedded_ising()))
    def test_plan_replays_couplings_in_sweep_order(self, model):
        # field changes are exact only in the single-spin order, which sample
        # outputs almost never reveal, so the plan itself is checked
        form = _int_form(model)
        n, J = form.n, form.quad / form.scale
        plan = _block_plan(n, form.rows, form.cols, J)
        coupled, want = set(), {j: [] for j in range(n)}
        for i, j, v in zip(form.rows.tolist(), form.cols.tolist(), J.tolist()):
            if v:
                coupled.add(frozenset((i, j)))
                want[i].append((j, v))
                want[j].append((i, v))
        assert [a for a, _, _ in plan] == [0] + [e for _, e, _ in plan][:-1] and plan[-1][1] == n
        replayed = {j: [] for j in range(n)}
        for a, e, layers in plan:
            assert not any(frozenset((i, j)) in coupled for i in range(a, e) for j in range(i + 1, e))
            assert e == n or any(frozenset((i, e)) in coupled for i in range(a, e))  # maximal
            for target, coef, src in layers:
                targets = range(target.start, target.stop) if isinstance(target, slice) else target.tolist()
                assert len(set(targets)) == len(targets) == len(coef) == len(src)
                for j, c, i in zip(targets, coef[:, 0].tolist(), (src + a).tolist()):
                    assert a <= i < e
                    if c:
                        replayed[j].append((i, c))
        assert replayed == {j: sorted(sources) for j, sources in want.items()}

    def test_uncoupled_and_zero_couplings(self):
        # a coupling of 0 joins no block; a lone spin is its own block
        sched = Schedule(n_sweeps=5)
        for model in (
            IsingModel(n=1, h=(Fraction(1, 3),), couplings={}),
            IsingModel(n=4, h=(1, 0, -1, 2), couplings={(0, 1): 0, (1, 3): Fraction(2, 7)}),
        ):
            got = simulated_annealing(model, schedule=sched, reads=6, seed=4)
            assert got.records == one_spin_annealing(model, sched, 6, 4).records


def traced_peak_mb(run) -> float:
    """Peak traced allocation of run(), numpy buffers included, in MB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Working memory is set by BLOCK_FLOATS, and no result depends on it."""

    def test_gap_scan_peak(self):
        model, _ = d6_pair_qubo()
        # 2**15 x 15 cross fields and B-assignments take 7.5 MB; a full-width
        # scan block was 16 MB, held up to three times
        assert traced_peak_mb(lambda: spectral_gap_large(model)) < 24

    def test_annealer_peak(self):
        ising = to_ising(d6_pair_qubo()[0])
        # all of one chunk's uniforms would take 400 x 500 x 30 doubles, 46 MB
        peak = traced_peak_mb(lambda: simulated_annealing(ising, Schedule(n_sweeps=500), reads=400, seed=1))
        assert peak < 16

    def test_brute_force_peak(self):
        spins = random_ising(24, seed=23, lo=-2, hi=2)
        model = QuboModel(dim=24, linear=spins.h, quadratic=spins.couplings, offset=spins.offset)
        # all 2**24 energies at once would take 128 MB, and their sort as much again
        assert traced_peak_mb(lambda: brute_force(model, keep=2)) < 16

    def test_bootstrap_peak(self):
        hits = np.random.default_rng(6).integers(0, 2, 4000)
        # a (resamples x reads) index matrix and its float gather would take 305 MB
        assert traced_peak_mb(lambda: bootstrap(hits, resamples=5000, seed=1)) < 16

    @pytest.mark.parametrize("budget", [1, 36, 100, 250])
    def test_uniform_slabs(self, monkeypatch, budget):
        # chunks of 5, 5 and 2 reads of 6 spins: a budget of 36 gives slabs of
        # 1 and 3 sweeps, 100 gives 3 and 8 (3 + 3 + 3 + 1 and 8 + 2, ragged),
        # 250 gives 8 and 10
        model = random_ising(6, seed=17, lo=-2, hi=2)
        sched = Schedule(0.2, 2.0, 10)
        want = one_spin_annealing(model, sched, 12, 8, chunk=5)  # every uniform drawn up front
        whole = simulated_annealing(model, schedule=sched, reads=12, seed=8, chunk=5)
        monkeypatch.setattr(samplers, "BLOCK_FLOATS", budget)
        got = simulated_annealing(model, schedule=sched, reads=12, seed=8, chunk=5)
        assert got.records == whole.records == want.records

    @pytest.mark.parametrize("budget", [1, 64, 1 << 12])
    def test_exact_scans_ignore_the_budget(self, monkeypatch, demo, budget):
        # the demo QUBO has four ground states, so ground_state's pick is a tie-break
        models = [demo_qubo(demo), random_ising(13, seed=301), random_ising(18, seed=302, lo=-1, hi=1)]

        def results():
            out = [(spectral_gap_large(m), ground_state(m).records) for m in models]
            return out + [brute_force(m, keep=3).records for m in models[:2]]

        want = results()
        monkeypatch.setattr(samplers, "BLOCK_FLOATS", budget)
        assert results() == want


class TestTabu:
    def test_demo(self, demo):
        result = tabu_search(demo_qubo(demo), seed=5)
        assert result.best().energy == 5

    def test_deterministic(self, demo):
        model = demo_qubo(demo)
        a = tabu_search(model, seed=8)
        b = tabu_search(model, seed=8)
        assert a.records == b.records and a.metadata == b.metadata

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_small(self, seed):
        model = random_ising(10, seed=100 + seed)
        best = tabu_search(model, seed=seed).best().energy
        assert best == exhaustive(model).best().energy

    def test_small_dim_all_tabu_fallback(self):
        # tenure exceeding dim forces the all-tabu fallback path
        model = QuboModel(dim=2, linear=(1, -3), quadratic={(0, 1): 2}, offset=0)
        result = tabu_search(model, tenure=10, max_restarts=2, seed=0)
        assert result.best().energy == -3

    def test_restart_multiplicities(self, demo):
        result = tabu_search(demo_qubo(demo), max_restarts=6, seed=2)
        assert result.total_reads == 6


class TestSampleSet:
    def test_merge_deterministic_orderless(self):
        model = QuboModel(dim=2, linear=(1, 2), quadratic={}, offset=0)
        a = SampleSet.from_configs(model, [(0, 0), (1, 0)], {"sampler": "x"})
        b = SampleSet.from_configs(model, [(0, 0), (0, 1)], {"sampler": "x"})
        assert a.merge(b).records == b.merge(a).records
        merged = a.merge(b)
        assert merged.total_reads == 4
        assert merged.records[0].config == (0, 0)
        assert merged.records[0].multiplicity == 2

    def test_json_round_trip(self, demo):
        model = demo_qubo(demo)
        result = brute_force(model, keep=2)
        again = SampleSet.from_json(result.to_json())
        assert again.records == result.records

    def test_json_with_rejected_and_fraction(self):
        records = (
            SampleRecord(config=(1, -1), energy=Fraction(3, 2), multiplicity=2),
            SampleRecord(config=None, energy=None, multiplicity=3),
        )
        ss = SampleSet(records=records, metadata={"sampler": "t"})
        assert SampleSet.from_json(ss.to_json()).records == records

    def test_csv_histogram(self, demo):
        text = brute_force(demo_qubo(demo)).to_csv()
        assert text.splitlines()[0] == "energy,multiplicity"
        assert "5,4" in text

    def test_from_json_malformed(self):
        for obj in ({"metadata": {}}, [1], {"records": [1]},
                    {"records": [{"config": "ab", "energy": 1, "multiplicity": 1}]},
                    {"records": [{"config": [1], "energy": [1], "multiplicity": 1}]}):
            with pytest.raises(ParseError):
                SampleSet.from_json(obj)

    def test_malformed_configs(self):
        model = IsingModel(n=2, h=(1, 0), couplings={}, offset=0)
        with pytest.raises(DimensionMismatchError):
            SampleSet.from_configs(model, [(1, -1), (1, 1, 1)], {})
        with pytest.raises(ValueError):
            SampleSet.from_configs(model, [(1, 0)], {})
        with pytest.raises(ValueError):
            SampleSet.from_configs(QuboModel(dim=2, linear=(3, 5), quadratic={}), [(2, 0)], {})


def _coefficient(big: bool):
    small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return small.map(lambda v: v * 2**70) if big else small


@st.composite
def model_and_configs(draw, big: bool):
    n = draw(st.integers(1, 7))
    coeff = _coefficient(big)
    linear = tuple(draw(st.lists(coeff, min_size=n, max_size=n)))
    quad = {
        (i, j): draw(coeff)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    offset = draw(coeff)
    if draw(st.booleans()):
        model = QuboModel(dim=n, linear=linear, quadratic=quad, offset=offset)
        values = st.sampled_from((0, 1))
    else:
        model = IsingModel(n=n, h=linear, couplings=quad, offset=offset)
        values = st.sampled_from((-1, 1))
    configs = draw(st.lists(st.tuples(*[values] * n), min_size=1, max_size=8))
    return model, configs


class TestFromConfigsExact:
    @pytest.mark.parametrize("big", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stored_energies_are_exact(self, big, data):
        model, configs = data.draw(model_and_configs(big))
        ss = SampleSet.from_configs(model, configs, {})
        assert ss.total_reads == len(configs)
        for r in ss.records:
            expected = model.energy(r.config)
            assert r.energy == expected
            assert type(r.energy) is type(expected)

    @pytest.mark.parametrize("big", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gauged_form_matches_gauged_model(self, big, data):
        model, _ = data.draw(model_and_configs(big))
        if isinstance(model, QuboModel):
            model = IsingModel(n=model.dim, h=model.linear, couplings=model.quadratic, offset=model.offset)
        if big:  # every example takes the object-dtype path
            model = dataclasses.replace(model, offset=model.offset + 2**70)
        gauge = data.draw(st.tuples(*[st.sampled_from((-1, 1))] * model.n))
        got, want = _int_form(model).gauged(gauge), _int_form(apply_gauge(model, gauge))
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
                assert list(map(type, a.tolist())) == list(map(type, b.tolist()))
            else:
                assert type(a) is type(b) and a == b
        assert want.linear.dtype == (object if big else np.int64)

    def test_many_configs_span_blocks(self):
        # 900 configs x 2415 couplings exceed one 2**21-product block
        model = IsingModel(n=70, h=random_ising(70, seed=9).h, offset=1, couplings={
            (i, j): (i * j) % 7 - 3 for i in range(70) for j in range(i + 1, 70)
        })
        configs = np.random.default_rng(2).choice([-1, 1], size=(900, 70))
        ss = SampleSet.from_configs(model, configs, {})
        assert len(ss.records) == 900
        assert all(r.energy == model.energy(r.config) for r in ss.records)
