import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from postman import samplers
from postman.chimera import chimera_graph, clique_embedding, embed_ising
from postman.errors import (
    DimensionMismatchError, InvalidArgumentError, NoGapError, ParseError, TooLargeError,
)
from postman.exact import odd_pair_distances
from postman.graphs import Graph, read_edge_list
from postman.metrics import bootstrap
from postman.numbers import normalize
from postman.qubo import IsingModel, QuboModel, build_qubo, to_ising
from postman.samplers import (
    BLOCK_FLOATS,
    BRANCH_GUARD,
    _HalfSplit,
    _branch_levels,
    _gap,
    _split_levels,
    _exact_floats,
    _int_form,
    _level_plan,
    _levels,
    spectral_gap_large,
    SampleRecord,
    SampleSet,
    Schedule,
    brute_force,
    ground_state,
    simulated_annealing,
    tabu_search,
)

from conftest import NEAR_GUARD_QUBO, apply_gauge, enumerate_matchings, exhaustive, levels, reference_tabu
from test_metrics import fractional_embedded

GOLDEN = Path(__file__).parent / "golden"
D8 = GOLDEN / "d8.edgelist"  # the bench's d = 8 instance


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


# coefficients with denominators 1..7, so the scale is rarely 1
_fraction = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))
_nonnegative = st.builds(Fraction, st.integers(0, 12), st.integers(1, 7))


@st.composite
def nonnegative_qubos(draw):
    """A QUBO of up to 10 bits whose couplings are all >= 0: Fraction, zero
    and absent couplings, and a share of zero fields."""
    n = draw(st.integers(0, 10))
    linear = tuple(draw(st.one_of(st.just(0), _fraction)) for _ in range(n))
    quadratic = {(i, j): draw(_nonnegative) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    return QuboModel(dim=n, linear=linear, quadratic=quadratic, offset=draw(_fraction))


@st.composite
def pair_qubos(draw):
    """The pair-QUBO of a random symmetric d x d table, d = 2 or 4, with
    integer or Fraction weights and a penalty p >= d."""
    d = draw(st.sampled_from((2, 4)))
    dist = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            dist[i][j] = dist[j][i] = draw(st.builds(Fraction, st.integers(1, 20), st.integers(1, 3)))
    return build_qubo(dist, draw(st.builds(Fraction, st.integers(d, 8 * d), st.integers(1, 2)).filter(lambda p: p >= d)))


def assert_gap_is_exhaustive(model):
    """The gap of both routes into the branch and bound, against the exhaustive
    spectrum: equal values, and equal int/Fraction types."""
    e0, e1 = levels(exhaustive(model))[:2]
    form = model.int_form
    x_form = form.rebased() if form.kind == "ising" else form
    for got in (spectral_gap_large(model), _gap(x_form, _branch_levels(x_form))):
        assert got == (e0, e1, e1 - e0)
        assert list(map(type, got)) == list(map(type, (e0, e1, normalize(e1 - e0))))


class TestBranchLevels:
    """The branch-and-bound gap search of models whose couplings are all >= 0."""

    @settings(max_examples=150, deadline=None)
    @given(model=nonnegative_qubos())
    # two zero fields joined by a positive coupling: the level 1 sits below the
    # lowest positive field, 5, so the next level counts zero-field couplings
    @example(model=QuboModel(dim=3, linear=(0, 0, 5), quadratic={(0, 1): 1}))
    @example(model=QuboModel(dim=4, linear=(0, 0, 0, 7), quadratic={(0, 1): 2, (1, 2): 3, (0, 2): 1}))
    def test_matches_exhaustive(self, model):
        if len(levels(exhaustive(model))) < 2:
            with pytest.raises(NoGapError):
                spectral_gap_large(model)
        else:
            assert_gap_is_exhaustive(model)

    @settings(max_examples=60, deadline=None)
    @given(model=pair_qubos())
    def test_pair_qubos(self, model):
        assert_gap_is_exhaustive(model)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ising_with_nonnegative_couplings(self, data):
        # J >= 0 is a coupling of 4 J >= 0 in the bit basis
        n = data.draw(st.integers(1, 9))
        h = tuple(data.draw(_fraction) for _ in range(n))
        couplings = {(i, j): data.draw(_nonnegative) for i in range(n) for j in range(i + 1, n) if data.draw(st.booleans())}
        model = IsingModel(n=n, h=h, couplings=couplings, offset=data.draw(_fraction))
        if len(levels(exhaustive(model))) > 1:
            assert_gap_is_exhaustive(model)

    def test_single_level(self):
        # 90 zero fields end the search at its root: branching on them would visit 2**90 nodes
        for model in (QuboModel(dim=0, linear=(), quadratic={}), QuboModel(dim=90, linear=(0,) * 90, quadratic={})):
            with pytest.raises(NoGapError):
                spectral_gap_large(model)
        plateau = QuboModel(dim=90, linear=(0,) * 90, quadratic={(i, i + 1): 3 for i in range(0, 89, 2)})
        assert spectral_gap_large(plateau) == (0, 3, 3)

    @pytest.mark.parametrize("source", ["d6.edgelist", "d6_pair_qubo"])
    @pytest.mark.parametrize("p", [6, Fraction(27, 2), 24])
    def test_d6_matches_split_scan(self, source, p):
        if source == "d6_pair_qubo":
            model = d6_pair_qubo(p)[0]
        else:
            model = build_qubo(odd_pair_distances(read_edge_list((GOLDEN / source).read_text())), p)
        for m in (model, to_ising(model)):
            split = _HalfSplit(m)
            want = _gap(split.x_form, _split_levels(split))
            got = spectral_gap_large(m)
            assert got == want
            assert list(map(type, got)) == list(map(type, want))

    def test_routing(self, monkeypatch, demo):
        # the split scan serves only models with a negative bit-basis coupling
        mixed = random_ising(9, seed=8)
        assert min(mixed.int_form.rebased().quad.tolist()) < 0
        e0, e1 = levels(exhaustive(mixed))[:2]

        def refuse(model):
            raise AssertionError("split scan built")

        monkeypatch.setattr(samplers, "_HalfSplit", refuse)
        assert spectral_gap_large(demo_qubo(demo)) == (5, 10, 5)
        with pytest.raises(AssertionError):
            spectral_gap_large(mixed)
        monkeypatch.undo()
        assert spectral_gap_large(mixed) == (e0, e1, e1 - e0)

    def test_guard(self):
        assert BRANCH_GUARD == 90  # d = 10 pair-QUBOs take 0.3-1.4 s per call, d = 12 13-19 s
        at = QuboModel(dim=BRANCH_GUARD, linear=(1,) * BRANCH_GUARD, quadratic={(0, 1): 1})
        assert spectral_gap_large(at) == (0, 1, 1)
        past = QuboModel(dim=BRANCH_GUARD + 1, linear=(1,) * (BRANCH_GUARD + 1), quadratic={(0, 1): 1})
        with pytest.raises(TooLargeError, match="dim 91 exceeds branch-and-bound guard 90"):
            spectral_gap_large(past)
        # a negative coupling keeps the split scan and its guard of 32
        mixed = QuboModel(dim=33, linear=(1,) * 33, quadratic={(0, 1): -1})
        with pytest.raises(TooLargeError, match="dim 33 exceeds ground-state guard 32"):
            spectral_gap_large(mixed)


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

    def test_chunking_invariant(self, monkeypatch, demo):
        # per-read RNG streams make the result independent of chunk splits
        ising = to_ising(demo_qubo(demo))
        sched = Schedule(n_sweeps=120)
        whole = simulated_annealing(ising, schedule=sched, reads=30, seed=2)
        monkeypatch.setattr(samplers, "BLOCK_FLOATS", 7 * 512)  # chunks of 7 reads below 512 spins
        split = simulated_annealing(ising, schedule=sched, reads=30, seed=2)
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

    @pytest.mark.parametrize("p", [8, Fraction(17, 2)])
    def test_qubo_anneals_as_its_ising_model(self, demo, p):
        # a QUBO's reads are its Ising model's, each spin s read as the bit (s + 1) / 2
        q = demo_qubo(demo, p)
        sched = Schedule(n_sweeps=30)
        got = simulated_annealing(q, schedule=sched, reads=40, seed=6)
        spins = simulated_annealing(to_ising(q), schedule=sched, reads=40, seed=6)
        assert got.records == tuple(
            dataclasses.replace(r, config=tuple((s + 1) // 2 for s in r.config)) for r in spins.records
        )
        assert got.metadata == spins.metadata
        assert simulated_annealing(q.int_form, schedule=sched, reads=40, seed=6) == got
        assert all(q.energy(r.config) == r.energy for r in got.records)

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


def one_spin_annealing(model, schedule, reads, seed):
    """The one-spin-at-a-time Metropolis loop in the form's integer units: the
    reference that the level steps of `simulated_annealing` must reproduce bit
    for bit. Fields are exact integers; only dE is divided by the scale."""
    form = _int_form(model)
    n, sweeps = form.n, schedule.n_sweeps
    Jm = np.zeros((n, n))
    Jm[form.rows, form.cols] = form.quad.tolist()
    Jm[form.cols, form.rows] = form.quad.tolist()
    S = np.empty((reads, n))
    U = np.empty((reads, sweeps, n))
    for r in range(reads):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
        S[r] = rng.integers(0, 2, n) * 2 - 1
        U[r] = rng.random((sweeps, n))
    F = S @ Jm + np.array(form.linear.tolist(), dtype=np.float64)
    for t, beta in enumerate(schedule.betas()):
        for i in range(n):
            dE = -2.0 * S[:, i] * F[:, i]
            accept = dE <= 0.0
            hard = ~accept
            if hard.any():
                accept[hard] = U[hard, t, i] < np.exp(-beta * (dE[hard] / form.scale))
            if accept.any():
                old = S[accept, i].copy()
                S[accept, i] = -old
                F[accept] += (-2.0 * old)[:, None] * Jm[i][None, :]
    return SampleSet.from_configs(form, S.astype(np.int8), {})


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
    """The annealer decides a level of mutually uncoupled spins in one step."""

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.one_of(dense_ising(), embedded_ising()),
        schedule=schedules,
        reads=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        chunk=st.sampled_from((None, 1, 3)),
    )
    def test_matches_one_spin_loop(self, model, schedule, reads, seed, chunk):
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:  # chunks of `chunk` reads below 512 spins
                mp.setattr(samplers, "BLOCK_FLOATS", chunk * 512)
            got = simulated_annealing(model, schedule=schedule, reads=reads, seed=seed)
        assert got.records == one_spin_annealing(model, schedule, reads, seed).records

    @settings(max_examples=60, deadline=None)
    @given(model=st.one_of(dense_ising(), embedded_ising()))
    def test_levels_are_the_longest_coupled_paths(self, model):
        form = _int_form(model)
        level = _levels(form.n, form.rows, form.cols, form.quad).tolist()
        coupled = [(i, j) for i, j, v in zip(form.rows.tolist(), form.cols.tolist(), form.quad.tolist()) if v]
        # every coupled pair i < j steps up a level, so no level holds a coupled pair
        assert all(level[i] < level[j] for i, j in coupled)
        assert not any(level[i] == level[j] for i, j in coupled)
        # minimal: a spin above level 0 has a coupled lower-index spin one level down,
        # so its level is the length of the longest coupled increasing path ending there
        for j, lv in enumerate(level):
            assert lv == 0 or any(level[i] == lv - 1 for i, k in coupled if k == j)

    @pytest.mark.parametrize("budget", [1, 3 * 512, None])
    @pytest.mark.parametrize("reads", [1, 5, 12])
    def test_frozen_ties_follow_the_oracle(self, monkeypatch, budget, reads):
        # this model's fields often sum to exactly zero; in float units they
        # rounded to either sign by the order of their terms, which decided the
        # frozen chain. In integer units a tie is an exact dE = 0 under any chunking
        model = fractional_embedded(6, 2, 1.0, seed=3).model
        sched = Schedule(math.inf, math.inf, 20)
        if budget is not None:
            monkeypatch.setattr(samplers, "BLOCK_FLOATS", budget)
        got = simulated_annealing(model, schedule=sched, reads=reads, seed=3)
        assert got.records == one_spin_annealing(model, sched, reads, 3).records

    def test_uncoupled_and_zero_couplings(self):
        # a coupling of 0 raises no level; uncoupled spins share level 0
        sched = Schedule(n_sweeps=5)
        for model in (
            IsingModel(n=1, h=(Fraction(1, 3),), couplings={}),
            IsingModel(n=4, h=(1, 0, -1, 2), couplings={(0, 1): 0, (1, 3): Fraction(2, 7)}),
        ):
            got = simulated_annealing(model, schedule=sched, reads=6, seed=4)
            assert got.records == one_spin_annealing(model, sched, 6, 4).records
        form = _int_form(IsingModel(n=4, h=(0,) * 4, couplings={(0, 1): 0, (1, 3): 2}))
        assert _levels(4, form.rows, form.cols, form.quad).tolist() == [0, 0, 0, 1]

    def test_guard(self):
        # a field past 2**53 would round in float64, so the model is refused
        model = IsingModel(n=2, h=(2**53, 0), couplings={(0, 1): 1})
        with pytest.raises(TooLargeError):
            simulated_annealing(model, Schedule(n_sweeps=2), reads=1)


def dense_level_plan(form):
    """`_level_plan` from the permuted n x n coupling matrix: the reference for
    the plan that the annealer builds from the coupling list."""
    n = form.n
    h, J = _exact_floats(form.linear, form.quad)
    level = _levels(n, form.rows, form.cols, J)
    order = np.argsort(level, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    Jm = np.zeros((n, n))
    Jm[rank[form.rows], rank[form.cols]] = J
    Jm[rank[form.cols], rank[form.rows]] = J
    plan = []
    ends = np.cumsum(np.bincount(level)).tolist()
    for a, e in zip([0] + ends, ends):
        targets = np.flatnonzero(Jm[a:e].any(axis=0))
        plan.append((slice(a, e), targets, -2.0 * Jm[targets, a:e]))
    return order, h[order, None], plan


class TestLevelPlan:
    """The plan built from the coupling list equals the dense construction."""

    @staticmethod
    def assert_dense_plan(model):
        form = _int_form(model)
        order, h, plan = _level_plan(form)
        want_order, want_h, want_plan = dense_level_plan(form)
        assert order.tolist() == want_order.tolist()
        assert h.shape == want_h.shape and h.tolist() == want_h.tolist()
        assert [lv for lv, _, _ in plan] == [lv for lv, _, _ in want_plan]
        for (_, targets, block), (_, want_targets, want_block) in zip(plan, want_plan):
            assert targets.dtype == np.intp and targets.tolist() == want_targets.tolist()
            assert block.shape == want_block.shape and block.tolist() == want_block.tolist()

    @settings(max_examples=100, deadline=None)
    @given(model=st.one_of(dense_ising(), embedded_ising()))
    def test_matches_dense_construction(self, model):
        self.assert_dense_plan(model)

    @pytest.mark.parametrize(
        "model",
        [
            # zero couplings, one of them between spins that are otherwise uncoupled
            IsingModel(n=5, h=(1, 0, -1, 2, 3), couplings={(0, 1): 0, (1, 3): Fraction(2, 7), (2, 4): 0}),
            IsingModel(n=3, h=(1, 2, 3), couplings={(0, 2): 0}),
            IsingModel(n=4, h=(0, 1, 0, 1), couplings={}),  # uncoupled: one level, no targets
            IsingModel(n=6, h=(1,) * 6, couplings={(0, 5): 1, (4, 5): -1}),
            IsingModel(n=1, h=(Fraction(1, 3),), couplings={}),
            IsingModel(n=0, h=(), couplings={}),
        ],
        ids=["zero couplings", "only zero couplings", "uncoupled", "spread targets", "n = 1", "n = 0"],
    )
    def test_edge_cases(self, model):
        self.assert_dense_plan(model)


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
        # one negative coupling sends the d = 6 pair-QUBO to the split scan:
        # 2**15 x 15 cross fields and B-assignments take 7.5 MB; a full-width
        # scan block was 16 MB, held up to three times
        model, _ = d6_pair_qubo()
        mixed = dataclasses.replace(model, quadratic={**model.quadratic, (0, 1): -1})
        assert traced_peak_mb(lambda: spectral_gap_large(mixed)) < 24

    def test_branch_search_peak(self):
        # the d = 8 pair-QUBO's search holds its fields and coupling lists alone
        model = build_qubo(odd_pair_distances(read_edge_list(D8.read_text())), 8)
        model.int_form  # built and kept on the model before the trace starts
        assert traced_peak_mb(lambda: spectral_gap_large(model)) < 1

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

    def test_embedded_annealer_peak(self):
        # K132 clique-embedded on C33 is 4488 spins, whose n x n float64
        # coupling matrix alone would take 154 MB
        k = 132
        couplings = {(i, j): 1 + (i + j) % 3 for i in range(k) for j in range(i + 1, k)}
        logical = IsingModel(n=k, h=(1, -2) * (k // 2), couplings=couplings)
        model = embed_ising(logical, clique_embedding(k, chimera_graph(33)), 2).model
        assert model.n == 4488
        peak = traced_peak_mb(lambda: simulated_annealing(model, Schedule(n_sweeps=1), reads=1, seed=1))
        assert peak < 20

    @pytest.mark.parametrize("budget", [1, 36, 100, 250, 5 * 512])
    def test_uniform_slabs(self, monkeypatch, budget):
        # 12 reads of 6 spins over 100 sweeps: budgets of 1, 36, 100 and 250
        # give one-read chunks with slabs of 1, 3, 8 (8 x 12 + 4, ragged) and
        # 20 sweeps; 5 * 512 gives chunks of 5, 5 and 2 reads with slabs of
        # 42 (42 + 42 + 16) and 100 sweeps
        model = random_ising(6, seed=17, lo=-2, hi=2)
        sched = Schedule(0.2, 2.0, 100)
        want = one_spin_annealing(model, sched, 12, 8)  # every uniform drawn up front
        monkeypatch.setattr(samplers, "BLOCK_FLOATS", budget)
        got = simulated_annealing(model, schedule=sched, reads=12, seed=8)
        assert got.records == want.records

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


@st.composite
def tabu_models(draw):
    """A QUBO, an Ising model or an integer form of up to 20 variables, with
    mixed-sign fractional coefficients."""
    n = draw(st.integers(1, 20))
    linear = tuple(draw(_fraction) for _ in range(n))
    pairs = {(i, j): draw(_fraction) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    kind = draw(st.sampled_from(("qubo", "ising", "form")))
    if kind == "ising":
        return IsingModel(n=n, h=linear, couplings=pairs, offset=draw(_fraction))
    model = QuboModel(dim=n, linear=linear, quadratic=pairs, offset=draw(_fraction))
    return model.int_form if kind == "form" else model


def tabu_case(moves, kind):
    """Whether the reference's move log holds a move of `kind`; "tie" is a
    non-tabu move with another allowed move at the same energy."""
    if kind == "tie":
        return any(k == "free" and ties > 1 for _, k, ties in moves)
    return any(k == kind for _, k, _ in moves)


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
        moves = []
        want = reference_tabu(model, tenure=10, max_restarts=2, seed=0, moves=moves)
        assert tabu_case(moves, "all tabu")
        result = tabu_search(model, tenure=10, max_restarts=2, seed=0)
        assert result == want
        assert result.best().energy == -3

    @pytest.mark.parametrize(
        "model, tenure, restarts, seed, kind",
        [
            # restart 1 starts at x = (1, 0, 0), E = -1, where every flip climbs
            # to 0 and x0 is taken; flipping x0 back is tabu at tenure 1, but -1
            # beats the best energy reached so far (the start is not counted)
            (QuboModel(dim=3, linear=(-1, 0, 1), quadratic={(0, 1): 1, (0, 2): 0, (1, 2): -3}), 1, 3, 3, "aspiration"),
            # restart 2 starts at x = (1, 1), E = 3; either flip reaches 0, the
            # best of restart 1, so neither aspires, and x0 is taken
            (QuboModel(dim=2, linear=(0, 0), quadratic={(0, 1): 3}), 2, 2, 4, "tie"),
            # restart 1 flips x3, x1, x2 and x0; at move 5 all four are tabu at
            # tenure 4, no flip beats the best so far, and the lowest flip is taken
            (QuboModel(dim=4, linear=(-4, 0, 2, -2), quadratic={(1, 2): -3, (1, 3): 2}), 4, 3, 2, "all tabu"),
        ],
    )
    def test_move_rule_branches(self, model, tenure, restarts, seed, kind):
        # each model's records change if that branch takes another move: no
        # aspiration, the higher index on a tie, or the flip that leaves the list first
        moves = []
        want = reference_tabu(model, tenure=tenure, max_restarts=restarts, seed=seed, moves=moves)
        assert tabu_case(moves, kind)
        assert tabu_search(model, tenure=tenure, max_restarts=restarts, seed=seed) == want

    @settings(max_examples=60, deadline=None)
    @given(
        model=tabu_models(),
        tenure=st.sampled_from(("1", "n - 1", "n", "above n", "10**20")),
        restarts=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        above=st.integers(1, 30),
    )
    def test_matches_reference(self, model, tenure, restarts, seed, above):
        n = _int_form(model).n
        tenure = {"1": 1, "n - 1": max(1, n - 1), "n": n, "above n": n + above, "10**20": 10**20}[tenure]
        want = reference_tabu(model, tenure=tenure, max_restarts=restarts, seed=seed)
        assert tabu_search(model, tenure=tenure, max_restarts=restarts, seed=seed) == want

    @pytest.mark.parametrize("p, seed", [(8, 1), (32, 2)])
    def test_matches_reference_d8(self, p, seed):
        # a 56-variable pair-QUBO
        model = build_qubo(odd_pair_distances(read_edge_list(D8.read_text())), p)
        want = reference_tabu(model, max_restarts=3, seed=seed)
        assert tabu_search(model, max_restarts=3, seed=seed) == want

    def test_restart_multiplicities(self, demo):
        result = tabu_search(demo_qubo(demo), max_restarts=6, seed=2)
        assert result.total_reads == 6

    def test_start_energy_counts_each_coupling_once(self):
        # a start energy that sums the 2**52 coupling twice rounds, and the
        # moves that compare against it end at -4 four times
        want = reference_tabu(NEAR_GUARD_QUBO, tenure=4, max_restarts=4, seed=2)
        got = tabu_search(NEAR_GUARD_QUBO, tenure=4, max_restarts=4, seed=2)
        assert got == want
        assert [(r.energy, r.multiplicity) for r in got.records] == [(-4, 3), (-3, 1)]


@st.composite
def near_guard_models(draw):
    """A QUBO of 2 to 8 variables, or its Ising model, whose x-basis form has
    one coefficient of +-2**52 and small integers elsewhere, so that the
    magnitudes sum below 2**53, with an offset of up to 2**60."""
    n = draw(st.integers(2, 8))
    small = st.integers(-20, 20)
    linear = [draw(small) for _ in range(n)]
    pairs = {(i, j): draw(small) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    key = draw(st.sampled_from([*range(n), *pairs]))
    big = draw(st.sampled_from((2**52, -(2**52))))
    if isinstance(key, int):
        linear[key] = big
    else:
        pairs[key] = big
    model = QuboModel(dim=n, linear=tuple(linear), quadratic=pairs, offset=draw(st.integers(-(2**60), 2**60)))
    return to_ising(model) if draw(st.booleans()) else model


@st.composite
def near_guard_spins(draw):
    """An Ising model of 2 to 8 spins, over a denominator of 1 or 3, whose form's
    coefficient magnitudes sum to just below 2**53: one to three couplings
    share what small integers elsewhere leave, so a field near them sums terms
    of about 2**52 from several levels."""
    n = draw(st.integers(2, 8))
    small = st.integers(-20, 20)
    h = [draw(small) for _ in range(n)]
    pairs = {(i, j): draw(small) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())}
    every = [(i, j) for i in range(n) for j in range(i + 1, n)]
    big = draw(st.lists(st.sampled_from(every), min_size=1, max_size=3, unique=True))
    for key in big:
        pairs[key] = 0
    room = 2**53 - 1 - sum(map(abs, h)) - sum(map(abs, pairs.values()))
    for key in big:
        pairs[key] = draw(st.sampled_from((1, -1))) * (room // len(big) - draw(st.integers(0, 7)))
    q = draw(st.sampled_from((1, 3)))
    return IsingModel(
        n=n, h=tuple(Fraction(v, q) for v in h), couplings={k: Fraction(v, q) for k, v in pairs.items()},
        offset=draw(st.integers(-(2**60), 2**60)),
    )


# over a denominator of 3, spin 1 takes J = 2**52 - 1 from level 0 and -J from
# level 2, so its field is exactly 0 whenever spins 0 and 2 agree
NEAR_GUARD_CHAIN = IsingModel(
    n=3, h=(Fraction(1, 3), 0, 0), couplings={(0, 1): Fraction(2**52 - 1, 3), (1, 2): Fraction(1 - 2**52, 3)}
)

# offsets past 2**53 that no float sum may carry
BIG_OFFSETS = [
    dataclasses.replace(NEAR_GUARD_QUBO, offset=2**60),
    to_ising(dataclasses.replace(NEAR_GUARD_QUBO, offset=-(2**53) - 1)),
]


class TestNearGuard:
    """Coefficients just inside the float guard and offsets far outside it."""

    @settings(max_examples=60, deadline=None)
    @given(model=near_guard_models())
    @example(model=BIG_OFFSETS[0])
    @example(model=BIG_OFFSETS[1])
    def test_exact_scans(self, model):
        every = exhaustive(model)
        e0, e1 = levels(every)[:2]
        assert brute_force(model, keep=2).records == tuple(r for r in every.records if r.energy <= e1)
        assert ground_state(model).best().energy == e0
        assert spectral_gap_large(model) == (e0, e1, e1 - e0)

    @settings(max_examples=60, deadline=None)
    @given(model=near_guard_models(), tenure=st.integers(1, 9), restarts=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(model=BIG_OFFSETS[0], tenure=4, restarts=4, seed=2)
    @example(model=BIG_OFFSETS[1], tenure=4, restarts=4, seed=2)
    def test_tabu_matches_reference(self, model, tenure, restarts, seed):
        want = reference_tabu(model, tenure=tenure, max_restarts=restarts, seed=seed)
        assert tabu_search(model, tenure=tenure, max_restarts=restarts, seed=seed) == want

    @settings(max_examples=60, deadline=None)
    @given(model=near_guard_spins(), schedule=schedules, reads=st.integers(1, 5), seed=st.integers(0, 2**16))
    @example(model=NEAR_GUARD_CHAIN, schedule=Schedule(math.inf, math.inf, 3), reads=4, seed=1)
    @example(model=NEAR_GUARD_CHAIN, schedule=Schedule(0.1, 2.0, 3), reads=4, seed=2)
    def test_annealing_matches_one_spin_loop(self, model, schedule, reads, seed):
        # the annealer sums each initial field level by level, in units of -2 J;
        # the fields are exact, so that grouping does not show in any record
        got = simulated_annealing(model, schedule=schedule, reads=reads, seed=seed)
        assert got.records == one_spin_annealing(model, schedule, reads, seed).records


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
        # a gauge only flips signs of the integer form's arrays (the scale and
        # offset stay), so a read annealed over the ungauged form from g s0
        # is the gauged read times g, and keeps its exact energy
        model, _ = data.draw(model_and_configs(big))
        if isinstance(model, QuboModel):
            model = IsingModel(n=model.dim, h=model.linear, couplings=model.quadratic, offset=model.offset)
        if big:  # every example takes the object-dtype path
            model = dataclasses.replace(model, offset=model.offset + 2**70)
        gauge = data.draw(st.tuples(*[st.sampled_from((-1, 1))] * model.n))
        form, gauged = _int_form(model), _int_form(apply_gauge(model, gauge))
        assert (gauged.kind, gauged.n, gauged.scale, gauged.offset) == (form.kind, form.n, form.scale, form.offset)
        assert gauged.rows.tolist() == form.rows.tolist() and gauged.cols.tolist() == form.cols.tolist()
        assert gauged.linear.dtype == gauged.quad.dtype == form.linear.dtype == (object if big else np.int64)
        assert gauged.linear.tolist() == [v * g for v, g in zip(form.linear.tolist(), gauge)]
        signs = [gauge[i] * gauge[j] for i, j in zip(form.rows.tolist(), form.cols.tolist())]
        assert gauged.quad.tolist() == [v * g for v, g in zip(form.quad.tolist(), signs)]
        spins = data.draw(st.lists(st.tuples(*[st.sampled_from((-1, 1))] * model.n), min_size=1, max_size=8))
        flipped = [tuple(s * g for s, g in zip(c, gauge)) for c in spins]
        energy = {r.config: r.energy for r in SampleSet.from_configs(form, spins, {}).records}
        for r in SampleSet.from_configs(gauged, flipped, {}).records:
            assert r.energy == energy[tuple(s * g for s, g in zip(r.config, gauge))]

    def test_many_configs_span_blocks(self):
        # 900 configs x 2415 couplings exceed one 2**21-product block
        model = IsingModel(n=70, h=random_ising(70, seed=9).h, offset=1, couplings={
            (i, j): (i * j) % 7 - 3 for i in range(70) for j in range(i + 1, 70)
        })
        configs = np.random.default_rng(2).choice([-1, 1], size=(900, 70))
        ss = SampleSet.from_configs(model, configs, {})
        assert len(ss.records) == 900
        assert all(r.energy == model.energy(r.config) for r in ss.records)
