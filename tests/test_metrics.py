import functools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from postman import chimera, metrics, samplers
from postman.chimera import DecodePolicy, chimera_graph, clique_embedding, spin_reversal
from postman.errors import EmptySampleSetError, InvalidArgumentError, PostmanError
from postman.metrics import (
    _derived_seed,
    bootstrap,
    curve_to_csv,
    decode_sampleset,
    jf_sweep,
    p_gs,
    sample_embedded,
    success_indicators,
    t_99,
    tts_sa,
)
from postman.qubo import IsingModel, QuboModel
from postman.samplers import SampleRecord, SampleSet, Schedule, _record_key, brute_force, simulated_annealing

from conftest import apply_gauge, assert_same_form, reference_decode_sampleset, unequal_k4


def sampleset(records):
    return SampleSet(records=tuple(records), metadata={"sampler": "synthetic"})


def frustrated_k4():
    return IsingModel(
        n=4, h=(0, 0, 0, 0),
        couplings={(i, j): 1 for i in range(4) for j in range(i + 1, 4)},
        offset=0,
    )


class TestPgs:
    def test_reported_fraction(self):
        ss = sampleset([
            SampleRecord(config=(1,), energy=5, multiplicity=4644),
            SampleRecord(config=(-1,), energy=9, multiplicity=40000 - 4644),
        ])
        assert p_gs(ss, 5) == Fraction(4644, 40000)
        assert float(p_gs(ss, 5)) == pytest.approx(0.1161)

    def test_zero_and_all(self):
        misses = sampleset([SampleRecord(config=(1,), energy=7, multiplicity=10)])
        assert p_gs(misses, 5) == 0
        hits = sampleset([SampleRecord(config=(1,), energy=5, multiplicity=10)])
        assert p_gs(hits, 5) == 1

    def test_rejected_in_denominator(self):
        ss = sampleset([
            SampleRecord(config=(1,), energy=5, multiplicity=3),
            SampleRecord(config=None, energy=None, multiplicity=1),
        ])
        assert p_gs(ss, 5) == Fraction(3, 4)

    def test_empty_raises(self):
        with pytest.raises(EmptySampleSetError):
            p_gs(sampleset([]), 0)


class TestT99:
    def test_table_values(self):
        assert t_99(0.8783, 20e-6) == pytest.approx(4.37e-5, rel=0.01)
        assert t_99(0.5107, 20e-6) == pytest.approx(1.29e-4, rel=0.01)

    def test_identity_at_confidence(self):
        assert t_99(0.99, 7e-6) == pytest.approx(7e-6, rel=1e-12)

    def test_sentinels(self):
        assert t_99(0.0) == math.inf
        assert t_99(1.0, 3e-6) == 3e-6

    def test_strictly_decreasing(self):
        grid = [0.01, 0.1, 0.3, 0.6, 0.9, 0.99]
        values = [t_99(p) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("anneal_time", [math.inf, -math.inf, math.nan, 0.0, -1e-6])
    def test_anneal_time_positive_and_finite(self, anneal_time):
        with pytest.raises(InvalidArgumentError, match="^anneal time must be positive and finite$"):
            t_99(0.52, anneal_time)


class TestTts:
    def test_printed_formula_value(self):
        assert tts_sa(0.5, 12, 1000, 0.5e-9) == pytest.approx(144 * 6.6438561 * 5.0e-7, rel=1e-6)

    def test_sentinels(self):
        assert tts_sa(0.0, 4, 10) == math.inf
        assert tts_sa(1.0, 4, 10, 1e-9) == 16 * 1e-9 * 10

    def test_doubling_n_quadruples(self):
        assert tts_sa(0.3, 8, 100) == pytest.approx(4 * tts_sa(0.3, 4, 100))

    def test_monotonicity(self):
        assert tts_sa(0.6, 5, 100) < tts_sa(0.4, 5, 100)
        assert tts_sa(0.5, 5, 200) > tts_sa(0.5, 5, 100)
        assert tts_sa(0.5, 5, 100, 2e-9) > tts_sa(0.5, 5, 100, 1e-9)

    @pytest.mark.parametrize("tau_s", [math.inf, -math.inf, math.nan, 0.0, -1e-9])
    def test_tau_s_positive_and_finite(self, tau_s):
        with pytest.raises(InvalidArgumentError, match="finite tau_s > 0"):
            tts_sa(0.52, 5, 100, tau_s)


class TestBootstrap:
    def test_all_success_zero_spread(self):
        mean, two_sigma = bootstrap([1] * 50, resamples=200, seed=1)
        assert mean == 1.0 and two_sigma == 0.0

    def test_binomial_width(self):
        data = [1] * 500 + [0] * 500
        mean, two_sigma = bootstrap(data, resamples=2000, seed=3)
        assert mean == pytest.approx(0.5, abs=0.01)
        assert two_sigma == pytest.approx(2 * math.sqrt(0.25 / 1000), rel=0.10)

    def test_deterministic(self):
        data = [1, 0, 1, 1, 0]
        assert bootstrap(data, seed=9) == bootstrap(data, seed=9)

    def test_mean_within_band(self):
        data = [1] * 37 + [0] * 63
        mean, two_sigma = bootstrap(data, resamples=3000, seed=5)
        assert abs(mean - 0.37) <= two_sigma


class TestDecodeOrdering:
    @pytest.mark.parametrize("seed", range(10))
    def test_majority_at_least_discard(self, seed):
        # random raw physical samples over the K4-on-C1 embedding
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        rng = np.random.default_rng(seed)
        n_phys = len(emb.qubit_order())
        configs = [tuple(int(v) for v in rng.integers(0, 2, n_phys) * 2 - 1) for _ in range(60)]
        raw = SampleSet.from_configs(
            IsingModel(n=n_phys, h=(0,) * n_phys, couplings={}, offset=0),
            configs,
            {"sampler": "random"},
        )
        reference = brute_force(logical).best().energy
        mv, broken_mv = decode_sampleset(raw, emb, logical, DecodePolicy.MAJORITY_VOTE)
        db, broken_db = decode_sampleset(raw, emb, logical, DecodePolicy.DISCARD_BROKEN)
        assert p_gs(mv, reference) >= p_gs(db, reference)
        assert broken_mv == broken_db  # broken fraction is policy independent
        assert mv.total_reads == db.total_reads == 60


@st.composite
def decode_cases(draw):
    """(physical set, embedding, logical model): reads over a clique embedding or
    over `unequal_k4`, some of them
    chain-aligned with a few flips, some uniform, repeated, plus rejected reads."""
    emb = draw(st.sampled_from([
        unequal_k4(),
        clique_embedding(4, chimera_graph(1)),
        clique_embedding(6, chimera_graph(2)),
    ]))
    index = emb.chain_index
    n_phys = len(index.qubit_order)
    configs = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            row = [0] * n_phys
            for spin, positions in zip(draw(st.lists(st.sampled_from([-1, 1]), min_size=emb.n_logical, max_size=emb.n_logical)), index.positions):
                for p in positions:
                    row[p] = spin
            for p in draw(st.sets(st.integers(0, n_phys - 1), max_size=3)):
                row[p] = -row[p]
        else:
            row = draw(st.lists(st.sampled_from([-1, 1]), min_size=n_phys, max_size=n_phys))
        configs += [tuple(row)] * draw(st.integers(1, 3))
    blank = IsingModel(n=n_phys, h=(0,) * n_phys, couplings={})
    physical = SampleSet.from_configs(blank, configs, {"sampler": "synthetic"}, rejected=draw(st.integers(0, 2)))
    logical = IsingModel(
        n=emb.n_logical,
        h=tuple(draw(st.lists(st.integers(-3, 3), min_size=emb.n_logical, max_size=emb.n_logical))),
        couplings={(i, j): draw(st.integers(-3, 3)) for i in range(emb.n_logical) for j in range(i + 1, emb.n_logical)},
    )
    return physical, emb, logical


class TestDecodeOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=decode_cases())
    def test_matches_record_loop(self, case):
        """One array pass per policy gives the per-record loop's sample set
        and broken fraction: ties, rejected reads and multiplicities included."""
        physical, emb, logical = case
        for policy in DecodePolicy:
            assert decode_sampleset(physical, emb, logical, policy) == reference_decode_sampleset(
                physical, emb, logical, policy
            )


class TestSampleEmbedded:
    def test_gauge_split_deterministic(self):
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        from postman.chimera import embed_ising

        embedded = embed_ising(logical, emb, 1.0)
        sched = Schedule(n_sweeps=100)
        a = sample_embedded(embedded, sched, reads=50, gauges=3, seed=7)
        b = sample_embedded(embedded, sched, reads=50, gauges=3, seed=7)
        assert a.records == b.records
        assert a.total_reads == 50

    def test_gauges_without_reads_are_not_drawn(self, monkeypatch):
        embedded = chimera.embed_ising(frustrated_k4(), clique_embedding(4, chimera_graph(1)), 1.0)
        sched = Schedule(n_sweeps=20)
        asked = []

        def spy(n, gauges, seed=0):
            asked.append(gauges)
            return spin_reversal(n, gauges, seed=seed)

        monkeypatch.setattr(metrics, "spin_reversal", spy)
        many = sample_embedded(embedded, sched, reads=3, gauges=10**6, seed=4)
        few = sample_embedded(embedded, sched, reads=3, gauges=3, seed=4)
        sample_embedded(embedded, sched, reads=5, gauges=2, seed=4)
        assert asked == [3, 3, 2]  # never more gauges than reads
        assert many.records == few.records

    def test_gauged_energies_match_model(self, monkeypatch):
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        from postman.chimera import embed_ising

        embedded = embed_ising(logical, emb, 1.0)
        with monkeypatch.context() as m:
            for cls in (IsingModel, QuboModel):  # energies come from the integer form
                m.setattr(cls, "energy", lambda *a: pytest.fail("model.energy called"))
            out = sample_embedded(embedded, Schedule(n_sweeps=80), reads=30, gauges=4, seed=1)
        for r in out.records:
            assert embedded.model.energy(r.config) == r.energy

    def test_one_integer_form_and_no_gauged_models(self, monkeypatch):
        # every gauge anneals in one call over the model's own integer form
        from postman import qubo

        embedded = chimera.embed_ising(frustrated_k4(), clique_embedding(4, chimera_graph(1)), 1.0)
        anneal = samplers._anneal
        forms = []

        def recording(form, *args, **kwargs):
            forms.append(form)
            return anneal(form, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a gauged IsingModel or another integer form was built")

        monkeypatch.setattr(metrics, "_anneal", recording)
        monkeypatch.setattr(qubo.IsingModel, "__post_init__", refuse)
        monkeypatch.setattr(qubo._IntForm, "__init__", refuse)
        out = sample_embedded(embedded, Schedule(n_sweeps=20), reads=12, gauges=4, seed=3)
        assert len(forms) == 1 and forms[0] is embedded.model.int_form
        assert out.total_reads == 12

    def test_jf_sweep_builds_each_form_once(self, monkeypatch):
        # decode_sampleset runs once per policy and jf point; the logical form
        # is kept on the model, so it is built once, and embed_ising builds each
        # physical model from it with the form `build` would give attached
        from postman import qubo

        build = qubo._IntForm.build
        built, embedded = [], []

        def counting(kind, n, *rest):
            built.append(n)
            return build(kind, n, *rest)

        def recording(*args, **kwargs):
            embedded.append(embed(*args, **kwargs))
            return embedded[-1]

        def split(fn, items):
            # the logical form and the chain index are built before the points split, once
            assert "int_form" in vars(logical) and "chain_index" in vars(emb)
            return fan_out(fn, items)

        embed, fan_out = metrics.embed_ising, metrics._fan_out
        monkeypatch.setattr(qubo._IntForm, "build", staticmethod(counting))
        monkeypatch.setattr(metrics, "embed_ising", recording)
        monkeypatch.setattr(metrics, "_fan_out", split)
        monkeypatch.setattr(samplers, "_cores", lambda: 1)  # every point in this process, where the spies see it
        logical, emb = frustrated_k4(), clique_embedding(4, chimera_graph(1))
        jf_sweep(logical, emb, [0.5, 1.0, 1.5], 0, schedule=Schedule(n_sweeps=5), reads=6, seed=2)
        assert built == [logical.n]  # the logical model only
        assert len(embedded) == 3
        for one in embedded:
            model = one.model
            assert_same_form(model.int_form, build("ising", model.n, model.h, model.couplings, model.offset))
        assert logical.int_form is logical.int_form
        assert IsingModel(logical.n, logical.h, dict(logical.couplings)).int_form is not logical.int_form


def fractional_embedded(k: int, m: int, jf: float, seed: int):
    """A random K_k Ising model in tenths, clique-embedded on C_m. Its fields
    often sum to zero exactly, where float sums of the coefficients in tenths
    would round to either sign depending on the order of the terms, so at
    infinite beta it shows any field that is not held exactly."""
    rng = np.random.default_rng(seed)

    def coefficient():
        return Fraction(int(rng.integers(-9, 10)), 10)

    logical = IsingModel(
        n=k, h=tuple(coefficient() for _ in range(k)),
        couplings={(i, j): coefficient() for i in range(k) for j in range(i + 1, k)},
    )
    return chimera.embed_ising(logical, clique_embedding(k, chimera_graph(m)), jf)


def per_gauge_loop(embedded, schedule, reads, gauges, seed):
    """The per-gauge loop that `sample_embedded` replaced: one
    `simulated_annealing` run of each gauged model, its reads mapped back
    through the gauge, then merged. The batched call must equal it."""
    model = embedded.model
    signs = spin_reversal(model.n, gauges, seed=_derived_seed(seed, 1, 0))[:reads]
    base, extras = divmod(reads, len(signs))
    merged = None
    for g_index, gauge in enumerate(signs):
        raw = simulated_annealing(
            apply_gauge(model, gauge), schedule=schedule, reads=base + (g_index < extras),
            seed=_derived_seed(seed, 2, g_index),
        )
        records = [
            SampleRecord(tuple(s * g for s, g in zip(r.config, gauge)), r.energy, r.multiplicity)
            for r in raw.records
        ]
        part = SampleSet(records=tuple(sorted(records, key=_record_key)), metadata=raw.metadata)
        merged = part if merged is None else merged.merge(part)
    meta = dict(merged.metadata)
    meta.update(reads=reads, gauges=gauges, seed=seed, jf=float(embedded.jf))
    return SampleSet(records=merged.records, metadata=meta)


class TestBatchedGauges:
    """`sample_embedded` anneals every gauge in one call, bit for bit the
    per-gauge loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.sampled_from([(4, 1), (6, 2)]),
        jf=st.sampled_from([0.5, 1.0, 2.0]),
        reads=st.integers(1, 45),
        gauges=st.integers(0, 12),
        sweeps=st.integers(1, 30),
        frozen=st.booleans(),
        chunk=st.sampled_from([None, 1, 2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    # ragged splits, reads < gauges, and single-read gauges
    @example(size=(6, 2), jf=1.0, reads=7, gauges=5, sweeps=20, frozen=False, chunk=None, seed=1)
    @example(size=(6, 2), jf=1.0, reads=3, gauges=5, sweeps=20, frozen=False, chunk=None, seed=2)
    @example(size=(6, 2), jf=1.0, reads=41, gauges=40, sweeps=20, frozen=True, chunk=None, seed=3)
    @example(size=(6, 2), jf=1.0, reads=25, gauges=2, sweeps=20, frozen=False, chunk=3, seed=4)
    def test_matches_per_gauge_loop(self, size, jf, reads, gauges, sweeps, frozen, chunk, seed):
        embedded = fractional_embedded(*size, jf, seed % 97)
        # at infinite beta a field that rounded across zero would flip the decision
        schedule = Schedule(math.inf, math.inf, sweeps) if frozen else Schedule(0.1, 3.0, sweeps)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:  # chunks of `chunk` reads, splitting gauges as wide models do
                mp.setattr(samplers, "BLOCK_FLOATS", chunk * 512)
            got = sample_embedded(embedded, schedule, reads, gauges, seed)
            want = per_gauge_loop(embedded, schedule, reads, gauges, seed)
        assert got.records == want.records
        assert list(got.metadata.items()) == list(want.metadata.items())

    @pytest.mark.parametrize("beta", [1.0, math.inf])
    @pytest.mark.parametrize("width", [1, 2, 5, 16])
    def test_annealing_width_changes_no_record(self, monkeypatch, width, beta):
        # chunks of 1, 2, 5 or 16 reads (BLOCK_FLOATS // 512 below 512 spins):
        # the 23 reads of 4 gauges, 6, 6, 6 and 5, split across chunks at every width
        embedded = fractional_embedded(6, 2, 1.0, seed=3)
        schedule = Schedule(beta, beta, 40)

        def run():
            annealed = simulated_annealing(embedded.model, schedule, reads=23, seed=9)
            return sample_embedded(embedded, schedule, reads=23, gauges=4, seed=9), annealed

        want = run()
        monkeypatch.setattr(samplers, "BLOCK_FLOATS", width * 512)
        got = run()
        assert [out.records for out in got] == [out.records for out in want]


class TestJfSweep:
    def test_frustrated_curve(self):
        # chains uncoupled at jf=0: physical grounds break every chain
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        reference = brute_force(logical).best().energy
        points = jf_sweep(
            logical, emb, [0.0, 1.5], reference,
            schedule=Schedule(n_sweeps=300), reads=400, seed=3,
        )
        by_key = {(pt.jf, pt.policy): pt for pt in points}
        assert float(by_key[(0.0, "discard")].p_gs) <= 0.05
        assert by_key[(0.0, "discard")].broken_fraction >= 0.9
        assert float(by_key[(1.5, "discard")].p_gs) >= 0.9
        assert float(by_key[(1.5, "majority")].p_gs) >= 0.9

    def test_majority_dominates_pointwise(self):
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        reference = brute_force(logical).best().energy
        points = jf_sweep(
            logical, emb, [0.4, 0.8, 1.2], reference,
            schedule=Schedule(n_sweeps=150), reads=200, seed=5, gauges=2,
        )
        for jf in (0.4, 0.8, 1.2):
            mv = next(p for p in points if p.jf == jf and p.policy == "majority")
            db = next(p for p in points if p.jf == jf and p.policy == "discard")
            assert mv.p_gs >= db.p_gs

    def test_deterministic(self):
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        reference = brute_force(logical).best().energy
        kw = dict(schedule=Schedule(n_sweeps=80), reads=60, seed=11)
        a = jf_sweep(logical, emb, [0.5, 1.0], reference, **kw)
        b = jf_sweep(logical, emb, [0.5, 1.0], reference, **kw)
        assert a == b

    def test_csv_shape(self):
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        reference = brute_force(logical).best().energy
        points = jf_sweep(logical, emb, [1.0], reference, schedule=Schedule(n_sweeps=50), reads=20, seed=0)
        text = curve_to_csv(points)
        lines = text.strip().splitlines()
        assert lines[0] == "jf,policy,gauges,reads,p_gs,t_99,broken_fraction"
        assert len(lines) == 3


class Stop(BaseException):
    """Not an Exception, so it leaves a unit the way an interrupt would."""


class TestFanOut:
    """`samplers._fan_out` at a worker count forced through `samplers._cores`."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        # forks are made beside no other thread, as `_cores` allows them (conftest imports
        # the package before numpy, so OpenBLAS keeps to one thread)
        assert len(os.listdir("/proc/self/task")) == 1
        allowed = os.sched_getaffinity(0)
        yield
        assert multiprocessing.active_children() == []
        assert os.sched_getaffinity(0) == allowed  # this thread's CPUs given back

    def test_cores_are_the_allowed_cpus(self):
        assert samplers._cores() == len(os.sched_getaffinity(0))

    def test_one_core_beside_another_thread(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert samplers._cores() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        deadline = time.monotonic() + 10  # the kernel lists a joined thread until it has exited
        while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert samplers._cores() == len(os.sched_getaffinity(0))

    def test_one_core_under_a_profile_hook(self):
        sys.setprofile(lambda frame, event, arg: None)
        try:
            cores = samplers._cores()
        finally:
            sys.setprofile(None)
        assert cores == 1

    def test_wrapped_package_function_keeps_every_point_here(self, monkeypatch):
        # a call tracer's wrapper sees every point's call, none lost in a worker
        calls = []
        embed = metrics.embed_ising

        @functools.wraps(embed)
        def traced(*args, **kwargs):
            calls.append(os.getpid())
            return embed(*args, **kwargs)

        monkeypatch.setattr(metrics, "embed_ising", traced)
        assert samplers._cores() == 1
        logical = frustrated_k4()
        jf_sweep(logical, clique_embedding(4, chimera_graph(1)), [0.5, 1.0, 1.5], 0,
                 schedule=Schedule(n_sweeps=5), reads=6, seed=2)
        assert calls == [os.getpid()] * 3

    def test_pending_output_written_once(self):
        # text printed into a pipe's buffer before the split is not written again by the workers
        # (multiprocessing's fork start flushes sys.stdout and sys.stderr before each fork)
        script = (
            "from postman import samplers\n"
            "from postman.chimera import chimera_graph, clique_embedding\n"
            "from postman.metrics import jf_sweep\n"
            "from postman.qubo import IsingModel\n"
            "samplers._cores = lambda: 3\n"
            "print('before the split')\n"
            "logical = IsingModel(4, (0, 0, 0, 0), {(0, 1): 1, (0, 2): 1, (1, 2): 1, (2, 3): -1})\n"
            "jf_sweep(logical, clique_embedding(4, chimera_graph(1)), [0.5, 1.0, 1.5], 0, reads=4)\n"
            "print('after the split')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before the split\nafter the split\n", "")

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_input_order(self, monkeypatch, workers):
        monkeypatch.setattr(samplers, "_cores", lambda: workers)
        assert samplers._fan_out(lambda x: (x, x * x), range(7)) == [(x, x * x) for x in range(7)]
        assert samplers._fan_out(lambda x: x, []) == []

    def test_units_run_in_workers(self, monkeypatch):
        monkeypatch.setattr(samplers, "_cores", lambda: 2)
        pids = samplers._fan_out(lambda x: os.getpid(), range(4))
        assert pids[0] == pids[2] == os.getpid() and pids[1] == pids[3] != os.getpid()

    def test_each_stride_keeps_to_its_own_cpu(self, monkeypatch):
        cpus = sorted(os.sched_getaffinity(0))
        monkeypatch.setattr(samplers, "_cores", lambda: 2)
        seen = samplers._fan_out(lambda x: os.sched_getaffinity(0), range(2))
        assert seen == [{cpus[0]}, {cpus[1 % len(cpus)]}]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_index_raises(self, monkeypatch, workers):
        # with 2 workers, index 2 fails in this process and index 1, the lower, in the worker
        def unit(x):
            if x in (1, 2):
                raise InvalidArgumentError(f"unit {x} refused")
            return x

        monkeypatch.setattr(samplers, "_cores", lambda: workers)
        with pytest.raises(InvalidArgumentError, match="^unit 1 refused$"):
            samplers._fan_out(unit, range(5))

    def test_worker_exit_without_results_raises(self, monkeypatch):
        parent = os.getpid()

        def unit(x):
            if x == 1 and os.getpid() != parent:
                os._exit(7)
            return x

        monkeypatch.setattr(samplers, "_cores", lambda: 2)
        with pytest.raises(PostmanError, match="^a worker exited with code 7 before sending its results$"):
            samplers._fan_out(unit, range(4))

    def test_leaving_by_base_exception_ends_the_workers(self, monkeypatch):
        def unit(x):
            if x == 0:
                raise Stop
            time.sleep(60)  # the workers' units: ended, not waited for

        monkeypatch.setattr(samplers, "_cores", lambda: 3)
        start = time.perf_counter()
        with pytest.raises(Stop):
            samplers._fan_out(unit, range(3))
        assert time.perf_counter() - start < 30

    def test_jf_sweep_same_at_every_worker_count(self, monkeypatch):
        logical = frustrated_k4()
        emb = clique_embedding(4, chimera_graph(1))
        curves = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(samplers, "_cores", lambda: workers)
            curves.append(jf_sweep(logical, emb, [0.5, 1.0, 1.5], brute_force(logical).best().energy,
                                   schedule=Schedule(n_sweeps=40), reads=30, gauges=2, seed=9))
        assert curves[0] == curves[1] == curves[2]
        assert len(curves[0]) == 6


class TestIndicatorsAndReport:
    def test_success_indicators_expand_multiplicity(self):
        ss = sampleset([
            SampleRecord(config=(1,), energy=2, multiplicity=2),
            SampleRecord(config=None, energy=None, multiplicity=1),
            SampleRecord(config=(-1,), energy=7, multiplicity=1),
        ])
        assert success_indicators(ss, 2) == [1, 1, 0, 0]
