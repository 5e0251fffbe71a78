"""Success probability, time-to-solution formulas, bootstrap error bars, and
the chain-coupling sweep harness.

Success is defined by exact energy comparison against a reference (ground
states are degenerate under orientation flips, so configurations are never
compared directly). Rejected reads stay in the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .chimera import (
    DecodePolicy,
    EmbeddedIsing,
    Embedding,
    decode_chains,
    embed_ising,
    spin_reversal,
)
from .errors import EmptySampleSetError, InvalidArgumentError
from .numbers import Number, finite_or_str, normalize, to_jsonable
from .qubo import IsingModel
from .samplers import SampleRecord, SampleSet, Schedule, _int_form, _record_key, _row_blocks, simulated_annealing

DEFAULT_ANNEAL_TIME = 20e-6     # seconds per annealing cycle
DEFAULT_TAU_S = 0.5e-9          # seconds per sweep-spin update (2 updates/ns)
CONFIDENCE = 0.99


def p_gs(samples: SampleSet, reference_energy: Number) -> Number:
    """Exact fraction of reads at or below the reference energy.

    Rejected reads (config None) count in the denominator only.
    """
    total = samples.total_reads
    if total == 0:
        raise EmptySampleSetError("sample set has no reads")
    hits = sum(
        r.multiplicity
        for r in samples.records
        if r.energy is not None and r.energy <= reference_energy
    )
    return normalize(Fraction(hits, total))


def t_99(p: Number | float, anneal_time: float = DEFAULT_ANNEAL_TIME) -> float:
    """Repeat-until-confident time: ln(1-0.99)/ln(1-p) * T.

    p=0 returns +inf; p=1 returns T (a single cycle suffices).
    """
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidArgumentError("success probability must be in [0,1]")
    if not anneal_time > 0:  # NaN too
        raise InvalidArgumentError("anneal time must be positive")
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return anneal_time
    return math.log(1 - CONFIDENCE) / math.log(1.0 - p) * anneal_time


def tts_sa(
    p: Number | float,
    n_variables: int,
    n_sweeps: int,
    tau_s: float = DEFAULT_TAU_S,
) -> float:
    """Sweep-cost analogue: N^2 ln(1-0.99)/ln(1-p) tau_s n_s.

    N defaults to the logical variable count at call sites; pass whichever
    size reading is wanted. p=1 collapses to N^2 tau_s n_s.
    """
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidArgumentError("success probability must be in [0,1]")
    if n_variables < 1 or n_sweeps < 1 or not tau_s > 0:
        raise InvalidArgumentError("need N >= 1, n_sweeps >= 1, tau_s > 0")
    base = n_variables**2 * tau_s * n_sweeps
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return base
    return base * math.log(1 - CONFIDENCE) / math.log(1.0 - p)


def bootstrap(
    successes: Sequence[int], resamples: int = 5000, seed: int = 0
) -> tuple[float, float]:
    """Resample-with-replacement means; returns (their mean, 2 * their sd).

    The indices are drawn in row blocks from one stream, the draws one
    (resamples x reads) call would give, so memory stays at a block.
    """
    arr = np.asarray(successes, dtype=float)
    if arr.size == 0:
        raise InvalidArgumentError("need at least one observation")
    if resamples < 1:
        raise InvalidArgumentError("need at least one resample")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    means = np.empty(resamples)
    for rows in _row_blocks(resamples, arr.size):
        means[rows] = arr[rng.integers(0, arr.size, size=(rows.stop - rows.start, arr.size))].mean(axis=1)
    return float(means.mean()), float(2.0 * means.std())


def success_indicators(samples: SampleSet, reference_energy: Number) -> list[int]:
    """Per-read 0/1 hits in record order, multiplicities expanded."""
    out: list[int] = []
    for r in samples.records:
        hit = int(r.energy is not None and r.energy <= reference_energy)
        out.extend([hit] * r.multiplicity)
    return out


def decode_sampleset(
    physical: SampleSet,
    emb: Embedding,
    logical_model: IsingModel,
    policy: DecodePolicy,
) -> tuple[SampleSet, float]:
    """Chain-decode every physical read; returns (logical set, broken fraction).

    The broken fraction counts reads with at least one split chain whichever
    policy is in force; under DISCARD_BROKEN those reads become rejected
    records, under MAJORITY_VOTE they decode anyway.
    """
    configs: list[tuple[int, ...]] = []
    rejected = 0
    broken_reads = 0
    for r in physical.records:
        logical, broken = (None, 0) if r.config is None else decode_chains(r.config, emb, policy)
        if broken:
            broken_reads += r.multiplicity
        if logical is None:
            rejected += r.multiplicity
        else:
            configs.extend([logical] * r.multiplicity)
    meta = dict(physical.metadata)
    meta["decode_policy"] = policy.value
    out = SampleSet.from_configs(logical_model, configs, meta, rejected=rejected)
    total = physical.total_reads
    return out, (broken_reads / total if total else 0.0)


@dataclass(frozen=True)
class CurvePoint:
    """One sweep measurement: coupling, policy, gauge count, and outcomes."""

    jf: float
    policy: str
    gauges: int
    reads: int
    p_gs: Number
    t_99: float
    broken_fraction: float


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(entropy=tuple(parts)).generate_state(1)[0])


def sample_embedded(
    embedded: EmbeddedIsing,
    schedule: Schedule,
    reads: int,
    gauges: int,
    seed: int,
) -> SampleSet:
    """Anneal the physical model, splitting the read budget across gauges.

    The model's integer form is built once; each gauge is a sign vector
    applied to that form, with its own RNG stream. Samples are mapped back
    through the gauge before merging, so the result is a plain physical
    sample set. gauges=0 runs the identity gauge only.
    """
    if reads < 1:
        raise InvalidArgumentError("need at least one read")
    form = _int_form(embedded.model)
    signs = spin_reversal(form.n, gauges, seed=_derived_seed(seed, 1, 0))
    base, extras = divmod(reads, len(signs))
    merged: SampleSet | None = None
    for g_index, gauge in enumerate(signs[:reads]):  # later gauges get no read
        g_reads = base + (1 if g_index < extras else 0)
        raw = simulated_annealing(
            form.gauged(gauge), schedule=schedule, reads=g_reads,
            seed=_derived_seed(seed, 2, g_index),
        )
        # a gauge preserves energy, so each ungauged record keeps its energy
        records = [
            SampleRecord(tuple(s * g for s, g in zip(r.config, gauge)), r.energy, r.multiplicity)
            for r in raw.records
        ]
        part = SampleSet(records=tuple(sorted(records, key=_record_key)), metadata=raw.metadata)
        merged = part if merged is None else merged.merge(part)
    meta = dict(merged.metadata)
    meta.update(reads=reads, gauges=gauges, seed=seed, jf=float(embedded.jf))
    return SampleSet(records=merged.records, metadata=meta)


def jf_sweep(
    logical: IsingModel,
    emb: Embedding,
    jf_grid: Sequence[float],
    reference_energy: Number,
    schedule: Schedule | None = None,
    reads: int = 1000,
    policies: Sequence[DecodePolicy] = (DecodePolicy.MAJORITY_VOTE, DecodePolicy.DISCARD_BROKEN),
    gauges: int = 0,
    seed: int = 0,
    anneal_time: float = DEFAULT_ANNEAL_TIME,
) -> list[CurvePoint]:
    """Success-probability curve over the intra-chain coupling grid.

    Per grid point: embed at jf, gauge, anneal, then decode the same raw
    samples once per policy. Deterministic for a fixed master seed.
    """
    schedule = schedule or Schedule()
    points = []
    for index, jf in enumerate(jf_grid):
        embedded = embed_ising(logical, emb, jf)
        physical = sample_embedded(
            embedded, schedule, reads, gauges, seed=_derived_seed(seed, index)
        )
        for policy in policies:
            decoded, broken = decode_sampleset(physical, emb, logical, policy)
            prob = p_gs(decoded, reference_energy)
            points.append(
                CurvePoint(
                    jf=float(jf),
                    policy=policy.value,
                    gauges=gauges,
                    reads=reads,
                    p_gs=prob,
                    t_99=t_99(prob, anneal_time),
                    broken_fraction=broken,
                )
            )
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["jf,policy,gauges,reads,p_gs,t_99,broken_fraction"]
    for pt in points:
        lines.append(
            f"{pt.jf},{pt.policy},{pt.gauges},{pt.reads},"
            f"{float(pt.p_gs)},{pt.t_99},{pt.broken_fraction}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MetricsReport:
    p_gs: Number
    t_99: float
    tts: float | None = None
    bootstrap_mean: float | None = None
    bootstrap_two_sigma: float | None = None
    metadata: dict | None = None

    def to_json(self) -> dict:
        return {
            "p_gs": to_jsonable(self.p_gs),
            "p_gs_float": float(self.p_gs),
            "t_99": finite_or_str(self.t_99),
            "tts": finite_or_str(self.tts),
            "bootstrap_mean": self.bootstrap_mean,
            "bootstrap_two_sigma": self.bootstrap_two_sigma,
            "metadata": self.metadata or {},
        }
