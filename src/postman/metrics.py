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
    _decode_reads,
    embed_ising,
    spin_reversal,
)
from .errors import EmptySampleSetError, InvalidArgumentError
from .numbers import Number, normalize
from .qubo import IsingModel
from .samplers import SampleSet, Schedule, _anneal, _row_blocks, _sa_metadata

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
    if not 0 < anneal_time < math.inf:  # NaN too
        raise InvalidArgumentError("anneal time must be positive and finite")
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
    if n_variables < 1 or n_sweeps < 1 or not 0 < tau_s < math.inf:
        raise InvalidArgumentError("need N >= 1, n_sweeps >= 1, finite tau_s > 0")
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
    accepted = [r for r in physical.records if r.config is not None]
    width = len(accepted[0].config) if accepted else len(emb.qubit_order())
    spins = np.array([r.config for r in accepted], dtype=np.int8).reshape(len(accepted), width)
    reads = np.array([r.multiplicity for r in accepted], dtype=np.int64)
    logical, broken = _decode_reads(spins, emb)
    keep = broken == 0 if policy is DecodePolicy.DISCARD_BROKEN else np.ones(len(accepted), dtype=bool)
    meta = dict(physical.metadata)
    meta["decode_policy"] = policy.value
    total = physical.total_reads
    out = SampleSet.from_configs(
        logical_model, np.repeat(logical[keep], reads[keep], axis=0), meta, rejected=total - int(reads[keep].sum())
    )
    return out, (int(reads[broken > 0].sum()) / total if total else 0.0)


def _policy_outcomes(physical: SampleSet, emb: Embedding, logical: IsingModel, reference_energy: Number,
                     policies: Sequence[DecodePolicy], anneal_time: float):
    """(policy, p_gs, t_99, broken fraction) per decode policy, each decoding the same physical reads."""
    for policy in policies:
        decoded, broken = decode_sampleset(physical, emb, logical, policy)
        prob = p_gs(decoded, reference_energy)
        yield policy, prob, t_99(prob, anneal_time), broken


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

    One `_anneal` call over the model's ungauged integer form anneals every
    read, one run per gauge g seeded by (seed, 2, g). Read r of gauge g keeps
    the stream that a per-gauge `simulated_annealing` run of the gauged model
    would give it, and starts from that run's initial spins times g. The
    fields are exact integers, so each field of that chain is g_i times the
    gauged run's field, every energy change and acceptance test is the same,
    and the final spins come back already ungauged: the output equals the
    per-gauge runs merged, bit for bit. Only the first
    min(gauges, reads) gauges get reads and are drawn; gauges=0 is the identity.
    """
    if reads < 1:
        raise InvalidArgumentError("need at least one read")
    form = embedded.model.int_form
    signs = spin_reversal(form.n, min(gauges, reads), seed=_derived_seed(seed, 1, 0))
    seeds = [_derived_seed(seed, 2, g_index) for g_index in range(len(signs))]
    finals = _anneal(form, schedule, seeds, reads, signs=np.array(signs, dtype=np.int8))
    meta = {**_sa_metadata(seed, reads, schedule), "gauges": gauges, "jf": float(embedded.jf)}
    return SampleSet.from_configs(form, finals, meta)


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
        physical = sample_embedded(embedded, schedule, reads, gauges, seed=_derived_seed(seed, index))
        points.extend(
            CurvePoint(float(jf), policy.value, gauges, reads, prob, t99, broken)
            for policy, prob, t99, broken in _policy_outcomes(
                physical, emb, logical, reference_energy, policies, anneal_time
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
