"""Classical solvers over binary-quadratic models.

Every model is read through one integer form: its coefficients as integers
over a common denominator. Search loops run in float over that form
(integer-valued, so argmins are sound), except the branch-and-bound gap
search, which runs in Python integers; stored energies are exact integer
products of the same arrays, divided by the denominator. Randomized
samplers derive one RNG stream per read (or restart) from the master seed, so
results are deterministic regardless of execution order.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from types import FunctionType

import numpy as np

from .errors import (
    DimensionMismatchError, EmptySampleSetError, InvalidArgumentError, NoGapError, ParseError,
    PostmanError, TooLargeError,
)
from .numbers import Number, as_exact, finite_or_str, format_number, json_int, normalize, to_jsonable
from .qubo import IsingModel, QuboModel, _IntForm

BRUTE_FORCE_GUARD = 26
GROUND_STATE_GUARD = 32
# variables of the branch-and-bound gap search; see `_branch_levels`
BRANCH_GUARD = 90
# float64 entries (2 MB) in one working block of the exact scans, of the
# annealer's uniforms and of the products in `SampleSet.from_configs`. Every
# value in those blocks is exact or is drawn in stream order, so no result
# depends on it.
BLOCK_FLOATS = 1 << 18


def _row_blocks(count: int, width: int):
    """Slices covering range(count), rows of `width` floats, about BLOCK_FLOATS at a time."""
    step = max(1, BLOCK_FLOATS // max(1, width))
    return (slice(s, min(s + step, count)) for s in range(0, count, step))


@dataclass(frozen=True)
class SampleRecord:
    """One configuration with its exact energy; config None marks a rejected read."""

    config: tuple[int, ...] | None
    energy: Number | None
    multiplicity: int = 1


def _record_key(r: SampleRecord):
    return (r.config is None, r.energy if r.energy is not None else 0, r.config or ())


@dataclass(frozen=True)
class SampleSet:
    """Multiset of configurations, sorted by (energy, configuration)."""

    records: tuple[SampleRecord, ...]
    metadata: dict

    @staticmethod
    def from_configs(model, configs, metadata: dict, rejected: int = 0) -> "SampleSet":
        """Deduplicated configs with their exact energies, plus `rejected` reads."""
        form = _int_form(model)
        unit, values = ("spins", (-1, 1)) if form.kind == "ising" else ("bits", (0, 1))
        if not isinstance(configs, np.ndarray):
            configs = list(configs)
            for c in configs:
                if len(c) != form.n:
                    raise DimensionMismatchError(f"expected {form.n} {unit}, got {len(c)}")
            configs = np.array(configs).reshape(len(configs), form.n)
        elif configs.ndim != 2 or configs.shape[1] != form.n:
            raise DimensionMismatchError(f"expected {form.n} {unit}, got {configs.shape[-1]}")
        if not np.isin(configs, values).all():
            raise ValueError(f"{unit} must take the values {values}")
        configs = configs.astype(np.int8)
        keys = list(map(tuple, configs.tolist()))
        counts = Counter(keys)
        row_of = dict(zip(keys, range(len(keys))))  # a row of each distinct config, in the order of `counts`
        C = configs[list(row_of.values())].astype(form.linear.dtype)
        scaled = []
        for rows in _row_blocks(len(C), len(form.quad)):
            V = C[rows]
            quad = (V[:, form.rows] * V[:, form.cols]) @ form.quad
            scaled += list(form.offset + V @ form.linear + quad)
        records = [
            SampleRecord(config=c, energy=normalize(Fraction(int(e), form.scale)), multiplicity=m)
            for (c, m), e in zip(counts.items(), scaled)
        ]
        if rejected:
            records.append(SampleRecord(config=None, energy=None, multiplicity=rejected))
        records.sort(key=_record_key)
        return SampleSet(records=tuple(records), metadata=dict(metadata))

    def best(self) -> SampleRecord:
        for r in self.records:
            if r.config is not None:
                return r
        raise EmptySampleSetError("no accepted reads")

    @property
    def total_reads(self) -> int:
        return sum(r.multiplicity for r in self.records)

    def merge(self, other: "SampleSet", metadata: dict | None = None) -> "SampleSet":
        combined: dict[tuple | None, list] = {}
        for r in list(self.records) + list(other.records):
            key = r.config
            if key in combined:
                combined[key][1] += r.multiplicity
            else:
                combined[key] = [r.energy, r.multiplicity]
        records = [
            SampleRecord(config=c, energy=e, multiplicity=m)
            for c, (e, m) in combined.items()
        ]
        records.sort(key=_record_key)
        return SampleSet(records=tuple(records), metadata=dict(metadata or self.metadata))

    def to_json(self) -> dict:
        return {
            "metadata": _jsonable_metadata(self.metadata),
            "records": [
                {
                    "config": None if r.config is None else list(r.config),
                    "energy": None if r.energy is None else to_jsonable(r.energy),
                    "multiplicity": r.multiplicity,
                }
                for r in self.records
            ],
        }

    @staticmethod
    def from_json(obj) -> "SampleSet":
        try:
            records = tuple(
                SampleRecord(
                    config=None if r["config"] is None else tuple(map(json_int, r["config"])),
                    energy=None if r["energy"] is None else as_exact(r["energy"]),
                    multiplicity=json_int(r["multiplicity"]),
                )
                for r in obj["records"]
            )
            return SampleSet(records=records, metadata=dict(obj.get("metadata", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed sample set: {type(exc).__name__}: {exc}") from None

    def to_csv(self) -> str:
        """Energy histogram: one 'energy,multiplicity' row per level."""
        hist: dict[Number | None, int] = {}
        for r in self.records:
            hist[r.energy] = hist.get(r.energy, 0) + r.multiplicity
        lines = ["energy,multiplicity"]
        for e in sorted((k for k in hist if k is not None)):
            lines.append(f"{format_number(e)},{hist[e]}")
        if None in hist:
            lines.append(f"rejected,{hist[None]}")
        return "\n".join(lines) + "\n"


def _jsonable_metadata(meta: dict) -> dict:
    return {k: to_jsonable(v) if isinstance(v, Fraction) else finite_or_str(v) for k, v in meta.items()}


@dataclass(frozen=True)
class Schedule:
    """Inverse-temperature ramp, linear in beta over the sweeps."""

    beta_start: float = 0.1
    beta_end: float = 5.0
    n_sweeps: int = 1000

    def __post_init__(self):
        if self.n_sweeps < 1:
            raise InvalidArgumentError("need at least one sweep")
        if not (0 < self.beta_start <= self.beta_end):
            raise InvalidArgumentError("need 0 < beta_start <= beta_end")
        if math.isinf(self.beta_end) and self.beta_start != self.beta_end:
            raise InvalidArgumentError("an infinite beta needs beta_start == beta_end")

    def betas(self) -> np.ndarray:
        if self.beta_start == self.beta_end:
            return np.full(self.n_sweeps, float(self.beta_start))
        return np.linspace(float(self.beta_start), float(self.beta_end), self.n_sweeps)


# --- the integer form shared by every sampler and by exact energies --------

def _int_form(model) -> _IntForm:
    """The integer form of a model, kept on the model after its first build; a
    form passes through unchanged, so every sampler and
    `SampleSet.from_configs` also take a prebuilt (say, gauged) form."""
    if isinstance(model, _IntForm):
        return model
    if isinstance(model, (QuboModel, IsingModel)):
        return model.int_form
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _exact_floats(linear: np.ndarray, quad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An integer form's linear and coupling integers in float64. Every sum of
    them with weights in {-1, 0, 1} is then exact, in any order, while their
    magnitudes sum below 2**53; beyond that the form is refused. No float sum
    carries the offset: it cancels from every comparison, and exact levels
    add it back in Python integers."""
    lin, quad = linear.tolist(), quad.tolist()
    if sum(map(abs, lin)) + sum(map(abs, quad)) >= 2**53:
        raise TooLargeError("coefficients too large for exact float arithmetic")
    return np.array(lin, dtype=np.float64), np.array(quad, dtype=np.float64)


def _x_floats(form: _IntForm) -> tuple[_IntForm, np.ndarray, np.ndarray]:
    """(x-form, linear, upper coupling matrix): the model over bits x in {0,1}.

    An Ising form is rebased through s = 2x - 1 so one search core serves
    both bases; callers read the offset and the scale from the x-form. The
    linear and coupling values are its integers, held in float64 by
    `_exact_floats`.
    """
    x_form = form.rebased() if form.kind == "ising" else form
    lin, quad = _exact_floats(x_form.linear, x_form.quad)
    B = np.zeros((form.n, form.n))
    B[x_form.rows, x_form.cols] = quad
    return x_form, lin, B


def _native(bits: np.ndarray, kind: str) -> np.ndarray:
    """x-basis bits as the model's own values: spins 2x - 1 for an Ising model."""
    return 2 * bits - 1 if kind == "ising" else bits


def _bit_matrix(idx: np.ndarray, width: int) -> np.ndarray:
    return ((idx[:, None] >> np.arange(width)) & 1).astype(np.float64)


def _energies(lin: np.ndarray, B: np.ndarray) -> np.ndarray:
    """x-basis energies, offset excluded, of the bit patterns 0 .. 2**len(lin) - 1."""
    width = len(lin)
    out = np.empty(1 << width)
    for rows in _row_blocks(len(out), width):
        bits = _bit_matrix(np.arange(rows.start, rows.stop), width)
        out[rows] = bits @ lin + ((bits @ B) * bits).sum(axis=1)
    return out


class _HalfSplit:
    """Meet-in-the-middle set-up shared by the exact searches.

    The x-basis variables split into halves A (the first n // 2) and B. EA and
    EB are each half's energies with the other half at zero, offset excluded;
    they are attained, so callers seed their incumbents from them. V holds
    each A-assignment's cross fields on B and GB the B-assignments as columns.
    A-rows whose cross-term lower bound exceeds a caller's cutoff are never
    scanned. Beyond EA, EB, V and GB, the set-up and the scan hold about
    BLOCK_FLOATS floats at a time; every value is an integer-valued float64,
    so the sums are exact in any grouping.
    """

    def __init__(self, model):
        self.form = _int_form(model)
        n = self.form.n
        if n > GROUND_STATE_GUARD:
            raise TooLargeError(f"dim {n} exceeds ground-state guard {GROUND_STATE_GUARD}")
        self.x_form, lin, B = _x_floats(self.form)
        self.nA, self.nB = nA, nB = n // 2, n - n // 2
        self.EA = _energies(lin[:nA], B[:nA, :nA])
        self.EB = _energies(lin[nA:], B[nA:, nA:])
        self.V = np.empty((1 << nA, nB))
        for rows in _row_blocks(1 << nA, nA):
            self.V[rows] = _bit_matrix(np.arange(rows.start, rows.stop), nA) @ B[:nA, nA:]
        self.GB = _bit_matrix(np.arange(1 << nB), nB).T

    def candidates(self, cutoff: float) -> np.ndarray:
        lower = self.EA + self.EB.min()
        for rows in _row_blocks(len(lower), self.nB):
            lower[rows] += np.minimum(self.V[rows], 0.0).sum(axis=1)
        return np.nonzero(lower <= cutoff)[0]

    def blocks(self, cand: np.ndarray):
        """(rows, energies of rows x every B-assignment), about BLOCK_FLOATS
        floats at a time, each block built in place; callers may overwrite it."""
        for part in _row_blocks(len(cand), 1 << self.nB):
            rows = cand[part]
            tot = self.V[rows] @ self.GB
            tot += self.EA[rows, None]
            tot += self.EB
            yield rows, tot

    def configs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Native configurations (bits, or spins of an Ising model), row k
        joining A-assignment a[k] with B-assignment b[k]."""
        bits = np.hstack([_bit_matrix(a, self.nA), _bit_matrix(b, self.nB)]).astype(np.int64)
        return _native(bits, self.form.kind)


def brute_force(model, keep: int = 1) -> SampleSet:
    """Exhaustive spectrum head: all configurations in the lowest `keep` levels.

    Two passes of the split scan: the union of every block's distinct
    energies gives the level count and the keep-th level, then the A-rows
    whose bound reaches that level yield every configuration at or below it.
    Time grows as 2**dim (guarded at 26), and so can the list of levels.
    """
    if keep < 1:
        raise InvalidArgumentError("keep must be positive")
    form = _int_form(model)
    if form.n > BRUTE_FORCE_GUARD:
        raise TooLargeError(f"dim {form.n} exceeds brute-force guard {BRUTE_FORCE_GUARD}")
    split = _HalfSplit(form)
    levels = np.unique(np.concatenate([np.unique(tot) for _, tot in split.blocks(np.arange(len(split.EA)))]))
    cutoff = levels[min(keep, len(levels)) - 1]
    a, b = [], []
    for rows, tot in split.blocks(split.candidates(cutoff)):
        i, j = np.nonzero(tot <= cutoff)
        a.append(rows[i])
        b.append(j)
    meta = {"sampler": "brute_force", "keep": keep, "levels": len(levels)}
    return SampleSet.from_configs(form, split.configs(np.concatenate(a), np.concatenate(b)), meta)


def _split_levels(split: _HalfSplit) -> list[int]:
    """The two lowest x-form levels, offset excluded (one if the spectrum has
    one), by the split scan.

    The energies of both half-spaces are attained outright (zero complement),
    which seeds an upper bound for the second level; half-assignments whose
    cross-term lower bound exceeds that seed cannot host either of the two
    lowest levels and are skipped. Each block gives its two lowest levels in
    place (its minimum is masked to +inf), so the scan holds one block of
    about BLOCK_FLOATS floats at a time.
    """
    lows = list(np.unique(np.concatenate([split.EA, split.EB]))[:2])
    cutoff = lows[1] if len(lows) > 1 else math.inf
    for _, tot in split.blocks(split.candidates(cutoff)):
        m0 = tot.min()
        tot[tot == m0] = math.inf
        m1 = tot.min()
        lows += [m0] if m1 == math.inf else [m0, m1]
    return [int(v) for v in np.unique(lows)[:2]]


def _branch_levels(x_form: _IntForm) -> list[int]:
    """The two lowest levels, offset excluded (one if the spectrum has one),
    of an x-form whose couplings are all >= 0, by depth-first branch and
    bound in Python integers.

    A node of the search fixes some bits; e is the energy of the fixed ones,
    and each free bit u keeps its field phi[u]: its linear term plus its
    couplings to the fixed bits set to 1. Setting free bits to 1 adds their
    fields and their couplings among themselves, which are >= 0, so
    e + sum(min(0, phi[u]) over the free u) bounds the node's subtree from
    below (Boros & Hammer, "Pseudo-Boolean optimization", 2002), and a node
    whose bound reaches the second level found so far is pruned. Once every
    free field is >= 0, the search stops descending: e is the subtree's
    lowest level (every free bit 0), and the next adds the least of the
    positive free fields (one bit set) and the couplings between zero-field
    bits (two bits set). A set of free bits that adds more than 0 holds a
    positive-field bit or two coupled zero-field bits, so nothing lies in
    between; the couplings count because two zero-field bits joined by a
    coupling can give a level below the least positive field. Until then it
    branches on the free bit of lowest field, 1 before 0. The all-zero state
    and each bit alone seed the two levels. Memory is the fields and the
    coupling lists, linear in the model's size; time is guarded at
    BRANCH_GUARD variables.
    """
    n = x_form.n
    if n > BRANCH_GUARD:
        raise TooLargeError(f"dim {n} exceeds branch-and-bound guard {BRANCH_GUARD}")
    phi = x_form.linear.tolist()
    coupled = [[] for _ in range(n)]
    for i, j, b in zip(x_form.rows.tolist(), x_form.cols.tolist(), x_form.quad.tolist()):
        if b:
            coupled[i].append((j, b))
            coupled[j].append((i, b))
    free = set(range(n))
    seeds = sorted({0, *phi})
    lo0, lo1 = seeds[0], seeds[1] if len(seeds) > 1 else math.inf

    def keep(v):
        nonlocal lo0, lo1
        if v < lo0:
            lo0, lo1 = v, lo0
        elif lo0 < v < lo1:
            lo1 = v

    def visit(e, slack):  # slack: the sum of min(0, phi[u]) over the free bits
        if e + slack >= lo1:
            return
        if not free:
            keep(e)
            return
        u = min(free, key=phi.__getitem__)
        f = phi[u]
        if f > 0:
            keep(e)
            keep(e + f)
            return
        if f == 0:
            keep(e)
            zero = {v for v in free if phi[v] == 0}
            rises = [phi[v] for v in free if phi[v]]
            rises += [b for v in zero for w, b in coupled[v] if w in zero]
            if rises:
                keep(e + min(rises))
            return
        free.remove(u)
        raised = [(v, b) for v, b in coupled[u] if v in free]
        rise = 0
        for v, b in raised:
            old = phi[v]
            phi[v] = old + b
            if old < 0:
                rise += min(old + b, 0) - old
        visit(e + f, slack - f + rise)
        for v, b in raised:
            phi[v] -= b
        visit(e, slack - f)
        free.add(u)

    visit(0, sum(min(0, a) for a in phi))
    return [lo0] if lo1 == math.inf else [lo0, lo1]


def _gap(x_form: _IntForm, levels: list[int]) -> tuple[Number, Number, Number]:
    """(E0, E1, E1 - E0) of an x-form's two lowest levels, offset excluded."""
    if len(levels) < 2:
        raise NoGapError("spectrum has a single level")
    e0, e1 = (normalize(Fraction(v + x_form.offset, x_form.scale)) for v in levels)
    return e0, e1, normalize(e1 - e0)


def spectral_gap_large(model) -> tuple[Number, Number, Number]:
    """(E0, E1, E1 - E0), E1 the next level above E0, exactly.

    A model whose couplings are all >= 0 in the bit basis (every `build_qubo`
    model; an Ising model with every J >= 0) takes the branch and bound of
    `_branch_levels`, up to BRANCH_GUARD variables. Any other model takes the
    meet-in-the-middle scan of `_split_levels`, up to GROUND_STATE_GUARD
    variables. Both return the same levels, as exact ints or Fractions.
    """
    form = _int_form(model)
    x_form = form.rebased() if form.kind == "ising" else form
    if min(x_form.quad.tolist(), default=0) >= 0:
        return _gap(x_form, _branch_levels(x_form))
    split = _HalfSplit(form)
    return _gap(split.x_form, _split_levels(split))


def ground_state(model) -> SampleSet:
    """Exact minimum via pruned meet-in-the-middle; one argmin configuration.

    Splits variables into halves, bounds the cross term per half-assignment
    by its attainable minimum, and scans only half-assignments whose bound
    beats the best attained energy. Exact for any model whose scaled
    coefficients fit integer float64; handles dims up to 32.
    """
    split = _HalfSplit(model)
    EA, EB = split.EA, split.EB
    # attained energies at xB = 0 / xA = 0 give the initial incumbent
    if EA.min() <= EB.min():
        best = EA.min()
        arg = (int(np.argmin(EA)), 0)
    else:
        best = EB.min()
        arg = (0, int(np.argmin(EB)))
    cand = split.candidates(best)
    for rows, tot in split.blocks(cand):
        i, j = np.unravel_index(np.argmin(tot), tot.shape)
        if tot[i, j] < best:
            best = tot[i, j]
            arg = (int(rows[i]), int(j))
    meta = {"sampler": "ground_state", "candidates": int(len(cand))}
    return SampleSet.from_configs(split.form, split.configs(np.array([arg[0]]), np.array([arg[1]])), meta)


# --- simulated annealing -----------------------------------------------------

def _levels(n: int, rows: np.ndarray, cols: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Each spin's level in the sweep order, for couplings J[k] between
    rows[k] < cols[k]: 0 for a spin with no coupled lower-index spin, else one
    more than the highest level among those spins (zero couplings do not
    count). It is the length of the longest coupled increasing path that ends
    at the spin."""
    keep = J != 0
    lo, hi = rows[keep], cols[keep]
    level = np.zeros(n, dtype=np.intp)
    while True:  # each pass settles the spins one step further along those paths
        new = np.zeros(n, dtype=np.intp)
        np.maximum.at(new, hi, level[lo] + 1)
        if np.array_equal(new, level):
            return level
        level = new


def _level_plan(form: _IntForm) -> tuple[np.ndarray, np.ndarray, list]:
    """(order, h, plan): the spins level by level (`_levels`), ascending within
    each level; their linear integers in that order, as a column; and per
    level, (its slice of that order, the spins coupled to it as an ascending
    index array, their -2 J couplings to it as a dense targets x level block),
    all positions in that order.

    The blocks come from the nonzero couplings, both directions of each, sorted
    stably by source position, so each level's run of that list holds exactly
    its couplings. The blocks hold at most n**2 floats in all, and as many as
    the couplings when the levels are narrow and sparsely coupled.
    """
    n = form.n
    h, J = _exact_floats(form.linear, form.quad)
    level = _levels(n, form.rows, form.cols, J)
    order = np.argsort(level, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    keep = J != 0
    lo, hi, values = rank[form.rows[keep]], rank[form.cols[keep]], -2.0 * J[keep]
    source, target, values = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([values, values])
    by_source = np.argsort(source, kind="stable")
    source, target, values = source[by_source], target[by_source], values[by_source]
    ends = np.cumsum(np.bincount(level)).tolist()
    cuts = np.searchsorted(source, ends).tolist()  # where each level's run ends
    # each level's distinct targets, sorted, and each coupling's row among them
    keys, rows = np.unique(level[order][source] * n + target, return_inverse=True)
    bounds = np.searchsorted(keys, n * np.arange(1, len(ends) + 1)).tolist()
    plan = []
    for k, (a, e, i, j, b, c) in enumerate(zip([0] + ends, ends, [0] + cuts, cuts, [0] + bounds, bounds)):
        block = np.zeros((c - b, e - a))
        block[rows[i:j] - b, source[i:j] - a] = values[i:j]
        plan.append((slice(a, e), keys[b:c] - k * n, block))
    return order, h[order, None], plan


def _anneal(
    form: _IntForm,
    schedule: Schedule,
    seeds: list[int],
    reads: int,
    signs: np.ndarray | None = None,
) -> np.ndarray:
    """Final spins, one int8 row per read, run by run, of the level-step kernel.

    Run k (one per seed) gets reads // len(seeds) reads, the first
    reads % len(seeds) runs one more, and its read r draws from the stream
    seeded by (seeds[k], r): uniform initial spins, then one acceptance uniform
    per (sweep, spin). `signs`, when given, holds one +-1 row per run,
    multiplied into the initial spins of its reads.

    Fields are held in the form's integers (`_exact_floats`), so each is an
    exact integer whatever the order of its additions; only the energy change
    is divided by the scale, in the test u < exp(-beta * (dE / scale)), or
    dE <= 0 at infinite beta. A sweep steps through the levels of `_levels`:
    the spins of a level are mutually uncoupled, each coupled lower-index spin
    sits in an earlier level and each coupled higher-index one in a later
    level, so every spin sees exactly the field of the one-spin ascending
    sweep and is decided with its own (sweep, spin) uniform. The chain is that
    of the one-spin-at-a-time loop, bit for bit. The spins are permuted once
    so that each level is a contiguous slice, and a level's flips reach its
    neighbours' fields in one product with its `_level_plan` block, added to
    the field rows its target indices pick. A chunk's fields start as
    h - 1/2 sum over levels L of (block of L) @ S[L]: the block sums are even
    integers below 2**54, so they too are exact, and no n x n matrix is built.

    Reads anneal together in chunks of at most BLOCK_FLOATS // max(spins, 512)
    consecutive (run, read) pairs, and draw their uniforms a slab of sweeps at
    a time: about BLOCK_FLOATS floats per chunk and slab, counting the slab's
    copy in level order, and at least one sweep. Each stream continues where
    its last slab left it, so every draw is the one a single (sweeps x spins)
    draw would give, and no record depends on the chunks or slabs. The floor
    of 512 keeps a small model's slabs several sweeps deep, so that its reads
    do not pay one generator call per sweep.
    """
    n = form.n
    order, h, plan = _level_plan(form)
    betas, n_sweeps, half = schedule.betas(), schedule.n_sweeps, -form.scale / 2
    base, extras = divmod(reads, len(seeds))
    pairs = [(run, r) for run in range(len(seeds)) for r in range(base + (run < extras))]
    width = max(1, BLOCK_FLOATS // max(n, 512))
    finals = np.empty((reads, n), dtype=np.int8)
    for start in range(0, reads, width):
        chunk = pairs[start:start + width]
        m = len(chunk)
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=(seeds[run], r))) for run, r in chunk]
        S0 = np.array([rng.integers(0, 2, n) * 2 - 1 for rng in rngs], dtype=np.float64)
        if signs is not None:
            S0 *= signs[[run for run, _ in chunk]]
        S = S0[:, order].T.copy()
        F = np.zeros_like(S)
        for lv, targets, Jt in plan:  # sums of -2 J s: even integers below 2**54, so exact
            F[targets] += Jt @ S[lv]
        F *= -0.5
        F += h
        slabs = list(_row_blocks(n_sweeps, 2 * n * m))
        drawn = np.empty((m, slabs[0].stop, n))  # one slab of sweeps, read-major, as each stream draws it
        U = np.empty_like(drawn)  # the same slab in level order
        steps = [(S[lv], F[lv], U[:, :, lv].transpose(1, 2, 0), targets, Jt) for lv, targets, Jt in plan]
        # U < 1 <= exp(-beta * dE / scale) wherever dE <= 0 at finite beta, so
        # the Metropolis test is one comparison; its exp overflows harmlessly there
        with np.errstate(over="ignore"):
            for slab in slabs:
                slab_betas = betas[slab]
                k0 = len(slab_betas)
                for row, rng in enumerate(rngs):  # each stream goes on where the last slab stopped
                    rng.random(out=drawn[row, :k0])
                # mode "clip" (the indices are in range) lets take write into U unbuffered
                np.take(drawn[:, :k0], order, axis=2, out=U[:, :k0], mode="clip")
                for k, beta in enumerate(slab_betas):
                    for s, f, u, targets, Jt in steps:
                        x = s * f  # -dE / 2, so x / (-scale / 2) is dE / scale, rounded once
                        if beta == math.inf:
                            accept = x >= 0.0
                        else:
                            x /= half
                            x *= -beta
                            accept = u[k] < np.exp(x, out=x)
                        if np.count_nonzero(accept):
                            F[targets] += Jt @ (s * accept)  # Jt holds -2 J: each flip adds -2 s J
                            np.negative(s, out=s, where=accept)
        finals[start:start + m, order] = S.T
    return finals


def _sa_metadata(seed: int, reads: int, schedule: Schedule) -> dict:
    """The metadata of an annealed sample set, in the order the outputs print it."""
    return {
        "sampler": "simulated_annealing",
        "seed": seed,
        "reads": reads,
        "n_sweeps": schedule.n_sweeps,
        "beta_start": schedule.beta_start,
        "beta_end": schedule.beta_end,
    }


def simulated_annealing(
    model: QuboModel | IsingModel | _IntForm,
    schedule: Schedule | None = None,
    reads: int = 1000,
    seed: int = 0,
) -> SampleSet:
    """Single-spin-flip Metropolis annealing over a linear beta ramp.

    Per read: an independent RNG stream seeded by (seed, read index) draws the
    uniform initial spins, then one acceptance uniform per (sweep, spin);
    every sweep proposes all spins in ascending index order at that sweep's
    beta. One `_anneal` run holds every read; its fields are exact integers,
    and its level steps reproduce the one-spin-at-a-time loop bit for bit.
    `model` may be an integer form. A QUBO anneals as its rebased Ising form
    (the model of `qubo.to_ising`), and its reads come back as bits
    (s + 1) / 2 with the QUBO's energies.
    """
    if reads < 1:
        raise InvalidArgumentError("need at least one read")
    schedule = schedule or Schedule()
    form = _int_form(model)
    if form.kind == "ising":
        finals = _anneal(form, schedule, [seed], reads)
    else:
        finals = (_anneal(form.rebased(), schedule, [seed], reads) + 1) // 2
    return SampleSet.from_configs(form, finals, _sa_metadata(seed, reads, schedule))


# --- tabu search --------------------------------------------------------------

def tabu_search(
    model: QuboModel | IsingModel | _IntForm,
    tenure: int = 10,
    max_restarts: int = 20,
    seed: int = 0,
) -> SampleSet:
    """Steepest-descent single-flip search with a recency tabu list.

    Each move flips the variable whose flip gives the lowest energy, the
    lowest index on ties. A variable flipped at move t is tabu through move
    t + tenure, unless flipping it would beat the lowest energy that any move
    of this or an earlier restart has reached (aspiration; the random starts
    do not count). When every variable is tabu and none aspires, the lowest
    flip is taken anyway. After 50 * dim moves without improving the
    restart's best, the search restarts from a fresh random configuration.
    Restarts run one after another, since aspiration reads the moves of the
    earlier ones. One record per restart-best is reported, deduplicated with
    multiplicities. `model` may be an integer form.

    Energies and flip gains are integer-valued floats over the x-form
    (`_x_floats`) without its offset, which cancels from every comparison.
    Each is a sum of the form's coefficients, each coupling taken once, with
    weights in {-1, 0, 1}, so it lies below 2**53 and every comparison is
    exact. The best flip k0 passes aspiration exactly when some
    flip does, and then it is the first minimum over the allowed flips; when
    it fails, the allowed flips are the non-tabu ones. So a move needs a
    second argmin, over the non-tabu flips, only when k0 does not aspire.
    """
    if tenure < 1:
        raise InvalidArgumentError("tenure must be positive")
    if max_restarts < 1:
        raise InvalidArgumentError("need at least one restart")
    form = _int_form(model)
    n = form.n
    _, lin_i, B = _x_floats(form)
    stagnation_limit = 50 * n
    Bsym = B + B.T  # symmetric, so row k is the column k a flip of k adds
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    global_best = np.inf
    bests: list[np.ndarray] = []
    for _ in range(max_restarts):
        x = rng.integers(0, 2, n).astype(np.float64)
        energy = lin_i @ x + x @ (B @ x)
        f = Bsym @ x
        g = lin_i + f  # the gain of setting each bit
        sx = 1.0 - 2.0 * x  # +1 where a flip sets the bit, -1 where it clears it
        delta = sx * g  # the energy change of each flip
        blocked = np.zeros(n)  # +inf on the tabu variables
        masked = np.empty(n)
        tabu_until = [0] * n  # the last move at which each variable is tabu
        flips: deque[int] = deque()  # the variable of each recent move, oldest first
        it = 0
        best_sx = sx.copy()
        best_e = energy
        since_improve = 0
        while since_improve < stagnation_limit:
            it += 1
            if len(flips) > tenure:  # the flip of move it - tenure - 1 expires, unless repeated since
                j = flips.popleft()
                if tabu_until[j] < it:
                    blocked[j] = 0.0
            k = int(delta.argmin())
            if not delta[k] < global_best - energy:  # no flip aspires
                np.add(delta, blocked, out=masked)
                free = int(masked.argmin())
                if masked[free] != np.inf:  # else every variable is tabu
                    k = free
            energy += delta[k]
            if sx[k] > 0.0:
                g += Bsym[k]
            else:
                g -= Bsym[k]
            sx[k] = -sx[k]
            np.multiply(sx, g, out=delta)
            blocked[k] = np.inf
            tabu_until[k] = it + tenure
            flips.append(k)
            global_best = min(global_best, energy)
            if energy < best_e:
                best_e = energy
                best_sx = sx.copy()
                since_improve = 0
            else:
                since_improve += 1
        bests.append(_native(((1 - best_sx) / 2).astype(np.int64), form.kind))
    meta = {
        "sampler": "tabu_search",
        "seed": seed,
        "tenure": tenure,
        "max_restarts": max_restarts,
        "stagnation_limit": stagnation_limit,
        "reads": max_restarts,
    }
    return SampleSet.from_configs(form, bests, meta)


# --- independent units over the cores -----------------------------------------

def _cores() -> int:
    """How many processes `_fan_out` may run at once: the CPUs this process
    may run on, or 1 where a split would be unsafe, slow or unseen.

    Unsafe or slow: this process already runs other threads, or they cannot be
    counted. A forked child inherits locks those threads held, and BLAS
    threads spin beside the workers (OpenBLAS's thread per core made a
    two-point d = 8 sweep 15 times slower; the package keeps OpenBLAS to one
    thread, unless the caller set a count or loaded numpy first).
    Unseen: something in this process watches the package's calls, which
    would miss the workers' (`_watched`).
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):  # no /proc or no affinity calls on this platform
        return 1
    return cpus if threads == 1 and not _watched() else 1


def _watched() -> bool:
    """Whether something in this process watches the package's calls: a trace
    or profile hook (a debugger, coverage, cProfile), or a module-level package
    function wrapped from outside the package (a call tracer)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "postman"]
    files = {getattr(m, "__file__", None) for m in modules}
    for module in modules:
        for value in list(vars(module).values()):
            inner = getattr(value, "__wrapped__", None) if isinstance(value, FunctionType) else None
            if (isinstance(inner, FunctionType) and inner.__code__.co_filename in files
                    and value.__code__.co_filename not in files):
                return True
    return False


def _fan_out(fn, items) -> list:
    """[fn(x) for x in items], in input order, each item run in this process
    or in a forked worker.

    With W = min(len(items), `_cores()`) >= 2 and a fork start method, this
    process runs items 0, W, 2W, ... itself, and each of W - 1 forked workers
    runs another such stride and sends its results back through a pipe.
    A stride stops at its first exception, which comes back as a value. Once
    every worker is collected, the exception of the lowest failing index is
    raised, the one the plain loop would raise. A worker that ends without
    sending its results fails its stride's first index with a PostmanError.
    No worker outlives the call.

    A forked process starts on its parent's CPU, and Linux may leave it there
    for longer than a unit takes, the two sharing one CPU. So stride k keeps
    to the k-th CPU this thread may use, and this thread gets its own CPUs
    back when the call ends.
    """
    items = list(items)
    workers = min(len(items), _cores())
    if workers < 2:
        return [fn(x) for x in items]
    import multiprocessing  # here, not at the top: it would add to every `import postman`

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    context = multiprocessing.get_context("fork")
    allowed = os.sched_getaffinity(0)  # `_cores` is 1 without the affinity calls
    cpus = sorted(allowed)

    def place(share: int) -> None:
        os.sched_setaffinity(0, {cpus[share % len(cpus)]})

    def run(share: int) -> list:
        outcomes = []
        for x in items[share::workers]:
            try:
                outcomes.append((True, fn(x)))
            except Exception as exc:
                outcomes.append((False, exc))
                break
        return outcomes

    def work(share: int, writer) -> None:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
        place(share)
        writer.send(run(share))

    started, shares = [], []
    try:
        place(0)
        for share in range(1, workers):
            reader, writer = context.Pipe(duplex=False)
            proc = context.Process(target=work, args=(share, writer))
            started.append((proc, reader))
            try:
                proc.start()
            finally:
                writer.close()  # the worker's end: the reader sees end-of-file once the worker is gone
        shares.append(run(0))
        for proc, reader in started:
            try:
                shares.append(reader.recv())
            except EOFError:
                proc.join()
                shares.append([(False, PostmanError(
                    f"a worker exited with code {proc.exitcode} before sending its results"))])
    finally:
        os.sched_setaffinity(0, allowed)
        for k, (proc, reader) in enumerate(started):
            if proc.pid is not None:  # else its start failed
                if k >= len(shares) - 1:  # not collected: this call is being left by an exception
                    proc.terminate()
                proc.join()
            reader.close()
    outcomes = [None] * len(items)
    for share, results in enumerate(shares):
        outcomes[share:share + len(results) * workers:workers] = results
    values = []
    for ok, value in outcomes:  # an index left unrun (None) comes after a failure
        if not ok:
            raise value
        values.append(value)
    return values
