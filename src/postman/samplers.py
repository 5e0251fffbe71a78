"""Classical solvers over binary-quadratic models.

Every model is read through one integer form: its coefficients as integers
over a common denominator. Search loops run in float over that form
(integer-valued, so argmins are sound), and stored energies are exact integer
products of the same arrays, divided by the denominator. Randomized
samplers derive one RNG stream per read (or restart) from the master seed, so
results are deterministic regardless of execution order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError, EmptySampleSetError, InvalidArgumentError, NoGapError, ParseError,
    TooLargeError,
)
from .numbers import Number, as_exact, finite_or_str, format_number, json_int, normalize, to_jsonable
from .qubo import IsingModel, QuboModel, _IntForm

BRUTE_FORCE_GUARD = 26
GROUND_STATE_GUARD = 32
# float64 entries (2 MB) in one working block of the exact scans, of the
# annealer's uniforms and of the products in `SampleSet.from_configs`. Every
# value in those blocks is exact or is drawn in stream order, so no result
# depends on it.
BLOCK_FLOATS = 1 << 18
# sweeps x spins x reads of one product group of `_anneal`, at most; unlike
# BLOCK_FLOATS it fixes records, as BLAS rounds each product shape its own way.
GROUP_FLOATS = 1 << 24


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


def _x_floats(form: _IntForm) -> tuple[int, np.ndarray, np.ndarray, int]:
    """(offset, linear, upper coupling matrix, scale) over x in {0,1}.

    An Ising form is rebased through s = 2x - 1 so one search core serves
    both bases. The values are the form's integers over `scale`, in lowest
    terms, held in float64, which is exact while their magnitudes sum below
    2**53.
    """
    if form.kind == "ising":
        form = form.rebased()
    off, lin, quad = form.offset, form.linear.tolist(), form.quad.tolist()
    if abs(off) + sum(map(abs, lin)) + sum(map(abs, quad)) >= 2**53:
        raise TooLargeError("coefficients too large for exact float enumeration")
    B = np.zeros((form.n, form.n))
    B[form.rows, form.cols] = quad
    return off, np.array(lin, dtype=np.float64), B, form.scale


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
        self.offset, lin, B, self.scale = _x_floats(self.form)
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


def spectral_gap_large(model) -> tuple[Number, Number, Number]:
    """(E0, E1, E1 - E0), E1 the next level above E0, for up to 32 variables.

    Split enumeration with sound pruning: the energies of both half-spaces are
    attained outright (zero complement), which seeds an upper bound for the
    second level; half-assignments whose cross-term lower bound exceeds that
    seed cannot host either of the two lowest levels and are skipped. Each
    block gives its two lowest levels in place (its minimum is masked to +inf),
    so the scan holds one block of about BLOCK_FLOATS floats at a time.
    """
    split = _HalfSplit(model)
    lows = list(np.unique(np.concatenate([split.EA, split.EB]))[:2])
    cutoff = lows[1] if len(lows) > 1 else math.inf
    for _, tot in split.blocks(split.candidates(cutoff)):
        m0 = tot.min()
        tot[tot == m0] = math.inf
        m1 = tot.min()
        lows += [m0] if m1 == math.inf else [m0, m1]
    levels = np.unique(lows)[:2] + split.offset
    if len(levels) < 2:
        raise NoGapError("spectrum has a single level")
    e0, e1 = (normalize(Fraction(int(v), split.scale)) for v in levels)
    return e0, e1, normalize(e1 - e0)


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

def _block_plan(n: int, rows: np.ndarray, cols: np.ndarray, J: np.ndarray) -> list[tuple[int, int, list]]:
    """Blocks of the sweep order, each with the field updates of its flips.

    A block is a maximal run [a, e) of consecutive spins with no coupling
    among them (couplings J[k] between rows[k] < cols[k]). A block's updates
    come in layers of (targets, coefficients, sources): a target appears at
    most once per layer, and its k-th layer carries its k-th coupled source in
    ascending order, so each field receives its additions in single-spin sweep
    order. A layer whose targets fill at least half of their index range is
    one slice, zero at the rows between. Sources index the block's rows.
    """
    keep = J != 0
    rows, cols, J = rows[keep], cols[keep], J[keep]
    below = np.full(n, -1)
    np.maximum.at(below, cols, rows)  # each spin's highest coupled spin below it
    starts = [0]
    for e, j in enumerate(below.tolist()):
        if j >= starts[-1]:
            starts.append(e)
    block = np.repeat(np.arange(len(starts)), np.diff(starts + [n]))
    src, tgt, coef = np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([J, J])
    order = np.lexsort((src, tgt, block[src]))  # by block, target, then source
    src, tgt, coef = src[order], tgt[order], coef[order]
    heads = np.flatnonzero(np.diff(block[src] * n + tgt, prepend=-1))
    rank = np.arange(len(src)) - np.repeat(heads, np.diff(np.r_[heads, len(src)]))  # place among the target's sources
    order = np.lexsort((tgt, rank, block[src]))  # by block, layer, then target
    src, tgt, coef = src[order], tgt[order], coef[order]
    heads = np.flatnonzero(np.diff(block[src] * n + rank[order], prepend=-1)).tolist()
    layers: list[list] = [[] for _ in starts]
    for lo_k, hi_k in zip(heads, heads[1:] + [len(src)]):
        s, t, c = src[lo_k:hi_k], tgt[lo_k:hi_k], coef[lo_k:hi_k]
        lo, hi = int(t[0]), int(t[-1]) + 1
        if 2 * len(t) >= hi - lo:
            fill_s, fill_c = np.full(hi - lo, s[0]), np.zeros(hi - lo)
            fill_s[t - lo], fill_c[t - lo] = s, c
            s, c, t = fill_s, fill_c, slice(lo, hi)
        b = int(block[s[0]])
        layers[b].append((t, c[:, None], s - starts[b]))
    return [(a, e, lay) for a, e, lay in zip(starts, starts[1:] + [n], layers)]


def _anneal(
    form: _IntForm,
    schedule: Schedule,
    seeds: list[int],
    reads: int,
    signs: np.ndarray | None = None,
) -> np.ndarray:
    """Final spins, one int8 row per read, run by run, of the block-step kernel.

    Run k (one per seed) gets reads // len(seeds) reads, the first
    reads % len(seeds) runs one more, and its read r draws from the stream
    seeded by (seeds[k], r): uniform initial spins, then one acceptance uniform
    per (sweep, spin). A run's reads fall into groups of at most GROUP_FLOATS //
    (sweeps x spins) reads (at least one), each group's initial fields one
    matrix product; BLAS rounds a product of another shape (a one-row product
    takes the matrix-vector path) differently in the last place, and the chain
    inherits the rounding. `signs`, when given, holds one +-1 row per run,
    multiplied into the initial spins of its reads.
    Reads are annealed together in chunks of whole groups, each filled up to
    BLOCK_FLOATS // spins reads unless one group alone is wider. The chunks
    fix no record: the uniforms are drawn a slab of sweeps at a time (about
    BLOCK_FLOATS per chunk), each stream continuing where the last slab left
    it, so every draw is the one a single (sweeps x spins) draw would give.

    A sweep steps through blocks of consecutive, mutually uncoupled spins
    (`_block_plan`), deciding a whole block over all reads at once. No spin of
    a block reads a field another spin of it writes, each field receives its
    additions in sweep order, and an accepted flip adds the same (-2 s) * J as
    a one-spin step (a rejected one adds zero), so the chain is that of the
    one-spin-at-a-time loop, bit for bit.
    """
    n = form.n
    # Python int / int is correctly rounded, so each entry equals float(J)
    hf = np.array([v / form.scale for v in form.linear.tolist()], dtype=np.float64)
    J = np.array([v / form.scale for v in form.quad.tolist()], dtype=np.float64)
    Jm = np.zeros((n, n))
    Jm[form.rows, form.cols] = J
    Jm[form.cols, form.rows] = J
    plan = _block_plan(n, form.rows, form.cols, J)
    betas = schedule.betas()
    n_sweeps = schedule.n_sweeps
    base, extras = divmod(reads, len(seeds))
    width = max(1, BLOCK_FLOATS // max(1, n))
    chunks: list[list[tuple[int, int, int]]] = []  # product groups (run, first read, reads)
    for run in range(len(seeds)):
        count = base + (run < extras)
        size = max(1, min(count, GROUP_FLOATS // max(1, n_sweeps * n)))
        for first in range(0, count, size):
            group = (run, first, min(size, count - first))
            if chunks and sum(g[2] for g in chunks[-1]) + group[2] <= width:
                chunks[-1].append(group)
            else:
                chunks.append([group])
    finals = np.empty((reads, n), dtype=np.int8)
    start = 0
    for chunk in chunks:
        m = sum(size for _, _, size in chunk)
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=(seeds[run], r)))
            for run, first, size in chunk for r in range(first, first + size)
        ]
        S = np.empty((n, m))
        F = np.empty((n, m))
        col = 0
        for run, _, size in chunk:  # one product per group: its shape sets the rounding the chain inherits
            S0 = np.empty((size, n))
            for row, rng in enumerate(rngs[col:col + size]):
                S0[row] = rng.integers(0, 2, n) * 2 - 1
            if signs is not None:
                S0 *= signs[run]
            S[:, col:col + size] = S0.T
            F[:, col:col + size] = (S0 @ Jm).T
            col += size
        slabs = list(_row_blocks(n_sweeps, n * m))
        U = np.empty((m, slabs[0].stop, n))  # one slab of sweeps, read-major, as each stream draws it
        H = np.repeat(hf[:, None], m, axis=1)
        # a slice target adds in place; scattered targets go through F's flat indices
        cols = np.arange(m)
        blocks = [
            (S[a:e], F[a:e], H[a:e], U[:, :, a:e].transpose(1, 2, 0), [
                (F[tg], None, c, src) if type(tg) is slice else (None, (tg[:, None] * m + cols).ravel(), c, src)
                for tg, c, src in layers
            ])
            for a, e, layers in plan
        ]
        # U < 1 <= exp(-beta * dE) wherever dE <= 0 at finite beta, so the
        # Metropolis test is one comparison; its exp overflows harmlessly there
        with np.errstate(over="ignore"):
            for slab in slabs:
                slab_betas = betas[slab]
                for row, rng in enumerate(rngs):  # each stream goes on where the last slab stopped
                    rng.random(out=U[row, :len(slab_betas)])
                for k, beta in enumerate(slab_betas):
                    for s, f, h, u, layers in blocks:
                        m2 = -2.0 * s
                        dE = m2 * (h + f)
                        d = m2 * (dE <= 0.0 if beta == math.inf else u[k] < np.exp(-beta * dE))
                        if np.count_nonzero(d):
                            s += d
                            for view, flat, coef, src in layers:
                                x = coef * d.take(src, axis=0)
                                if flat is None:
                                    view += x
                                else:
                                    F.put(flat, F.take(flat) + x.ravel())
        finals[start:start + m] = S.T.astype(np.int8)
        start += m
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
    model: IsingModel | _IntForm,
    schedule: Schedule | None = None,
    reads: int = 1000,
    seed: int = 0,
) -> SampleSet:
    """Single-spin-flip Metropolis annealing over a linear beta ramp.

    Per read: an independent RNG stream seeded by (seed, read index) draws the
    uniform initial spins, then one acceptance uniform per (sweep, spin);
    every sweep proposes all spins in ascending index order at that sweep's
    beta. One `_anneal` run holds every read, so its product groups
    (GROUP_FLOATS) fix the rounding of the initial fields, and its block-step
    kernel reproduces the one-spin-at-a-time loop bit for bit. `model` may be
    an integer form.
    """
    if reads < 1:
        raise InvalidArgumentError("need at least one read")
    schedule = schedule or Schedule()
    form = _int_form(model)
    if form.kind != "ising":
        raise TypeError("simulated annealing needs an IsingModel")
    finals = _anneal(form, schedule, [seed], reads)
    return SampleSet.from_configs(form, finals, _sa_metadata(seed, reads, schedule))


# --- tabu search --------------------------------------------------------------

def tabu_search(
    model: QuboModel,
    tenure: int = 10,
    max_restarts: int = 20,
    seed: int = 0,
) -> SampleSet:
    """Steepest-descent single-flip search with a recency tabu list.

    Recently flipped variables stay tabu for `tenure` iterations unless a
    move beats the best energy seen anywhere (aspiration). After 50 * dim
    iterations without improving the restart's best, the search restarts
    from a fresh random configuration. One record per restart-best is
    reported, deduplicated with multiplicities.
    """
    if tenure < 1:
        raise InvalidArgumentError("tenure must be positive")
    if max_restarts < 1:
        raise InvalidArgumentError("need at least one restart")
    form = _int_form(model)
    n = form.n
    off_i, lin_i, B, _ = _x_floats(form)
    stagnation_limit = 50 * n
    Bsym = B + B.T
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    global_best = np.inf
    bests: list[np.ndarray] = []
    for _ in range(max_restarts):
        x = rng.integers(0, 2, n).astype(np.float64)
        f = Bsym @ x
        energy = off_i + lin_i @ x + 0.5 * x @ f
        delta = (1.0 - 2.0 * x) * (lin_i + f)
        tabu_until = np.zeros(n, dtype=np.int64)
        it = 0
        best_x = x.copy()
        best_e = energy
        since_improve = 0
        while since_improve < stagnation_limit:
            it += 1
            cand = energy + delta
            allowed = (tabu_until < it) | (cand < global_best)
            if allowed.any():
                masked = np.where(allowed, cand, np.inf)
            else:
                masked = cand
            k = int(np.argmin(masked))
            sign = 1.0 - 2.0 * x[k]  # +1 when flipping 0 -> 1
            energy += delta[k]
            x[k] += sign
            f += Bsym[:, k] * sign
            delta = (1.0 - 2.0 * x) * (lin_i + f)
            tabu_until[k] = it + tenure
            global_best = min(global_best, energy)
            if energy < best_e:
                best_e = energy
                best_x = x.copy()
                since_improve = 0
            else:
                since_improve += 1
        bests.append(_native(best_x.astype(np.int64), form.kind))
    meta = {
        "sampler": "tabu_search",
        "seed": seed,
        "tenure": tenure,
        "max_restarts": max_restarts,
        "stagnation_limit": stagnation_limit,
        "reads": max_restarts,
    }
    return SampleSet.from_configs(form, bests, meta)
