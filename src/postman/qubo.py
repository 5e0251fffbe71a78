"""Binary-quadratic encoding of the odd-node pairing problem.

Variables are ordered pairs (i, j), i != j, over the d odd nodes, listed in
lexicographic order (x01, x02, ..., x10, x12, ...). The objective carries the
pairwise shortest distances on the diagonal; two penalty families (scaled by
p >= d) penalise every node not paired exactly once and every node shared
between pairs. The closed-form coefficients are:

    constant            p * d
    linear  a(x_ij)     W_ij - 2p
    pair    {x_ij,x_ji} 4p      (reversed orientation)
            same index in the same position (x_ij,x_ik / x_ji,x_ki)  4p
            one shared node across positions (x_ij,x_ki / x_ij,x_jk) 2p
            node-disjoint pairs                                      0

so the minimum over legal assignments equals the minimum matching weight.
Every illegal assignment carries penalty at least 2p, so the minimisers are
all legal only when that weight M_min is below 2p; p >= d alone does not
ensure it on weighted graphs. All coefficients and energies are exact
ints/Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateD0Error,
    DimensionMismatchError,
    IllegalAssignmentError,
    OddCountNotEvenError,
    ParseError,
    PenaltyTooSmallError,
    TooLargeError,
)
from .exact import OddPairDistances
from .numbers import Number, as_exact, format_number, json_int, normalize, parse_number, to_jsonable

# The header's dim alone sizes the model before any entry is read: `postman
# sample` on a header-only file peaked at 126 MB RSS at dim 2**20 and 415 MB at 2**22.
MAX_DIM = 1 << 20


def variable_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Ordered index pairs in lexicographic order; dim = d(d-1)."""
    return tuple((i, j) for i in range(d) for j in range(d) if i != j)


@dataclass(frozen=True)
class QuboModel:
    """Quadratic binary objective: offset + sum a_k x_k + sum_{k<l} b_kl x_k x_l."""

    dim: int
    linear: tuple[Number, ...]
    quadratic: dict[tuple[int, int], Number]
    offset: Number = 0
    penalty: Number | None = None
    pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if len(self.linear) != self.dim:
            raise ValueError("linear term count must equal dim")
        for (k, l) in self.quadratic:
            if not (0 <= k < l < self.dim):
                raise ValueError(f"bad quadratic key ({k},{l})")

    def energy(self, x: Sequence[int]) -> Number:
        if len(x) != self.dim:
            raise DimensionMismatchError(f"expected {self.dim} bits, got {len(x)}")
        e = self.offset
        for k, a in enumerate(self.linear):
            if x[k]:
                e += a
        for (k, l), b in self.quadratic.items():
            if x[k] and x[l]:
                e += b
        return normalize(e)

    @cached_property
    def int_form(self) -> "_IntForm":
        """The model's integer form, built once per instance."""
        return _IntForm.build("qubo", self.dim, self.linear, self.quadratic, self.offset)


@dataclass(frozen=True)
class IsingModel:
    """Spin-form twin: offset + sum h_i s_i + sum_{i<j} J_ij s_i s_j, s in {-1,+1}."""

    n: int
    h: tuple[Number, ...]
    couplings: dict[tuple[int, int], Number]
    offset: Number = 0

    def __post_init__(self):
        if len(self.h) != self.n:
            raise ValueError("field count must equal n")
        for (i, j) in self.couplings:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad coupling key ({i},{j})")

    def energy(self, s: Sequence[int]) -> Number:
        if len(s) != self.n:
            raise DimensionMismatchError(f"expected {self.n} spins, got {len(s)}")
        e = self.offset
        for i, hi in enumerate(self.h):
            e += hi * s[i]
        for (i, j), jij in self.couplings.items():
            e += jij * s[i] * s[j]
        return normalize(e)

    @cached_property
    def int_form(self) -> "_IntForm":
        """The model's integer form, built once per instance."""
        return _IntForm.build("ising", self.n, self.h, self.couplings, self.offset)

    @classmethod
    def _from_form(cls, form: "_IntForm") -> "IsingModel":
        """The Ising model of an integer form, which becomes its `int_form`. Each
        coefficient is normalize(Fraction(v, scale)), one Fraction per distinct
        numerator; couplings follow the form's rows/cols order, zeros kept. A
        form's keys are valid, so `__post_init__` does not check them again."""
        lin, quad = form.linear.tolist(), form.quad.tolist()
        exact = {v: normalize(Fraction(v, form.scale)) for v in {*lin, *quad}}
        model = cls.__new__(cls)
        model.__dict__.update(
            n=form.n, h=tuple(map(exact.__getitem__, lin)), int_form=form,
            couplings=dict(zip(zip(form.rows.tolist(), form.cols.tolist()), map(exact.__getitem__, quad))),
            offset=normalize(Fraction(form.offset, form.scale)),
        )
        return model


@dataclass(frozen=True)
class _IntForm:
    """A model over its native variables as integers over one denominator.

    scale * energy(v) = offset + linear @ v + sum_k quad[k] * v[rows[k]] * v[cols[k]]
    for v a bit vector (kind "qubo") or a spin vector (kind "ising"), in lowest
    terms, so a model has one form. The arrays are int64 when the magnitudes
    of all coefficients sum below 2**63, which bounds every partial sum for
    |v_i| <= 1, and Python ints otherwise; `over` alone reduces and picks the
    dtype. Every sampler and exact energy reads a model through this form, and
    `to_ising`, `chimera.embed_ising` and `chimera.autoscale` derive theirs from
    their source's form in integers.
    """

    kind: str
    n: int
    scale: int
    offset: int
    linear: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    quad: np.ndarray

    @staticmethod
    def over(kind: str, n: int, denominator: int, offset: int, linear: list, rows, cols, quad: list) -> "_IntForm":
        """The form of Python-int numerators over `denominator`, reduced by their
        common gcd; `rows` and `cols` index the couplings of `quad`."""
        g = math.gcd(denominator, offset, *linear, *quad)
        if g != 1:
            denominator, offset = denominator // g, offset // g
            linear, quad = [v // g for v in linear], [v // g for v in quad]
        dtype = np.int64 if abs(offset) + sum(map(abs, linear)) + sum(map(abs, quad)) < 2**63 else object
        return _IntForm(kind, n, denominator, offset, np.array(linear, dtype=dtype), rows, cols, np.array(quad, dtype=dtype))

    @staticmethod
    def build(kind: str, n: int, linear, couplings: dict, offset) -> "_IntForm":
        """The form of exact coefficients: over the lcm of their denominators."""
        coeffs = [Fraction(v) for v in (offset, *linear, *couplings.values())]
        scale = math.lcm(*(v.denominator for v in coeffs))
        ints = [v.numerator * (scale // v.denominator) for v in coeffs]
        keys = np.array(list(couplings), dtype=np.intp).reshape(-1, 2)
        return _IntForm.over(kind, n, scale, ints[0], ints[1:n + 1], keys[:, 0], keys[:, 1], ints[n + 1:])

    def rebased(self) -> "_IntForm":
        """The model in the other basis through s = 2x - 1: a QUBO form gives an
        Ising form over 4 * scale, an Ising form a QUBO form. In Python ints,
        since the factor 4 and the sums can pass 2**63."""
        lin, quad = self.linear.tolist(), self.quad.tolist()
        cross = 1 if self.kind == "qubo" else -2  # what a coupling adds to each of its two new fields
        fields = [2 * v for v in lin]
        for i, j, c in zip(self.rows.tolist(), self.cols.tolist(), quad):
            fields[i] += cross * c
            fields[j] += cross * c
        if self.kind == "qubo":  # x = (s + 1) / 2, times 4
            offset = 4 * self.offset + 2 * sum(lin) + sum(quad)
            return _IntForm.over("ising", self.n, 4 * self.scale, offset, fields, self.rows, self.cols, quad)
        offset = self.offset - sum(lin) + sum(quad)
        return _IntForm.over("qubo", self.n, self.scale, offset, fields, self.rows, self.cols, [4 * c for c in quad])


def _distance_matrix(table) -> tuple[tuple[Number, ...], ...]:
    if isinstance(table, OddPairDistances):
        return table.dist
    return tuple(tuple(as_exact(w) for w in row) for row in table)


def build_qubo(table, p: Number | None = None) -> QuboModel:
    """Compile a pairwise-distance table into the penalized binary objective.

    `table` is an OddPairDistances or a symmetric d x d matrix; `p` defaults
    to d, the smallest admissible penalty. The ground states are legal
    pairings of energy M_min when M_min < 2p; otherwise an illegal assignment
    may sit lower (one edge of weight 10 at p = 2 has ground energy 4).
    """
    dist = _distance_matrix(table)
    d = len(dist)
    if d == 0:
        raise DegenerateD0Error("graph has no odd nodes; solve it exactly instead")
    if d % 2 == 1:
        raise OddCountNotEvenError(f"odd-node count must be even, got {d}")
    p = d if p is None else as_exact(p)
    if p < d:
        raise PenaltyTooSmallError(f"penalty {p} is below the bound d={d}")

    pairs = variable_pairs(d)
    index = {pair: k for k, pair in enumerate(pairs)}
    linear = tuple(normalize(dist[i][j] - 2 * p) for (i, j) in pairs)
    quadratic: dict[tuple[int, int], Number] = {}
    for k in range(len(pairs)):
        i, j = pairs[k]
        for l in range(k + 1, len(pairs)):
            a, b = pairs[l]
            if {i, j} == {a, b} or i == a or j == b:
                quadratic[(k, l)] = normalize(4 * p)
            elif i == b or j == a:
                quadratic[(k, l)] = normalize(2 * p)
    return QuboModel(
        dim=d * (d - 1),
        linear=linear,
        quadratic=quadratic,
        offset=normalize(p * d),
        penalty=normalize(p),
        pairs=pairs,
    )


def d_from_dim(dim: int) -> int | None:
    """Odd-node count whose pair encoding has this dimension, if any."""
    d = 1
    while d * (d - 1) < dim:
        d += 1
    return d if d * (d - 1) == dim else None


def penalties(x: Sequence[int], d: int) -> tuple[int, int]:
    """Constraint values (P1, P2) computed directly from their definitions.

    P1 sums, per node, the squared deviation of its appearance count from 1;
    P2 counts ordered products of distinct pairs sharing a positional node.
    Both vanish exactly on legal pairings.
    """
    pairs = variable_pairs(d)
    if len(x) != len(pairs):
        raise DimensionMismatchError(f"expected {len(pairs)} bits, got {len(x)}")
    val = {pair: int(bool(x[k])) for k, pair in enumerate(pairs)}
    p1 = 0
    for i in range(d):
        s = sum(val[(i, j)] + val[(j, i)] for j in range(d) if j != i)
        p1 += (1 - s) ** 2
    p2 = 0
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if i == j or i == k or j == k:
                    continue
                p2 += val[(i, k)] * val[(j, k)] + val[(k, i)] * val[(k, j)]
    return p1, p2


def is_legal(x: Sequence[int], d: int) -> bool:
    p1, p2 = penalties(x, d)
    return p1 == 0 and p2 == 0


def decode(x: Sequence[int], d: int) -> tuple[tuple[int, int], ...]:
    """Unordered index pairing selected by x; orientation is discarded.

    Raises IllegalAssignmentError naming the offending node(s) when some node
    is unpaired or paired more than once.
    """
    pairs = variable_pairs(d)
    if len(x) != len(pairs):
        raise DimensionMismatchError(f"expected {len(pairs)} bits, got {len(x)}")
    count = [0] * d
    chosen: set[tuple[int, int]] = set()
    for k, (i, j) in enumerate(pairs):
        if x[k]:
            count[i] += 1
            count[j] += 1
            chosen.add((min(i, j), max(i, j)))
    over = tuple(i for i, c in enumerate(count) if c > 1)
    if over:
        raise IllegalAssignmentError(
            f"node(s) {', '.join(map(str, over))} paired more than once", nodes=over
        )
    under = tuple(i for i, c in enumerate(count) if c == 0)
    if under:
        raise IllegalAssignmentError(
            f"node(s) {', '.join(map(str, under))} left unpaired", nodes=under
        )
    return tuple(sorted(chosen))


def to_ising(q: QuboModel) -> IsingModel:
    """Exact change of variables s = 2x - 1; energies agree for every x. The
    model is computed in integers from the QUBO's form (`_IntForm.rebased`)."""
    return IsingModel._from_form(q.int_form.rebased())


# --- text and JSON formats --------------------------------------------------
#
# Text format: 'c' comment lines, a header "p qubo 0 <dim> <nDiag> <nElem>",
# <nDiag> diagonal lines "k k a_k", then <nElem> lines "k l b_kl" with k < l.
# The constant offset and penalty ride along in 'c' comments so a write/read
# round trip reproduces the model exactly.

def write_qubo(q: QuboModel) -> str:
    diag = [(k, a) for k, a in enumerate(q.linear) if a != 0]
    offd = [(k, l, b) for (k, l), b in sorted(q.quadratic.items()) if b != 0]
    lines = [f"c offset {format_number(q.offset)}"]
    if q.penalty is not None:
        lines.append(f"c penalty {format_number(q.penalty)}")
    lines.append(f"p qubo 0 {q.dim} {len(diag)} {len(offd)}")
    lines.extend(f"{k} {k} {format_number(a)}" for k, a in diag)
    lines.extend(f"{k} {l} {format_number(b)}" for k, l, b in offd)
    return "\n".join(lines) + "\n"


def read_qubo(text: str) -> QuboModel:
    offset: Number = 0
    penalty: Number | None = None
    dim = None
    n_diag = n_elem = 0
    linear: list[Number] = []
    quadratic: dict[tuple[int, int], Number] = {}
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) == 3 and parts[1] == "offset":
                offset = parse_number(parts[2], lineno)
            elif len(parts) == 3 and parts[1] == "penalty":
                penalty = parse_number(parts[2], lineno)
            continue
        if parts[0] == "p":
            if len(parts) != 6 or parts[1] != "qubo":
                raise ParseError("malformed problem header", lineno)
            try:
                dim, n_diag, n_elem = int(parts[3]), int(parts[4]), int(parts[5])
            except ValueError:
                raise ParseError("problem header fields must be integers", lineno) from None
            if dim < 0:
                raise ParseError("problem header dim must be nonnegative", lineno)
            if dim > MAX_DIM:
                raise TooLargeError(f"dim {dim} exceeds QUBO dimension guard {MAX_DIM}")
            linear = [0] * dim
            continue
        if dim is None:
            raise ParseError("entry before problem header", lineno)
        if len(parts) != 3:
            raise ParseError("expected 'k l value'", lineno)
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("indices must be integers", lineno) from None
        value = parse_number(parts[2], lineno)
        if not (0 <= k < dim and 0 <= l < dim):
            raise ParseError(f"index out of range for dim {dim}", lineno)
        if k > l:
            raise ParseError("off-diagonal entries need k < l", lineno)
        if (k, l) in seen:
            raise ParseError(f"repeated entry {k} {l}", lineno)
        seen.add((k, l))
        if k == l:
            linear[k] = value
        else:
            quadratic[(k, l)] = value
    if dim is None:
        raise ParseError("missing problem header")
    seen_elem = len(quadratic)
    seen_diag = len(seen) - seen_elem
    if seen_diag != n_diag or seen_elem != n_elem:
        raise ParseError(
            f"header promised {n_diag} diagonals and {n_elem} elements, "
            f"found {seen_diag} and {seen_elem}"
        )
    d = d_from_dim(dim)
    return QuboModel(
        dim=dim,
        linear=tuple(linear),
        quadratic=quadratic,
        offset=offset,
        penalty=penalty,
        pairs=variable_pairs(d) if d is not None else None,
    )


def qubo_to_json(q: QuboModel) -> dict:
    return {
        "dim": q.dim,
        "offset": to_jsonable(q.offset),
        "penalty": None if q.penalty is None else to_jsonable(q.penalty),
        "linear": [to_jsonable(a) for a in q.linear],
        "quadratic": [[k, l, to_jsonable(b)] for (k, l), b in sorted(q.quadratic.items())],
        "pairs": None if q.pairs is None else [list(p) for p in q.pairs],
    }


def _quadratic_from_json(entries) -> dict[tuple[int, int], Number]:
    quadratic = {}
    for k, l, b in entries:
        key = (json_int(k), json_int(l))
        if key in quadratic:
            raise ParseError(f"bad QUBO JSON: repeated quadratic entry {list(key)}")
        quadratic[key] = as_exact(b)
    return quadratic


def qubo_from_json(obj) -> QuboModel:
    """Inverse of `qubo_to_json`, on the parsed object."""
    try:
        return QuboModel(
            dim=json_int(obj["dim"]),
            linear=tuple(as_exact(a) for a in obj["linear"]),
            quadratic=_quadratic_from_json(obj["quadratic"]),
            offset=as_exact(obj["offset"]),
            penalty=None if obj.get("penalty") is None else as_exact(obj["penalty"]),
            pairs=None if obj.get("pairs") is None else tuple(
                (json_int(p[0]), json_int(p[1])) for p in obj["pairs"]
            ),
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"bad QUBO JSON: {exc}") from None
