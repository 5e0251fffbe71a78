from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from postman.errors import (
    DegenerateD0Error,
    DimensionMismatchError,
    IllegalAssignmentError,
    ParseError,
    PenaltyTooSmallError,
    TooLargeError,
)
from postman.exact import m_min, odd_pair_distances
from postman.numbers import normalize
from postman.qubo import (
    MAX_DIM,
    IsingModel,
    QuboModel,
    _IntForm,
    build_qubo,
    d_from_dim,
    decode,
    is_legal,
    penalties,
    qubo_from_json,
    qubo_to_json,
    read_qubo,
    to_ising,
    variable_pairs,
    write_qubo,
)
from postman.samplers import _x_floats

from conftest import assert_same_form, assert_same_model, num_quadratic, reference_to_ising


# --- independent oracle: literal symbolic expansion of the objective --------
#
# Build the polynomial term by term: the distance diagonal, then per-node
# squared "appears exactly once" constraints, then the ordered no-shared-node
# products. x^2 collapses to x for binary variables.

def expansion_oracle(dist, p):
    d = len(dist)
    pairs = variable_pairs(d)
    index = {pair: k for k, pair in enumerate(pairs)}
    const = 0
    linear = [0] * len(pairs)
    quad: dict[tuple[int, int], int] = {}

    def add_quad(a, b, coeff):
        key = (min(a, b), max(a, b))
        quad[key] = quad.get(key, 0) + coeff

    for (i, j) in pairs:
        linear[index[(i, j)]] += dist[i][j]
    for node in range(d):
        members = []
        for j in range(d):
            if j != node:
                members.append(index[(node, j)])
                members.append(index[(j, node)])
        # (1 - sum members)^2 = 1 - 2*sum + (sum)^2, and v^2 = v
        const += p
        for v in members:
            linear[v] += -2 * p + p
        for a, b in combinations(sorted(members), 2):
            add_quad(a, b, 2 * p)
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if i == j or i == k or j == k:
                    continue
                add_quad(index[(i, k)], index[(j, k)], p)
                add_quad(index[(k, i)], index[(k, j)], p)
    quad = {key: c for key, c in quad.items() if c != 0}
    return const, tuple(linear), quad


def random_table(d, seed, w_hi=9):
    rng = np.random.default_rng(seed)
    dist = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            dist[i][j] = dist[j][i] = int(rng.integers(1, w_hi + 1))
    return tuple(tuple(row) for row in dist)


def demo_table(demo):
    return odd_pair_distances(demo)


class TestBuilderAgainstOracle:
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_coefficients_match_expansion(self, d):
        dist = random_table(d, seed=d)
        p = d + 3
        model = build_qubo(dist, p)
        const, linear, quad = expansion_oracle(dist, p)
        assert model.offset == const
        assert model.linear == linear
        assert {k: v for k, v in model.quadratic.items() if v != 0} == quad

    @pytest.mark.parametrize("d,terms", [(4, 54), (6, 255), (8, 700)])
    def test_nonzero_pairwise_counts(self, d, terms):
        model = build_qubo(random_table(d, seed=1), d)
        assert num_quadratic(model) == terms

    def test_demo_model(self, demo):
        model = build_qubo(demo_table(demo), 8)
        assert model.dim == 12
        assert model.offset == 32
        assert model.linear[0] == -14  # x01 carries W01 - 2p = 2 - 16
        assert num_quadratic(model) == 54

    def test_d2_dimensions(self):
        model = build_qubo(((0, 3), (3, 0)), 2)
        assert model.dim == 2
        assert num_quadratic(model) == 1


class TestBuilderErrors:
    def test_penalty_too_small(self, demo):
        with pytest.raises(PenaltyTooSmallError):
            build_qubo(demo_table(demo), 3)

    def test_degenerate_d0(self):
        with pytest.raises(DegenerateD0Error):
            build_qubo((), 1)

    def test_default_penalty_is_d(self, demo):
        assert build_qubo(demo_table(demo)).penalty == 4


class TestEvaluate:
    def test_legal_minimum(self, demo):
        model = build_qubo(demo_table(demo), 8)
        x = [0] * 12
        x[0] = 1   # x01
        x[8] = 1   # x23
        assert model.energy(x) == 5

    def test_all_zero_is_constant(self, demo):
        model = build_qubo(demo_table(demo), 8)
        assert model.energy([0] * 12) == 32

    def test_reversed_pair(self, demo):
        model = build_qubo(demo_table(demo), 8)
        x = [0] * 12
        x[0] = 1   # x01
        x[3] = 1   # x10
        assert model.energy(x) == 36

    def test_dimension_mismatch(self, demo):
        model = build_qubo(demo_table(demo), 8)
        with pytest.raises(DimensionMismatchError):
            model.energy([0] * 11)


class TestPenaltiesAndLegality:
    def test_legal_assignment(self):
        x = [0] * 12
        x[0] = x[8] = 1
        assert penalties(x, 4) == (0, 0)
        assert is_legal(x, 4)

    def test_all_zero(self):
        assert penalties([0] * 12, 4) == (4, 0)
        assert not is_legal([0] * 12, 4)

    def test_shared_node(self):
        # x01 and x21 both claim node 1
        pairs = variable_pairs(4)
        x = [0] * 12
        x[pairs.index((0, 1))] = 1
        x[pairs.index((2, 1))] = 1
        assert penalties(x, 4) == (2, 2)
        assert not is_legal(x, 4)

    def test_exhaustive_equivalence_d4(self):
        # legality <=> P1 = P2 = 0 <=> decoding succeeds, over all 2^12 vectors
        for bits in product((0, 1), repeat=12):
            p1, p2 = penalties(bits, 4)
            legal = p1 == 0 and p2 == 0
            assert is_legal(bits, 4) == legal
            try:
                pairing = decode(bits, 4)
                decodable = True
                covered = sorted(i for pair in pairing for i in pair)
                assert covered == list(range(4))
            except IllegalAssignmentError:
                decodable = False
            assert decodable == legal


@st.composite
def oriented_pairings(draw):
    d = draw(st.sampled_from([2, 4, 6]))
    nodes = list(range(d))
    rng_order = draw(st.permutations(nodes))
    pairing = sorted(
        tuple(sorted((rng_order[2 * k], rng_order[2 * k + 1]))) for k in range(d // 2)
    )
    flips = draw(st.tuples(*(st.booleans() for _ in range(d // 2))))
    return d, tuple(pairing), flips


class TestLegalEncodings:
    @given(oriented_pairings())
    @settings(max_examples=60, deadline=None)
    def test_any_orientation_of_a_pairing_is_legal(self, case):
        d, pairing, flips = case
        pairs = variable_pairs(d)
        x = [0] * len(pairs)
        for (a, b), flip in zip(pairing, flips):
            chosen = (b, a) if flip else (a, b)
            x[pairs.index(chosen)] = 1
        assert penalties(x, d) == (0, 0)
        assert is_legal(x, d)
        assert decode(x, d) == pairing


class TestDecode:
    def test_demo_optimum(self):
        x = [0] * 12
        x[0] = x[8] = 1
        assert decode(x, 4) == ((0, 1), (2, 3))

    def test_orientation_flip_same_pairing(self):
        pairs = variable_pairs(4)
        x = [0] * 12
        x[pairs.index((1, 0))] = 1
        x[pairs.index((2, 3))] = 1
        assert decode(x, 4) == ((0, 1), (2, 3))

    def test_illegal_names_node(self):
        pairs = variable_pairs(4)
        x = [0] * 12
        x[pairs.index((0, 1))] = 1
        x[pairs.index((2, 1))] = 1
        with pytest.raises(IllegalAssignmentError) as err:
            decode(x, 4)
        assert 1 in err.value.nodes


class TestIsing:
    def test_single_variable(self):
        model = QuboModel(dim=1, linear=(6,), quadratic={}, offset=0)
        ising = to_ising(model)
        assert ising.h == (3,)
        assert ising.offset == 3

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_energies(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        linear = tuple(int(v) for v in rng.integers(-9, 10, n))
        quadratic = {
            (i, j): int(rng.integers(-9, 10))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        model = QuboModel(dim=n, linear=linear, quadratic=quadratic, offset=int(rng.integers(-5, 6)))
        ising = to_ising(model)
        for _ in range(20):
            x = [int(b) for b in rng.integers(0, 2, n)]
            s = [2 * b - 1 for b in x]
            assert model.energy(x) == ising.energy(s)

    def test_demo_max_coupler(self, demo):
        model = build_qubo(demo_table(demo), 8)
        ising = to_ising(model)
        # reversed/same-position couplings 4p become J = p on the spin side
        assert max(abs(v) for v in ising.couplings.values()) == 8


def coefficients():
    """Ints and small fractions, zero included."""
    return st.builds(lambda a, b: normalize(Fraction(a, b)), st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7]))


@st.composite
def fractional_qubos(draw):
    """QUBOs of up to 6 variables with fractional coefficients, zero couplings
    among them, couplings inserted in drawn order, and sometimes one
    coefficient near 2**70 (past int64)."""
    dim = draw(st.integers(0, 6))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(dim), 2))), unique=True)) if dim > 1 else []
    values = draw(st.lists(coefficients(), min_size=dim + len(keys) + 1, max_size=dim + len(keys) + 1))
    if draw(st.booleans()):
        big = Fraction(2**70 + draw(st.integers(-3, 3)), draw(st.sampled_from([1, 3])))
        values[draw(st.integers(0, len(values) - 1))] = normalize(big)
    return QuboModel(dim=dim, linear=tuple(values[:dim]), quadratic=dict(zip(keys, values[dim:-1])), offset=values[-1])


BIG_QUBO = QuboModel(
    dim=3, linear=(Fraction(1, 3), 2**70 + 1, -2), quadratic={(1, 2): 0, (0, 2): Fraction(-5, 7)}, offset=Fraction(1, 2),
)
# an int64 form whose change of basis passes 2**63 on the way (4 * offset, 2 * sum(linear))
NEAR_INT64 = QuboModel(dim=2, linear=(2**61, 2**61 - 1), quadratic={(0, 1): 2**61}, offset=-(2**61))


def x_floats(form):
    """`_x_floats` as plain lists, or None where it refuses the magnitudes."""
    try:
        x, lin, B = _x_floats(form)
    except TooLargeError:
        return None
    return x.offset, lin.tolist(), B.tolist(), x.scale


class TestIsingOracle:
    @settings(max_examples=80, deadline=None)
    @given(q=fractional_qubos())
    @example(q=BIG_QUBO)
    @example(q=NEAR_INT64)
    def test_matches_fraction_reference(self, q):
        """The change of basis in integers gives the Fraction loop's model; its
        form is the one `_IntForm.build` makes of it, dtype included; rebasing
        twice is the identity; and both forms give the search core one x-basis."""
        ising = to_ising(q)
        assert_same_model(ising, reference_to_ising(q))
        assert_same_form(ising.int_form, _IntForm.build("ising", ising.n, ising.h, ising.couplings, ising.offset))
        assert_same_form(q.int_form.rebased().rebased(), q.int_form)
        assert_same_form(ising.int_form.rebased().rebased(), ising.int_form)
        assert x_floats(ising.int_form) == x_floats(q.int_form)

    def test_big_model_takes_the_object_path(self):
        assert to_ising(BIG_QUBO).int_form.quad.dtype == object


class TestFiles:
    def test_demo_header(self, demo):
        model = build_qubo(demo_table(demo), 8)
        text = write_qubo(model)
        assert "p qubo 0 12 12 54" in text.splitlines()[2]

    def test_round_trip(self, demo):
        model = build_qubo(demo_table(demo), 8)
        again = read_qubo(write_qubo(model))
        assert again == model

    def test_round_trip_fractional(self):
        model = QuboModel(
            dim=2, linear=(Fraction(1, 3), -2), quadratic={(0, 1): Fraction(7, 2)},
            offset=Fraction(5, 6),
        )
        assert read_qubo(write_qubo(model)) == QuboModel(
            dim=2, linear=(Fraction(1, 3), -2), quadratic={(0, 1): Fraction(7, 2)},
            offset=Fraction(5, 6), pairs=variable_pairs(2),
        )

    def test_truncated_file(self, demo):
        text = write_qubo(build_qubo(demo_table(demo), 8))
        with pytest.raises(ParseError):
            read_qubo("\n".join(text.splitlines()[:-3]))

    def test_garbage(self):
        with pytest.raises(ParseError):
            read_qubo("0 0 5\n")

    def test_non_integer_header_and_index(self):
        with pytest.raises(ParseError, match="line 2"):
            read_qubo("c offset 0\np qubo 0 x 1 0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_qubo("p qubo 0 2 1 0\na 0 1\n")

    def test_header_dim_is_checked_before_it_sizes_anything(self):
        with pytest.raises(TooLargeError, match=f"^dim {MAX_DIM + 1} exceeds QUBO dimension guard {MAX_DIM}$"):
            read_qubo(f"p qubo 0 {MAX_DIM + 1} 0 0\n")
        with pytest.raises(ParseError, match="line 1: problem header dim must be nonnegative"):
            read_qubo("p qubo 0 -5 0 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # the header count matches, so only the repeat shows: the last entry won
            ("p qubo 0 2 2 1\n0 0 1\n0 0 -5\n0 1 2\n", "line 3: repeated entry 0 0"),
            ("p qubo 0 2 1 2\n0 0 1\n0 1 2\nc note\n0 1 2\n", "line 5: repeated entry 0 1"),
        ],
    )
    def test_repeated_entry(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_qubo(text)

    def test_json_repeated_quadratic_entry(self):
        obj = {"dim": 3, "linear": [1, 2, 0], "quadratic": [[0, 1, 1], [1, 2, 4], [0, 1, -3]], "offset": 0}
        with pytest.raises(ParseError, match=r"^bad QUBO JSON: repeated quadratic entry \[0, 1\]$"):
            qubo_from_json(obj)
        obj["quadratic"].pop()
        assert qubo_from_json(obj).quadratic == {(0, 1): 1, (1, 2): 4}

    def test_json_round_trips(self, demo):
        model = build_qubo(demo_table(demo), 8)
        assert qubo_from_json(qubo_to_json(model)) == model

    def test_d_from_dim(self):
        assert d_from_dim(12) == 4
        assert d_from_dim(30) == 6
        assert d_from_dim(13) is None


class TestSemantics:
    def test_brute_argmin_matches_matching_small(self, demo):
        # exhaustive over 2^12: min energy is the matching minimum, every argmin legal
        model = build_qubo(demo_table(demo), 8)
        best = None
        argmins = []
        for bits in product((0, 1), repeat=12):
            e = model.energy(bits)
            if best is None or e < best:
                best, argmins = e, [bits]
            elif e == best:
                argmins.append(bits)
        assert best == m_min(demo).m_min == 5
        assert len(argmins) == 4
        for x in argmins:
            assert decode(x, 4) == ((0, 1), (2, 3))
