import heapq
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammix.rational import lowest_terms, over_common_denominator, over_lcm, rat
from hammix.instances import random_lipschitz_function, random_rational, random_weights
from hammix.lipschitz_lp import build_polytope_lp, lipschitz_constant
from hammix.martingale import verify_sumvi
from hammix.mixing import Measure, delta_matrix
from hammix.psi import psi, psi_decomposition_rhs
from hammix.words import (
    Builtin,
    TableFunction,
    WeightVector,
    project_numerators,
    word_index,
    word_unindex,
)
from mixing_oracle import words
from table_oracle import constant, from_callable, hamming_distance, prefix_restrict


def test_word_index_trivial():
    assert word_index((0, 0), 2) == 0
    assert word_index((1, 0), 2) == 2  # first symbol most significant


def test_word_index_matches_enumeration_order():
    # Independent oracle: position of the word in the lexicographic listing.
    listing = list(product(range(3), repeat=3))
    assert word_index((1, 2, 0), 3) == listing.index((1, 2, 0)) == 15
    for idx, x in enumerate(listing):
        assert word_index(x, 3) == idx
        assert word_unindex(idx, 3, 3) == x


def test_word_index_rejects_bad_symbols():
    with pytest.raises(ValueError):
        word_index((0, 2), 2)
    with pytest.raises(ValueError):
        word_index((0, 1), 2, 3)


@given(st.integers(2, 4), st.lists(st.integers(0, 3), max_size=6))
@settings(max_examples=200)
def test_word_index_unindex_roundtrip(m, symbols):
    word = tuple(s % m for s in symbols)
    assert word_unindex(word_index(word, m), m, len(word)) == word


def test_hamming_distance_examples():
    w = WeightVector(("1/2", 3))
    assert hamming_distance((0, 1), (0, 1), w) == 0
    assert hamming_distance((0, 1), (1, 1), w) == rat(1, 2)
    assert hamming_distance((0, 1), (1, 0), w) == rat(7, 2)
    assert hamming_distance((1, 0), (0, 1), w) == rat(7, 2)


def test_hamming_distance_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance((0,), (0, 1), WeightVector((1, 1)))


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_hamming_triangle_inequality_exhaustive(m, n):
    rng = random.Random(100 * m + n)
    w = WeightVector([rat(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)])
    all_words = list(words(m, n))
    for x in all_words:
        for y in all_words:
            dxy = hamming_distance(x, y, w)
            assert dxy == hamming_distance(y, x, w)
            assert (dxy == 0) == (x == y)
            for z in all_words:
                assert dxy <= hamming_distance(x, z, w) + hamming_distance(z, y, w)


def _dijkstra_distance(x, y, m, w):
    """Shortest path over single-coordinate-change edges with weight w_i."""
    n = len(x)
    dist = {x: Fraction(0)}
    heap = [(Fraction(0), x)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == y:
            return d
        if d > dist.get(u, None):
            continue
        for i in range(n):
            for a in range(m):
                if a == u[i]:
                    continue
                v = u[:i] + (a,) + u[i + 1 :]
                nd = d + Fraction(int(w[i].numerator), int(w[i].denominator))
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    raise AssertionError("graph is connected")


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_hamming_is_shortest_path_metric(m, n):
    rng = random.Random(7 * m + n)
    w = WeightVector([rat(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)])
    all_words = list(words(m, n))
    for x in all_words:
        for y in all_words:
            assert hamming_distance(x, y, w) == _dijkstra_distance(x, y, m, w)


def test_hamming_table_matches_per_word_distances():
    rng = random.Random(23)
    for m, n in [(1, 3), (2, 0), (2, 1), (2, 5), (3, 3), (4, 2)]:
        for _ in range(3):
            w = random_weights(rng, n)
            target = tuple(rng.randrange(m) for _ in range(n))
            table = Builtin("hamming_to", m, n, target, w).table()
            expected = from_callable(m, n, lambda x: hamming_distance(x, target, w))
            assert table == expected
            assert table.values == expected.values


def _lipschitz_oracle(rng, m, n, w):
    """random_lipschitz_function's draws, its minimum taken per word in Fractions."""
    cones = []
    for _ in range(3):
        anchor = tuple(rng.randrange(m) for _ in range(n))
        cones.append((anchor, random_rational(rng, 0, 2)))
    return from_callable(m, n, lambda x: min(s + hamming_distance(x, a, w) for a, s in cones))


def test_random_lipschitz_function_matches_per_word_oracle():
    for seed in range(60):
        rng = random.Random(seed)
        m, n = rng.choice((1, 2, 3)), rng.randint(1, 4)
        w = random_weights(rng, n)
        oracle_rng = random.Random()
        oracle_rng.setstate(rng.getstate())
        f = random_lipschitz_function(rng, m, n, w)
        expected = _lipschitz_oracle(oracle_rng, m, n, w)
        assert f == expected and f.values == expected.values
        # The same draws, in the same order: the generator is left in the same state.
        assert rng.getstate() == oracle_rng.getstate()


def test_builtin_tables_match_per_word_values():
    rng = random.Random(29)
    for m, n in [(1, 3), (2, 0), (2, 1), (2, 5), (3, 3), (4, 2)]:
        target = tuple(rng.randrange(m) for _ in range(n))
        expected_sum = from_callable(m, n, sum)
        assert Builtin("sum_of_symbols", m, n).table() == expected_sum
        expected_indicator = from_callable(m, n, lambda x: int(x == target))
        assert Builtin("indicator", m, n, target).table() == expected_indicator


def _projection(k):
    """k'(y) = sum_a k(a y) as a table, from the numerator operator psi runs."""
    m = k.alphabet_size
    return TableFunction.from_numerators(m, k.arity - 1, project_numerators(k.nums, m), k.den)


def _section(k, y):
    """k_y(x) = k(x y) as a table, from the strided slice psi_decomposition_rhs runs."""
    m = k.alphabet_size
    return TableFunction.from_numerators(m, k.arity - 1, k.nums[y::m], k.den)


def test_marginal_projection_examples():
    k1 = TableFunction(2, 1, (1, -1))
    assert _projection(k1).values == (rat(0),)

    k2 = TableFunction(2, 2, (1, 0, 0, -1))
    assert _projection(k2).values == (rat(1), rat(-1))

    const = constant(2, 2, "5/3")
    assert _projection(const).values == (rat(10, 3), rat(10, 3))


def test_arity_one_projection_is_the_total():
    # psi's last level projects an arity-1 table to its total; for m = 1
    # every projection is the identity on numerators.
    rng = random.Random(5)
    for m in (1, 2, 3, 4):
        nums = [rng.randint(-9, 9) for _ in range(m)]
        assert project_numerators(nums, m) == [sum(nums)]
    assert project_numerators((3, -1, 4), 1) == [3, -1, 4]


def test_y_section_examples():
    k1 = TableFunction(2, 1, (5, 7))
    assert _section(k1, 1).values == (rat(7),)

    k2 = TableFunction(2, 2, (1, 0, 0, -1))
    assert _section(k2, 0).values == (rat(1), rat(0))
    assert _section(k2, 1).values == (rat(0), rat(-1))


def test_projection_and_section_commute():
    rng = random.Random(42)
    for _ in range(50):
        m = rng.choice((2, 3))
        k = TableFunction(m, 3, [rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m**3)])
        projected = project_numerators(k.nums, m)
        for y in range(m):
            assert project_numerators(k.nums[y::m], m) == projected[y::m]


def test_section_totals_sum_to_table_total():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        k = TableFunction(m, n, [rat(rng.randint(-9, 9)) for _ in range(m**n)])
        assert sum((_section(k, y).total() for y in range(m)), rat(0)) == k.total()


def test_prefix_restrict():
    f = TableFunction(2, 2, (1, 0, 0, -1))
    assert prefix_restrict(f, ()) == f
    assert prefix_restrict(f, (1,)).values == (rat(0), rat(-1))
    assert prefix_restrict(f, (1, 1)).values == (rat(-1),)
    with pytest.raises(ValueError):
        prefix_restrict(f, (0, 1, 1))


def test_table_validation():
    with pytest.raises(ValueError):
        TableFunction(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        TableFunction(0, 1, ())
    with pytest.raises(TypeError):
        TableFunction(2, 1, (0.5, 1))  # floats are not exact


def test_every_exact_value_is_a_fraction():
    # Fraction is the one rational type: rat converts every Rational input
    # (a Fraction subclass included), and table values are built as Fractions.
    class Subclass(Fraction):
        pass

    cases = ((3, Fraction(3)), (Subclass(1, 2), Fraction(1, 2)), ("0.125", Fraction(1, 8)))
    for value, expected in cases:
        assert type(rat(value)) is Fraction and rat(value) == expected
    assert type(rat(Subclass(1, 2), 3)) is Fraction and rat(Subclass(1, 2), 3) == Fraction(1, 6)
    for den in (1, 3):
        values = TableFunction.from_numerators(2, 1, (1, 2), den).values
        assert all(type(v) is Fraction for v in values)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((1, 0))
    with pytest.raises(ValueError):
        WeightVector(("-1/2",))
    w = WeightVector(("3/2", 1))
    assert w.total() == rat(5, 2)


def test_weights_are_integers_over_one_lowest_terms_denominator():
    rng = random.Random(41)
    for n in (0, 1, 3, 6):
        for _ in range(20):
            w = random_weights(rng, n)
            assert len(w.nums) == len(w.entries) == n
            assert w.den >= 1 and gcd(w.den, *w.nums) == 1
            assert all(w.entries[i] == rat(w.nums[i], w.den) for i in range(n))
            assert w.total() == sum(w.entries, rat(0))
    # Pairwise different denominators: the lcm, not their product or maximum.
    w = WeightVector(("1/2", "2/3", "5/4"))
    assert (w.nums, w.den) == ((6, 8, 15), 12)


def test_weights_spelled_differently_compare_and_hash_equal():
    a, b = WeightVector(("1/2", "0.5", "3/6")), WeightVector(("1/2",) * 3)
    assert a == b and hash(a) == hash(b)
    assert (a.nums, a.den) == (b.nums, b.den) == ((1, 1, 1), 2)
    assert WeightVector(("3/4", 2)) == WeightVector(("6/8", "2.0"))
    assert WeightVector(("1/2",)) != WeightVector(("1/3",))
    assert WeightVector((1, 2)) != WeightVector((1,))


def test_over_lcm_puts_ratios_over_their_least_common_denominator():
    assert over_lcm([-1, 5, 0], [2, 6, 4]) == ([-6, 10, 0], 12)
    assert over_lcm([3, -7], [1, 1]) == ([3, -7], 1)
    assert over_lcm([], []) == ([], 1)
    assert over_common_denominator([rat(-1, 2), rat(5, 6), rat(0)]) == ([-3, 5, 0], 6)


def test_lowest_terms_divides_by_the_gcd():
    assert lowest_terms([-4, 6, 0], 10) == ((-2, 3, 0), 5)
    assert lowest_terms((-6, 9), 3) == ((-2, 3), 1)
    assert lowest_terms([0, 0], 4) == ((0, 0), 1)
    nums = [-3, 4, 0]
    reduced, den = lowest_terms(nums, 5)
    assert reduced is nums and den == 5


_WEIGHT_READERS = {
    "psi": lambda k, P, w: psi(w, k),
    "psi_decomposition_rhs": lambda k, P, w: psi_decomposition_rhs(w, k),
    "build_polytope_lp": lambda k, P, w: build_polytope_lp(k, w),
    "lipschitz_constant": lambda k, P, w: lipschitz_constant(k, w),
    "verify_sumvi": lambda k, P, w: verify_sumvi(k, P, w),
    "DeltaMatrix.apply": lambda k, P, w: delta_matrix(P).apply(w),
}


@pytest.mark.parametrize("reader", sorted(_WEIGHT_READERS))
def test_every_weight_reader_refuses_a_wrong_length(reader):
    k, P = TableFunction(2, 2, (1, 0, 0, -1)), Measure.uniform(2, 2)
    for entries in ((1,), (1, "1/2", 2)):
        with pytest.raises(ValueError, match=f"weight length {len(entries)} != arity 2"):
            _WEIGHT_READERS[reader](k, P, WeightVector(entries))
