import math
import random
import sys
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from hammix.instances import (
    random_dense_measure,
    random_lipschitz_function,
    random_markov_spec,
    random_product_measure,
    random_rational,
    random_table,
    random_weights,
)
from hammix.martingale import (
    MartingaleProfile,
    SumViReport,
    azuma_bound,
    concentration_bound,
    conditional_sums,
    kernel_terms,
    martingale_profile,
    verify_sumvi,
)
from hammix.lipschitz_lp import lipschitz_constant
from hammix.mixing import MarkovSpec, Measure, expand_markov
from hammix.rational import rat
from hammix.words import Builtin, TableFunction, WeightVector
from mixing_oracle import ZeroPrefixProbability, point_mass, prefix_mass, words
from table_oracle import conditional_expectation, constant, from_callable, hamming_distance, scale, v_i


def _v_bar(f, P, i):
    """max |v_i| over positive-probability prefixes of length i: the profile's entry i."""
    return martingale_profile(f, P).v_bars[i - 1]


def _chain(n):
    rows = ((rat("9/10"), rat("1/10")), (rat("1/10"), rat("9/10")))
    return MarkovSpec((rat("1/2"), rat("1/2")), (rows,) * (n - 1))


def _indicator_11():
    return TableFunction(2, 2, (0, 0, 0, 1))


def test_conditional_expectation_boundary_cases():
    P = Measure.uniform(2, 2)
    f = _indicator_11()
    for x in words(2, 2):
        assert conditional_expectation(f, P, x) == f(x)
    assert conditional_expectation(f, P, ()) == rat(1, 4)
    assert conditional_expectation(f, P, (1,)) == rat(1, 2)


def test_conditional_expectation_null_prefix_raises():
    P = point_mass(2, 2, (0, 0))
    with pytest.raises(ZeroPrefixProbability):
        conditional_expectation(_indicator_11(), P, (1,))


def _as_fraction(x):
    return Fraction(int(x.numerator), int(x.denominator))


def _ce_oracle(f, P, prefix):
    """Definition-chasing conditional expectation over explicit words."""
    m, n = f.alphabet_size, f.arity
    num = Fraction(0)
    den = Fraction(0)
    for x in product(range(m), repeat=n):
        if x[: len(prefix)] == tuple(prefix):
            p = _as_fraction(P.probabilities[_index(x, m)])
            num += _as_fraction(f(x)) * p
            den += p
    return num / den


def _index(x, m):
    idx = 0
    for s in x:
        idx = idx * m + s
    return idx


def test_conditional_expectation_matches_oracle():
    rng = random.Random(12)
    for _ in range(20):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        f = random_table(rng, m, n)
        P = random_dense_measure(rng, m, n, allow_zeros=False)
        for i in range(n + 1):
            prefix = tuple(rng.randrange(m) for _ in range(i))
            assert conditional_expectation(f, P, prefix) == _ce_oracle(f, P, prefix)


def test_v_i_examples():
    P = Measure.uniform(2, 2)
    f = _indicator_11()
    assert v_i(f, P, (1,)) == rat(1, 4)
    assert v_i(f, P, (0,)) == rat(-1, 4)
    assert v_i(f, P, (1, 1)) == rat(1, 2)

    const = constant(2, 2, "7/3")
    for i in (1, 2):
        for y in words(2, i):
            assert v_i(const, P, y) == 0


def test_v_i_conditional_mean_zero():
    rng = random.Random(13)
    for _ in range(20):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        f = random_table(rng, m, n)
        P = random_dense_measure(rng, m, n)
        for i in range(1, n + 1):
            for parent in words(m, i - 1):
                parent_mass = prefix_mass(P, parent)
                if parent_mass == 0:
                    continue
                total = rat(0)
                for z in range(m):
                    child = parent + (z,)
                    mass = prefix_mass(P, child)
                    if mass:
                        total += (mass / parent_mass) * v_i(f, P, child)
                assert total == 0


def test_v_bar_examples():
    P = Measure.uniform(2, 2)
    f = _indicator_11()
    assert _v_bar(f, P, 1) == rat(1, 4)
    assert _v_bar(f, P, 2) == rat(1, 2)
    assert _v_bar(constant(2, 2, 5), P, 1) == 0


def test_v_bar_matches_enumeration():
    rng = random.Random(14)
    for _ in range(15):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        f = random_table(rng, m, n)
        P = random_dense_measure(rng, m, n)
        for i in range(1, n + 1):
            best = rat(0)
            for y in words(m, i):
                if prefix_mass(P, y) == 0:
                    continue
                best = max(best, abs(v_i(f, P, y)))
            assert _v_bar(f, P, i) == best


def test_v_bar_lipschitz_product_bound():
    # 1-Lipschitz f under unit weights moves conditional means by at most 1.
    rng = random.Random(15)
    for _ in range(15):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        w = WeightVector((1,) * n)
        f = random_lipschitz_function(rng, m, n, w)
        P = random_product_measure(rng, m, n)
        for i in range(1, n + 1):
            assert _v_bar(f, P, i) <= 1


def test_martingale_profile_example():
    prof = martingale_profile(_indicator_11(), Measure.uniform(2, 2))
    assert prof.v_bars == (rat(1, 4), rat(1, 2))
    assert prof.d_squared == rat(5, 16)

    const_prof = martingale_profile(constant(2, 2, 9), Measure.uniform(2, 2))
    assert const_prof.v_bars == (0, 0) and const_prof.d_squared == 0


def test_martingale_profile_dominates_each_level():
    rng = random.Random(16)
    for _ in range(10):
        f = random_table(rng, 2, 3)
        P = random_dense_measure(rng, 2, 3)
        prof = martingale_profile(f, P)
        assert prof.d_squared >= max(v * v for v in prof.v_bars)


def test_martingale_profile_validation():
    with pytest.raises(ValueError):
        MartingaleProfile(rat(0), (rat(-1),))
    assert MartingaleProfile(rat(0), (rat(1, 2), rat(1, 3))).d_squared == rat(13, 36)


def test_translation_invariance_and_homogeneity():
    rng = random.Random(17)
    for _ in range(15):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        f = random_table(rng, m, n)
        P = random_dense_measure(rng, m, n)
        a = random_rational(rng, -3, 3)
        shifted = f.shift(a)
        scaled = scale(f, a)
        for i in range(1, n + 1):
            for y in words(m, i):
                if prefix_mass(P, y) == 0:
                    continue
                assert v_i(shifted, P, y) == v_i(f, P, y)
            assert _v_bar(scaled, P, i) == abs(rat(a)) * _v_bar(f, P, i)


def test_azuma_bound_values():
    assert abs(azuma_bound(2.0, 1.0) - 2.0 * math.exp(-2.0)) < 1e-15
    # Doubling t: bound(2t) = 2 * (bound(t)/2)^4.
    b1 = azuma_bound(1.5, 0.7)
    b2 = azuma_bound(3.0, 0.7)
    assert b2 == pytest.approx(2.0 * (b1 / 2.0) ** 4, rel=1e-12)
    with pytest.raises(ValueError):
        azuma_bound(0.0, 1.0)
    # d^2 = 0: f is constant almost surely, so its tail is 0.
    assert azuma_bound(1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        azuma_bound(1.0, -1.0)


def test_azuma_bound_when_both_squares_overflow():
    # t^2 and 2 d^2 are both inf; the exponent t^2 / (2 d^2) is 5e91.
    assert azuma_bound(1e200, 1e308) == 0.0
    # z = t / sqrt(d^2) is finite, z^2 is not: the bound is still a number.
    assert azuma_bound(sys.float_info.max, 1e308) == 0.0


@pytest.mark.parametrize(
    "v_bars,delta_w,lhs,rhs,holds,per_i_holds",
    [
        ((2, 1), (1, 1), 5, 2, False, (False, True)),
        ((1, 1), (2, rat(1, 2)), 2, rat(17, 4), True, (True, False)),
        ((2, rat(1, 2)), (2, rat(1, 2)), rat(17, 4), rat(17, 4), True, (True, True)),
    ],
)
def test_sumvi_report_derives_its_verdicts(v_bars, delta_w, lhs, rhs, holds, per_i_holds):
    # lhs = sum v_bar_i^2 and rhs = lipschitz^2 sum (Delta w)_i^2, lipschitz 1.
    numbers = {
        "v_bars": tuple(map(rat, v_bars)),
        "lhs": rat(lhs),
        "rhs": rat(rhs),
        "lipschitz": rat(1),
        "delta_w": tuple(map(rat, delta_w)),
    }
    report = SumViReport(**numbers)
    assert report.holds is holds and report.per_i_holds == per_i_holds
    with pytest.raises(TypeError):
        SumViReport(**numbers, holds=not holds)
    with pytest.raises(TypeError):
        SumViReport(**numbers, per_i_holds=(True, True))


def test_verify_sumvi_constant_function():
    report = verify_sumvi(constant(2, 2, 3), Measure.uniform(2, 2), WeightVector((1, 1)))
    assert report.lhs == report.rhs == 0
    assert report.holds and all(report.per_i_holds)


def test_verify_sumvi_distance_function_product_measure():
    rng = random.Random(18)
    for _ in range(10):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        w = WeightVector((1,) * n)
        anchor = tuple(rng.randrange(m) for _ in range(n))
        f = from_callable(m, n, lambda x: hamming_distance(x, anchor, w))
        P = random_product_measure(rng, m, n)
        report = verify_sumvi(f, P, w)
        assert report.rhs == n  # identity Delta, Lipschitz constant 1
        assert report.holds and all(report.per_i_holds)


def test_verify_sumvi_two_state_chain():
    report = verify_sumvi(
        from_callable(2, 2, lambda x: sum(x)), _chain(2), WeightVector((1, 1))
    )
    assert report.lipschitz == 1
    assert report.delta_w == (rat(9, 5), rat(1))
    assert report.rhs == rat(106, 25)
    assert report.lhs == rat(81, 50)  # enumerated by hand: both v_bars are 9/10
    assert report.v_bars == (rat(9, 10), rat(9, 10))
    assert report.holds and all(report.per_i_holds)


def test_chain_and_its_table_give_the_same_reports():
    # A chain reaches conditional_sums as its spec and delta_matrix as its
    # kernels; every report must equal the one on its expanded table.
    rng = random.Random(20)
    for _ in range(10):
        m, n = rng.choice((2, 3)), rng.choice((1, 2, 3))
        spec = random_markov_spec(rng, m, n)
        f, w = random_table(rng, m, n), random_weights(rng, n)
        table = expand_markov(spec)
        assert verify_sumvi(f, spec, w) == verify_sumvi(f, table, w)
        ts = [0.5, 2.0]
        assert concentration_bound(f, spec, w, ts) == concentration_bound(f, table, w, ts)
        assert martingale_profile(f, spec) == martingale_profile(f, table)


def _chain_with_zeros(rng, m, n):
    """A random chain with about a third of its law entries exactly 0.

    That often leaves a state that no positive-mass prefix reaches.
    """

    def law():
        while True:
            weights = [max(0, rng.randint(-4, 9)) for _ in range(m)]
            if sum(weights):
                return [Fraction(c, sum(weights)) for c in weights]

    return MarkovSpec(law(), [[law() for _ in range(m)] for _ in range(n - 1)])


def additive_chain_cases(seed, count):
    """(builtin, its table, chain, weights): both additive builtins on chains with zeros."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.choice((1, 2, 3)), rng.randint(1, 5)
        chain = _chain_with_zeros(rng, m, n)
        w = random_weights(rng, n)
        target = tuple(rng.randrange(m) for _ in range(n))
        for f in (Builtin("sum_of_symbols", m, n), Builtin("hamming_to", m, n, target, w)):
            yield f, f.table(), chain, w


def test_kernel_profile_matches_the_table_path_on_chains():
    # Seeded chains with null initial states, zero transition entries and
    # states no positive-mass prefix reaches, m = 1 included: the kernel
    # path must give the table path's rationals.
    zero_init = zero_entries = unreachable = 0
    for f, table, chain, w in additive_chain_cases(16, 150):
        assert kernel_terms(f, chain) is not None and kernel_terms(table, chain) is None
        profile = martingale_profile(f, chain)
        assert profile == martingale_profile(table, chain)
        P = expand_markov(chain)
        assert profile.mean == sum(map(mul, P.values, table.values), rat(0))
        assert lipschitz_constant(f, w) == lipschitz_constant(table, w)
        assert verify_sumvi(f, chain, w) == verify_sumvi(table, P, w)
        zero_init += 0 in chain.laws[0][0]
        zero_entries += any(0 in row for rows in chain.laws[1:] for row in rows)
        m, n = f.alphabet_size, f.arity
        unreachable += any(
            sum(p for x, p in zip(words(m, n), P.values) if x[i] == b) == 0
            for i in range(1, n)
            for b in range(m)
        )
    assert min(zero_init, zero_entries, unreachable) >= 50


def test_verify_sumvi_random_instances():
    rng = random.Random(19)
    for _ in range(40):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        f = random_table(rng, m, n)
        P = random_dense_measure(rng, m, n)
        w = random_weights(rng, n)
        report = verify_sumvi(f, P, w)
        assert report.holds and all(report.per_i_holds)


def test_concentration_bound_values():
    # n=1, unit weight, product measure, Lipschitz constant exactly 1.
    f = TableFunction(2, 1, (0, 1))
    P = Measure.uniform(2, 1)
    w = WeightVector((1,))
    (b,) = concentration_bound(f, P, w, [2.0]).bounds
    assert b == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    # Doubling t multiplies the exponent by 4.
    b1, b2 = concentration_bound(f, P, w, [1.25, 2.5]).bounds
    assert math.log(b2 / 2.0) == pytest.approx(4.0 * math.log(b1 / 2.0), rel=1e-9)

    assert concentration_bound(constant(2, 1, 4), P, w, [1.0]).bounds == (0.0,)
    with pytest.raises(ValueError):
        concentration_bound(f, P, w, [1.0, 0.0])


def test_dimension_mismatches_rejected():
    f = TableFunction(2, 2, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        conditional_sums(f, Measure.uniform(2, 3))
    with pytest.raises(ValueError):
        verify_sumvi(f, Measure.uniform(2, 2), WeightVector((1,)))
    with pytest.raises(ValueError):
        martingale_profile(f, Measure.uniform(2, 3))
