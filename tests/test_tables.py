"""The integer table paths against the rational oracles in table_oracle.py.

Inputs are seeded: tables with negative entries (also ones built from
numerators over a non-reduced denominator by scale and shift), measures
with null prefix blocks, Markov, product, point-mass and uniform measures,
a one-symbol alphabet (m = 1) and arity 0.  Every comparison is exact
equality of rationals or of integer counts.
"""

import random
from math import gcd

import pytest

import hammix.martingale as mg
import table_oracle as oracle
from hammix import selftest
from hammix.instances import (
    random_dense_measure,
    random_markov_spec,
    random_product_measure,
    random_rational,
    random_table,
    random_weights,
)
from hammix.lipschitz_lp import lipschitz_constant
from hammix.mixing import Measure, expand_markov
from hammix.montecarlo import SimulationConfig, empirical_tail
from hammix.psi import psi, psi_decomposition_rhs
from hammix.rational import rat
from hammix.words import TableFunction, project_numerators
from mixing_oracle import ZeroPrefixProbability, point_mass, prefix_mass, words

SHAPES = [(1, 0), (1, 3), (2, 0), (2, 1), (2, 4), (3, 0), (3, 3), (4, 2)]


def _tables(rng, m, n):
    k = random_table(rng, m, n)
    yield k
    yield -k
    yield oracle.scale(k, random_rational(rng, -3, 3))
    yield k.shift(random_rational(rng, -3, 3))
    yield oracle.constant(m, n, "-5/7")
    yield TableFunction.from_numerators(m, n, [rng.randint(-9, 9) for _ in range(m**n)], 12)


def _measures(rng, m, n):
    yield Measure.uniform(m, n)
    yield point_mass(m, n, tuple(rng.randrange(m) for _ in range(n)))
    if n > 0:
        yield random_dense_measure(rng, m, n, allow_zeros=True)
        yield expand_markov(random_markov_spec(rng, m, n))
        yield random_product_measure(rng, m, n)


def _cases(seed):
    rng = random.Random(seed)
    for m, n in SHAPES:
        for k in _tables(rng, m, n):
            yield rng, m, n, k


def _consistent(k):
    return all(v == rat(x, k.den) for v, x in zip(k.values, k.nums)) and k.den > 0


def test_table_format_numerators_match_values():
    for _, m, n, k in _cases(1):
        assert _consistent(k)
        assert k == TableFunction(m, n, k.values)
        assert k.total() == sum(k.values, rat(0))


def test_psi_projection_section_and_lipschitz_match_oracle():
    for rng, m, n, k in _cases(2):
        w = random_weights(rng, n)
        assert psi(w, k) == oracle.psi(w, k)
        assert lipschitz_constant(k, w) == oracle.lipschitz_constant(k, w)
        if n == 0:
            continue
        # The numerator operators psi and its decomposition run: the m-block
        # sum and the strided slice nums[y::m], over k's denominator.
        projected = TableFunction.from_numerators(m, n - 1, project_numerators(k.nums, m), k.den)
        assert projected == oracle.marginal_projection(k) and _consistent(projected)
        for y in range(m):
            section = TableFunction.from_numerators(m, n - 1, k.nums[y::m], k.den)
            assert section == oracle.y_section(k, y) and _consistent(section)
        assert psi_decomposition_rhs(w, k) == oracle.psi_decomposition_rhs(w, k)


def _pairs(seed):
    rng = random.Random(seed)
    for m, n in SHAPES:
        for P in _measures(rng, m, n):
            for f in (random_table(rng, m, n), -random_table(rng, m, n).shift("1/3")):
                yield rng, f, P


def test_cases_cover_null_prefixes():
    null_levels = 0
    for _, f, P in _pairs(3):
        null_levels += any(0 in masses for _, masses in mg.conditional_sums(f, P))
    assert null_levels >= 5


def test_martingale_profile_and_conditional_means_match_oracle():
    for _, f, P in _pairs(3):
        assert mg.martingale_profile(f, P) == oracle.martingale_profile(f, P)
        for i, (sums, masses) in enumerate(mg.conditional_sums(f, P)):
            for y, s, mass in zip(words(f.alphabet_size, i), sums, masses):
                assert mass == prefix_mass(P, y) * P.den
                if mass:
                    assert rat(s, f.den * mass) == oracle.conditional_expectation(f, P, y)
                else:
                    with pytest.raises(ZeroPrefixProbability):
                        oracle.conditional_expectation(f, P, y)


def test_criterion_8_structure_check_holds_and_sees_a_wrong_mean(monkeypatch):
    for rng, f, P in _pairs(4):
        assert selftest._martingale_structure_ok(rng, f, P)

    f, P = random_table(random.Random(5), 2, 3), Measure.uniform(2, 3)
    honest = mg.conditional_sums

    def off_by_one(g, Q):
        levels = honest(g, Q)
        sums, masses = levels[2]
        levels[2] = ([sums[0] + 1, *sums[1:]], masses)
        return levels

    monkeypatch.setattr(mg, "conditional_sums", off_by_one)
    assert not selftest._martingale_structure_ok(random.Random(6), f, P)


def test_criterion_8_expands_a_chain_once(builds):
    # Both sets of conditional sums, f's and its shift's, read one table.
    rng = random.Random(8)
    f, spec = random_table(rng, 2, 3), random_markov_spec(rng, 2, 3)
    assert selftest._martingale_structure_ok(rng, f, spec)
    assert (builds["expand_markov"], builds["conditional_sums"]) == (1, 2)


def test_empirical_tail_mean_and_counts_match_oracle():
    rng = random.Random(7)
    for m, n in [(1, 2), (2, 3), (3, 2)]:
        for P in _measures(rng, m, n):
            f = random_table(rng, m, n, max_denominator=2)
            # Half-integer thresholds meet deviations exactly, so the strict
            # comparison is exercised.
            cfg = SimulationConfig(300, rng.randrange(2**64), (0.5, 1.0, 1.5, 2.5))
            report = empirical_tail(f, P, cfg)
            mean, counts = oracle.tail_mean_and_counts(f, P, cfg)
            assert report.mean == mean
            assert [row.exceed_count for row in report.rows] == counts


def test_measure_builds_run_the_table_constructor(monkeypatch):
    calls = []
    original = TableFunction.__dict__["__post_init__"]

    def counted(self):
        calls.append(type(self).__name__)
        original(self)

    monkeypatch.setattr(TableFunction, "__post_init__", counted)
    Measure(2, 1, ("1/4", "3/4"))
    Measure.uniform(2, 2)
    assert calls == ["Measure", "Measure"]
    with pytest.raises(ValueError):
        Measure(2, 1, ("1/2", "1/3"))
    with pytest.raises(ValueError):
        Measure(2, 1, ("3/2", "-1/2"))


def test_table_equality_and_hash_follow_values():
    for rng, m, n, k in _cases(31):
        c = rng.randint(2, 9)
        a = random_rational(rng, -3, 3)
        same = [
            TableFunction.from_numerators(m, n, [c * x for x in k.nums], c * k.den),
            TableFunction(m, n, k.values),
            -(-k),
            oracle.scale(oracle.scale(k, c), rat(1, c)),
            k.shift(a).shift(-a),
        ]
        assert gcd(k.den, *k.nums) == 1
        for t in same:
            assert t == k and hash(t) == hash(k)
            assert (t.nums, t.den) == (k.nums, k.den)
        pool = [k, -k, oracle.scale(k, a), k.shift(a), oracle.scale(k, c), oracle.constant(m, n, a), *same]
        for t in pool:
            assert gcd(t.den, *t.nums) == 1
            for u in pool:
                assert (t == u) == (t.values == u.values)
                if t == u:
                    assert hash(t) == hash(u)
