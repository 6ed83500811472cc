import functools
import math
import random
import time
from operator import mul

import pytest

import mixing_oracle
import numpy as np

from hammix.instances import (
    random_dense_measure,
    random_markov_spec,
    random_product_measure,
)
from hammix import mixing
from hammix.mixing import (
    DeltaMatrix,
    MarkovSpec,
    Measure,
    delta_matrix,
    eta_bar,
    expand_markov,
    operator_norm_2,
)
from mixing_oracle import (
    ZeroPrefixProbability,
    block_mass,
    conditional_law,
    eta,
    point_mass,
    prefix_block,
    prefix_mass,
    tv_distance,
    weighted_norm_sq,
    words,
)
from hammix.rational import rat, rat_from_float
from hammix.words import TableFunction, WeightVector


def _chain(n):
    rows = ((rat("9/10"), rat("1/10")), (rat("1/10"), rat("9/10")))
    return MarkovSpec((rat("1/2"), rat("1/2")), (rows,) * (n - 1))


def test_measure_validation():
    with pytest.raises(ValueError):
        Measure(2, 1, (rat(1, 2), rat(1, 3)))
    with pytest.raises(ValueError):
        Measure(2, 1, (rat(3, 2), rat(-1, 2)))
    with pytest.raises(ValueError):
        Measure(2, 2, (rat(1),))
    assert prefix_mass(Measure.uniform(3, 2), (0,)) == rat(1, 3)
    assert point_mass(2, 2, (1, 0)).probabilities == (0, 0, 1, 0)


def test_markov_spec_validation():
    with pytest.raises(ValueError, match="initial distribution must sum"):
        MarkovSpec((rat(1, 2), rat(1, 3)), ())
    with pytest.raises(ValueError, match="row 0 must sum"):
        MarkovSpec((rat(1),), (((rat(1, 2),),),))
    with pytest.raises(ValueError, match="matrix 0 must have 2 rows"):
        MarkovSpec((rat(1, 2), rat(1, 2)), (((rat(1), rat(0)),),))
    half = ("1/2", "1/2")
    for init, rows, message in [
        ((), (), "initial distribution must be nonempty"),
        (("3/2", "-1/2"), (), "initial distribution has a negative entry"),
        (half, (half, ("3/2", "-1/2")), "transition matrix 0 row 1 has a negative entry"),
        (half, (half, ("1/2",)), "transition matrix 0 row 1 must have 2 entries"),
        (half, (("1/2", "1/4"), ("x",)), "transition matrix 0 row 0 must sum"),
    ]:
        with pytest.raises(ValueError, match=message):
            MarkovSpec(init, (rows,) if rows else ())


def test_markov_spec_from_ratio_columns():
    # One (nums, dens) pair per law row, as the problem-file reader gives.
    spec = MarkovSpec.from_ratios(([1, 2], [3, 3]), [[([1, 1], [2, 2]), ([0, 5], [1, 5])]])
    assert spec == MarkovSpec(("1/3", "2/3"), ((("1/2", "1/2"), ("0", "1")),))
    with pytest.raises(ValueError, match="transition matrix 0 row 1 must have 2 entries"):
        MarkovSpec.from_ratios(([1, 1], [2, 2]), [[([1, 0], [1, 1]), ([1], [1])]])
    with pytest.raises(ValueError, match="transition matrix 0 row 0 must sum"):
        MarkovSpec.from_ratios(([1, 1], [2, 2]), [[([1, 1], [2, 4]), ([1, 0], [1, 1])]])


def test_expand_markov_n1_is_initial():
    spec = MarkovSpec((rat(1, 4), rat(3, 4)), ())
    assert expand_markov(spec).probabilities == (rat(1, 4), rat(3, 4))


def test_expand_markov_two_state_example():
    P = expand_markov(_chain(2))
    assert P.probabilities == (rat(9, 20), rat(1, 20), rat(1, 20), rat(9, 20))


def test_expand_markov_uniform():
    uniform_t = ((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2)))
    spec = MarkovSpec((rat(1, 2), rat(1, 2)), (uniform_t, uniform_t))
    assert expand_markov(spec) == Measure.uniform(2, 3)


def _oracle_chains(rng):
    """Chains with zero entries and with rows over unequal denominators.

    Entries are written unreduced ("2/4", "6/10"); rows of one matrix use
    different denominators, so its common denominator carries factors that
    the final gcd must take out again.
    """
    rows = [("1", "0"), ("0", "1"), ("2/4", "2/4"), ("1/3", "2/3"), ("6/10", "4/10"),
            ("1/6", "5/6"), ("3/12", "9/12")]
    for n in (1, 2, 3, 5):
        for _ in range(6):
            init = rng.choice(rows)
            transitions = tuple(tuple(rng.choice(rows) for _ in range(2)) for _ in range(n - 1))
            yield MarkovSpec(init, transitions)
    for m, n in ((1, 3), (3, 4), (4, 3)):
        for _ in range(4):
            yield random_markov_spec(rng, m, n)
    three = (("0", "1/2", "1/2"), ("1/3", "0", "2/3"), ("0", "0", "1"))
    yield MarkovSpec(("1/5", "0", "4/5"), (three, three, three))


def test_expand_markov_matches_rational_oracle():
    for spec in _oracle_chains(random.Random(17)):
        P, expected = expand_markov(spec), mixing_oracle.expand_markov(spec)
        assert (P.nums, P.den) == (expected.nums, expected.den)
        assert P.probabilities == expected.probabilities
        assert P._cum == expected._cum


def test_conditional_law_product_measure_is_marginal():
    rng = random.Random(2)
    P = random_product_measure(rng, 2, 3)
    # Under independence the conditional law of the tail never depends on
    # the prefix.
    for j in (2, 3):
        laws = {conditional_law(P, prefix, j) for prefix in words(2, j - 1)}
        assert len(laws) == 1
        shorter = {conditional_law(P, prefix, j) for prefix in words(2, 1)} if j == 3 else laws
        assert shorter == laws


def test_conditional_law_markov_row():
    P = expand_markov(_chain(2))
    assert conditional_law(P, (0,), 2) == (rat(9, 10), rat(1, 10))
    assert conditional_law(P, (1,), 2) == (rat(1, 10), rat(9, 10))


def test_conditional_law_last_symbol_by_direct_normalization():
    rng = random.Random(3)
    P = random_dense_measure(rng, 3, 3, allow_zeros=False)
    for prefix in words(3, 2):
        law = conditional_law(P, prefix, 3)
        lo, hi = prefix_block(P, prefix)
        mass = block_mass(P, lo, hi)
        direct = tuple(P.probabilities[lo + s] / mass for s in range(3))
        assert law == direct
        assert sum(law, rat(0)) == 1


def test_conditional_law_null_prefix_raises():
    P = point_mass(2, 2, (0, 0))
    with pytest.raises(ZeroPrefixProbability):
        conditional_law(P, (1,), 2)
    with pytest.raises(ValueError):
        conditional_law(P, (0,), 3)


def test_tv_distance():
    assert tv_distance((rat(1, 2), rat(1, 2)), (rat(1, 2), rat(1, 2))) == 0
    assert tv_distance((rat(1), rat(0)), (rat(0), rat(1))) == 1
    assert tv_distance((rat(9, 10), rat(1, 10)), (rat(1, 10), rat(9, 10))) == rat(4, 5)
    with pytest.raises(ValueError):
        tv_distance((rat(1),), (rat(1, 2), rat(1, 2)))


def test_eta_examples():
    rng = random.Random(4)
    product_P = random_product_measure(rng, 2, 3)
    for j in (2, 3):
        assert eta(product_P, 1, j, (), 0, 1) == 0

    P = expand_markov(_chain(2))
    assert eta(P, 1, 2, (), 0, 1) == rat(4, 5)
    assert eta(P, 1, 2, (), 1, 0) == rat(4, 5)  # symmetric in the swap
    assert eta(P, 1, 2, (), 0, 0) == 0

    with pytest.raises(ValueError):
        eta(P, 1, 2, (0,), 0, 1)  # past must have length i-1
    with pytest.raises(ValueError):
        eta(P, 2, 2, (0,), 0, 1)


def test_eta_symmetric_and_bounded_on_random_measures():
    rng = random.Random(44)
    for _ in range(10):
        P = random_dense_measure(rng, 2, 3, allow_zeros=False)
        for i in (1, 2):
            for j in range(i + 1, 4):
                for y in words(2, i - 1):
                    value = eta(P, i, j, y, 0, 1)
                    assert value == eta(P, i, j, y, 1, 0)
                    assert 0 <= value <= 1


def test_eta_null_prefix_raises():
    P = point_mass(2, 2, (0, 1))
    with pytest.raises(ZeroPrefixProbability):
        eta(P, 1, 2, (), 0, 1)


def test_eta_bar_chain_ground_truth():
    P2 = _chain(2)
    assert eta_bar(P2, 1, 2) == rat(4, 5)

    P3 = _chain(3)
    assert eta_bar(P3, 1, 2) == rat(4, 5)
    assert eta_bar(P3, 2, 3) == rat(4, 5)
    # Two-step mixing: total variation between the rows of T^2.
    assert eta_bar(P3, 1, 3) == rat(16, 25)


def test_eta_bar_product_is_zero():
    rng = random.Random(5)
    for _ in range(5):
        P = random_product_measure(rng, rng.choice((2, 3)), 3)
        for i in range(1, 3):
            for j in range(i + 1, 4):
                assert eta_bar(P, i, j) == 0


def test_eta_bar_skips_null_prefixes():
    # Only one admissible symbol after the forced first coordinate: the max
    # ranges over an empty pair set and must be 0, not an error.
    P = point_mass(2, 3, (0, 1, 0))
    assert eta_bar(P, 1, 2) == 0
    assert eta_bar(P, 2, 3) == 0


def test_eta_bounded_in_unit_interval():
    rng = random.Random(6)
    for _ in range(20):
        P = random_dense_measure(rng, 2, 3)
        for i in (1, 2):
            for j in range(i + 1, 4):
                value = eta_bar(P, i, j)
                assert 0 <= value <= 1


def test_delta_matrix_examples():
    rng = random.Random(7)
    assert delta_matrix(random_product_measure(rng, 2, 3)) == DeltaMatrix.identity(3)

    P2 = _chain(2)
    assert delta_matrix(P2) == DeltaMatrix(((5, 4), (5,)), 5)
    assert delta_matrix(P2).entries == ((1, rat(4, 5)), (0, 1))

    P3 = _chain(3)
    assert delta_matrix(P3) == DeltaMatrix(((25, 20, 16), (25, 20), (25,)), 25)
    assert delta_matrix(P3) == mixing_oracle.delta_from_entries(
        ((1, rat(4, 5), rat(16, 25)), (0, 1, rat(4, 5)), (0, 0, 1))
    )


def test_delta_matrix_validation():
    with pytest.raises(ValueError, match="row 0 has 3 entries"):
        DeltaMatrix(((5, 4, 0), (5,)), 5)
    with pytest.raises(ValueError, match="row 1 has 0 entries"):
        DeltaMatrix(((5, 4), ()), 5)
    with pytest.raises(ValueError, match="diagonal"):
        DeltaMatrix(((5, 4), (4,)), 5)
    with pytest.raises(ValueError, match=r"lie in \[0,1\]"):
        DeltaMatrix(((5, 6), (5,)), 5)
    with pytest.raises(ValueError, match=r"lie in \[0,1\]"):
        DeltaMatrix(((5, -1), (5,)), 5)
    with pytest.raises(ValueError, match="denominator"):
        DeltaMatrix(((0, 0), (0,)), 0)
    # The rational builder also refuses a nonzero entry below the diagonal.
    with pytest.raises(ValueError, match="below the diagonal"):
        mixing_oracle.delta_from_entries(((1, 0), (rat(1, 2), 1)))
    # A form not in lowest terms is reduced, so equal matrices compare equal.
    reduced = DeltaMatrix(((10, 8), (10,)), 10)
    assert reduced == DeltaMatrix(((5, 4), (5,)), 5)
    assert (reduced.rows, reduced.den) == (((5, 4), (5,)), 5)
    assert hash(reduced) == hash(DeltaMatrix(((5, 4), (5,)), 5))


def _row_values(row):
    """The rationals of an eta_bar row given as (numerators, denominator)."""
    nums, den = row
    return [rat(x, den) for x in nums]


def _lowest_terms_cases():
    """Seeded dense measures with a null block and chains with zero transitions, m <= 3, n <= 8."""
    rng = random.Random(26)
    for _ in range(20):
        yield _null_block_measure(rng, rng.choice((2, 3)), rng.randint(2, 8))
        yield _chain_with_zeros(rng, rng.choice((2, 3)), rng.randint(1, 8))


def test_delta_matrix_and_its_rows_are_in_lowest_terms():
    # Each row comes reduced by its own gcd, and the matrix is over the lcm
    # of those denominators, which is its entries' least common denominator.
    chain_rows_reduced = 0
    for P in _lowest_terms_cases():
        is_chain = isinstance(P, MarkovSpec)
        for i in range(1, P.arity + 1):
            nums, den = (mixing._chain_eta_row if is_chain else mixing._eta_bar_row)(P, i)
            assert math.gcd(den, *nums) == 1
            assert den == math.lcm(*(v.denominator for v in _row_values((nums, den))))
            chain_rows_reduced += is_chain and den < 2 * math.prod(P.dens[i:])
        d = delta_matrix(P)
        assert math.gcd(d.den, *(v for row in d.rows for v in row)) == 1
        assert d.den == math.lcm(*(v.denominator for row in d.entries for v in row))
    # The chains' rows are computed over 2 dens[i]...dens[n-1]; some must reduce.
    assert chain_rows_reduced


def test_delta_apply_and_norm_sq():
    d = DeltaMatrix(((5, 4), (5,)), 5)
    w = WeightVector((1, 1))
    assert d.apply(w) == (rat(9, 5), rat(1))
    assert weighted_norm_sq(d, w) == rat(106, 25)
    # Independent recomputation of ||Delta w||^2 entry by entry.
    manual = sum(
        (sum((d.entries[i][j] * w[j] for j in range(2)), rat(0)) ** 2 for i in range(2)),
        rat(0),
    )
    assert manual == rat(106, 25)


def test_delta_apply_matches_the_entrywise_product():
    rng = random.Random(27)
    for P in _lowest_terms_cases():
        d = delta_matrix(P)
        w = WeightVector([rat(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d.size)])
        expected = tuple(sum(map(mul, row, w), rat(0)) for row in d.entries)
        assert d.apply(w) == expected


def test_operator_norm_identity():
    for n in (1, 2, 3, 4, 7):
        assert operator_norm_2(DeltaMatrix.identity(n)) == 1.0


def test_operator_norm_of_the_empty_matrix_is_zero():
    # Arity 0: delta_matrix gives the 0x0 matrix, whose norm is 0.
    assert delta_matrix(Measure.uniform(2, 0)) == DeltaMatrix.identity(0)
    assert operator_norm_2(DeltaMatrix.identity(0)) == 0.0


def test_operator_norm_2x2_quadratic_oracle():
    d = DeltaMatrix(((5, 4), (5,)), 5)
    # Largest eigenvalue of D^T D = ((1, 4/5), (4/5, 41/25)) by the
    # quadratic formula; its square root is the singular value.
    trace = 1.0 + 41.0 / 25.0
    det = 1.0 * (41.0 / 25.0) - 0.8 * 0.8
    lam_max = (trace + math.sqrt(trace * trace - 4.0 * det)) / 2.0
    assert abs(operator_norm_2(d) - math.sqrt(lam_max)) <= 1e-9


def _is_psd(a):
    """Whether the symmetric rational matrix a is positive semidefinite.

    Symmetric elimination (LDL^T) in exact arithmetic: every pivot must be
    nonnegative, and a zero pivot needs a zero rest of its row.
    """
    a = [list(row) for row in a]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot < 0 or (pivot == 0 and any(a[k][k + 1 :])):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    return True


def _certifies(d, r):
    """Whether r^2 I - D^T D is positive semidefinite, that is r >= ||D||_2, exactly."""
    cols = list(zip(*d.entries))
    r_sq = rat_from_float(r) ** 2
    return _is_psd(
        [
            [(r_sq if i == j else 0) - sum(map(mul, ci, cj), rat(0)) for j, cj in enumerate(cols)]
            for i, ci in enumerate(cols)
        ]
    )


def _null_block_measure(rng, m, n):
    """A random dense measure with one prefix block (length 1..n-1) zeroed."""
    nums = [rng.randint(0, 9) for _ in range(m**n)]
    block = m ** (n - rng.randint(1, n - 1))
    lo = block * rng.randrange(m**n // block)
    nums[lo : lo + block] = [0] * block
    nums[0 if lo else -1] += 1  # keep the total positive
    return Measure.from_numerators(m, n, nums, sum(nums))


def _norm_cases():
    rng = random.Random(22)
    for _ in range(12):
        yield delta_matrix(_null_block_measure(rng, rng.choice((2, 3)), rng.randint(2, 5)))
    for _ in range(6):
        yield delta_matrix(random_product_measure(rng, rng.choice((2, 3)), rng.randint(1, 5)))
    for _ in range(12):
        yield delta_matrix(random_markov_spec(rng, rng.choice((2, 3, 4)), rng.randint(2, 8)))
    for n in (1, 2, 5):
        yield DeltaMatrix.identity(n)
    yield DeltaMatrix(((10**7, 0, 0), (10**7, 1), (10**7,)), 10**7)


def test_operator_norm_is_certified_in_exact_arithmetic():
    for d in _norm_cases():
        r = operator_norm_2(d)
        svd = np.linalg.norm(np.array([[float(v) for v in row] for row in d.entries]), 2)
        assert _certifies(d, r)
        assert abs(r - svd) <= 1e-9
        # The check can fail: a value just below the norm is refused.
        assert not _certifies(d, svd * (1 - 1e-6))


def _two_blocks_and_a_free_coordinate():
    """Two 5x5 all-ones triangles, one entry of the second lowered by 1e-9, then a 1."""
    entries = [[0] * 11 for _ in range(11)]
    for lo in (0, 5):
        for i in range(lo, lo + 5):
            entries[i][i : lo + 5] = [1] * (lo + 5 - i)
    entries[5][9] = 1 - rat(1, 10**9)
    entries[10][10] = 1
    return mixing_oracle.delta_from_entries(entries)


def test_operator_norm_at_the_step_cap_is_certified_and_within_the_schur_bound(monkeypatch):
    # D^T D has nearly equal top eigenvalues on each matrix, so the float
    # iteration does not meet its gap and stops at the cap; the bound for
    # the x it reached is still certified.  On the last one the free
    # coordinate's entry of x shrinks about twelvefold a step and would
    # reach 0.0, voiding the bound, without the floor.
    half, e = rat(1, 2), rat(1, 2_000_000)
    rows = ((half + e, half - e), (half - e, half + e))
    near_independent = MarkovSpec((half, half), tuple(rows for _ in range(19)))
    cases = (
        DeltaMatrix(((10**7, 0, 0), (10**7, 1), (10**7,)), 10**7),
        delta_matrix(near_independent),
        _two_blocks_and_a_free_coordinate(),
    )
    for d in cases:
        sums = []
        monkeypatch.setattr(mixing, "reduce", lambda *args: sums.append(1) or functools.reduce(*args))
        r = operator_norm_2(d)
        monkeypatch.undo()
        # A float step is 2n + 2 sums: D x, D^T (D x) and the Rayleigh quotient.
        assert len(sums) <= mixing._OPNORM_MAX_STEPS * (2 * d.size + 2)
        assert _certifies(d, r)
        # No larger than the exact Schur bound sqrt(||D||_1 ||D||_inf),
        # rounded up to a float.
        schur = max(map(sum, zip(*d.entries))) * max(map(sum, d.entries))
        schur_root = math.sqrt(float(schur))
        while rat_from_float(schur_root) ** 2 < schur:
            schur_root = math.nextafter(schur_root, math.inf)
        assert r <= schur_root


def test_operator_norm_dominates_weighted_action():
    rng = random.Random(8)
    for _ in range(10):
        P = random_dense_measure(rng, 2, 3, allow_zeros=False)
        d = delta_matrix(P)
        w = WeightVector([rat(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(3)])
        lhs = math.sqrt(float(weighted_norm_sq(d, w)))
        w_norm = math.sqrt(float(sum((x * x for x in w), rat(0))))
        assert lhs <= operator_norm_2(d) * w_norm + 1e-9


def test_conditional_laws_sum_to_one():
    rng = random.Random(9)
    for _ in range(10):
        P = random_dense_measure(rng, 2, 3)
        for i in (1, 2):
            for prefix in words(2, i):
                if prefix_mass(P, prefix) == 0:
                    continue
                law = conditional_law(P, prefix, i + 1)
                assert sum(law, rat(0)) == 1


def _sparse_measure(rng, m, n):
    """Dense measure with about half its cells exactly null."""
    while True:
        weights = [rng.choice((0, 0, 0, rng.randint(1, 9))) for _ in range(m**n)]
        if sum(weights):
            return Measure(m, n, tuple(rat(c, sum(weights)) for c in weights))


def _chain_with_zeros(rng, m, n):
    """Chain whose initial law and transition rows have null entries."""

    def distribution():
        while True:
            weights = [rng.choice((0, rng.randint(1, 5))) for _ in range(m)]
            if sum(weights):
                return tuple(rat(c, sum(weights)) for c in weights)

    return MarkovSpec(
        distribution(), tuple(tuple(distribution() for _ in range(m)) for _ in range(n - 1))
    )


def _forced_second_symbol(rng, m, n):
    """Dense measure on which X_2 = 0 almost surely, given any past."""
    weights = [rng.randint(1, 9) if (k // m ** (n - 2)) % m == 0 else 0 for k in range(m**n)]
    return Measure(m, n, tuple(rat(c, sum(weights)) for c in weights))


def _oracle_cases():
    rng = random.Random(20)
    shapes = [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 6)] + [(4, n) for n in range(1, 4)]
    for m, n in shapes:
        for _ in range(2):
            yield f"dense0-m{m}n{n}", random_dense_measure(rng, m, n)
            yield f"sparse-m{m}n{n}", _sparse_measure(rng, m, n)
    for m, n in ((2, 6), (3, 4), (4, 3)):
        for _ in range(3):
            yield f"markov0-m{m}n{n}", _chain_with_zeros(rng, m, n)
        yield f"markov-m{m}n{n}", random_markov_spec(rng, m, n)
        yield f"product-m{m}n{n}", random_product_measure(rng, m, n)
        word = tuple(rng.randrange(m) for _ in range(n))
        yield f"point-m{m}n{n}", point_mass(m, n, word)
    for m, n in ((2, 4), (3, 3)):
        yield f"forced-m{m}n{n}", _forced_second_symbol(rng, m, n)


ORACLE_CASES = list(_oracle_cases())


def _table(P):
    """The dense measure of a chain or measure, for the oracles that read tables."""
    return expand_markov(P) if isinstance(P, MarkovSpec) else P


@pytest.mark.parametrize("P", [P for _, P in ORACLE_CASES], ids=[name for name, _ in ORACLE_CASES])
def test_delta_matrix_matches_rational_oracle(P):
    # Chains run the kernel path, measures the dense one.
    table = _table(P)
    assert delta_matrix(P) == mixing_oracle.delta_matrix(table)
    for i in range(1, P.arity + 1):
        for j in range(i + 1, P.arity + 1):
            assert eta_bar(P, i, j) == mixing_oracle.eta_bar(table, i, j)


def _product_with_null_symbols():
    """Product measure whose marginals give some symbols zero mass."""
    laws = (("1/3", "0", "2/3"), ("0", "1/2", "1/2"), ("1/4", "3/4", "0"), ("1/2", "0", "1/2"))
    laws = [tuple(map(rat, law)) for law in laws]
    return Measure(3, 4, tuple(math.prod(law[s] for law, s in zip(laws, x)) for x in words(3, 4)))


DENSE_ROW_CASES = [
    *((name, _table(P)) for name, P in ORACLE_CASES if isinstance(P, MarkovSpec)),
    ("product0-m3n4", _product_with_null_symbols()),
]


@pytest.mark.parametrize("P", [P for _, P in DENSE_ROW_CASES], ids=[name for name, _ in DENSE_ROW_CASES])
def test_dense_eta_bar_rows_match_rational_oracle(P):
    # The dense measures of ORACLE_CASES meet the oracle above; here the
    # dense row kernel also runs on every chain's table and on a product
    # whose null symbols leave zero-mass blocks under positive pasts.
    n = P.arity
    for i in range(1, n + 1):
        expected = [mixing_oracle.eta_bar(P, i, j) for j in range(i + 1, n + 1)]
        assert _row_values(mixing._eta_bar_row(P, i)) == expected


NULL_BLOCK_CASES = [
    (f"dense0-m{m}n{n}", mixing_oracle.null_block_measure(random.Random(10 * m + n), m, n))
    for m, n in ((2, 2), (2, 7), (2, 9), (3, 4), (3, 5), (4, 3), (4, 4))
]


@pytest.mark.parametrize("P", [P for _, P in NULL_BLOCK_CASES], ids=[name for name, _ in NULL_BLOCK_CASES])
def test_dense_rows_match_the_per_past_oracle(P):
    # Rows with more pasts than block cells are read suffix-major, the
    # others past by past; both give the per-past integer pass's rationals,
    # on measures with null cells and null prefix blocks.
    m, n = P.alphabet_size, P.arity
    assert any(P._cum[lo] == P._cum[lo + m] for lo in range(0, len(P.nums), m))
    if n >= 4:
        assert any(m ** (i - 1) > m ** (n - i) for i in range(1, n))
    for i in range(1, n + 1):
        assert _row_values(mixing._eta_bar_row(P, i)) == mixing_oracle.eta_bar_row_per_past(P, i)


def test_largest_ratio_breaks_float_ties_exactly():
    # (2^60 + 1) / 2^60 and (2^60 + 2) / 2^60 are both the float 1.0.
    big = 2**60
    assert mixing._largest_ratio([big + 1, big + 2, 1], [big, big, 3]) == (big + 2, big)
    assert mixing._largest_ratio([big + 2, big + 1], [big, big]) == (big + 2, big)
    assert mixing._largest_ratio([0, 0], [5, 1]) == (0, 1)


def test_product_with_null_symbols_has_identity_delta():
    P = _product_with_null_symbols()
    assert any(prefix_mass(P, prefix) == 0 for prefix in words(3, 2))
    assert delta_matrix(P) == DeltaMatrix.identity(4)


def test_oracle_cases_cover_null_prefixes_and_forced_positions():
    # The comparison above is only as strong as its inputs: some must have
    # null prefix blocks, and on the forced measures row 2 must be all 0
    # while row 1 is not.
    assert any(
        prefix_mass(_table(P), prefix) == 0
        for name, P in ORACLE_CASES
        if name.startswith("markov0")
        for prefix in words(P.alphabet_size, 2)
    )
    for name, P in ORACLE_CASES:
        if name.startswith("forced"):
            entries = delta_matrix(P).entries
            assert all(v == 0 for v in entries[1][2:])
            assert any(v > 0 for v in entries[0][1:])


def test_eta_bar_rejects_out_of_range_pairs():
    for P in (_chain(3), expand_markov(_chain(3))):
        for i, j in ((0, 1), (2, 2), (3, 2), (1, 4)):
            with pytest.raises(ValueError):
                eta_bar(P, i, j)


def _kernel_chains():
    """(name, spec) for chains that stress the kernel path's admissibility rules."""
    rng = random.Random(41)
    for m, n in ((1, 1), (1, 4), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 5), (3, 4), (4, 3)):
        for k in range(6):
            yield f"zeros-m{m}n{n}-{k}", _chain_with_zeros(rng, m, n)
        yield f"full-m{m}n{n}", random_markov_spec(rng, m, n)
    for k, spec in enumerate(_oracle_chains(random.Random(17))):
        yield f"unreduced-{k}", spec
    # State 2 is null at position 1 and unreachable at position 2, but its
    # row of T_2 charges 1 and 2, whose rows of T_3 are TV distance 1 apart.
    half = ("1/2", "1/2", "0")
    split = (("1", "0", "0"), ("1", "0", "0"), ("0", "0", "1"))
    yield "unreachable", MarkovSpec(
        half, ((half, half, ("0", "0", "1")), (half, half, ("0", "1/2", "1/2")), split)
    )
    # Every state moves to 1 at step 2, so X_3 is forced.
    spread = (("1/4", "1/4", "1/2"), ("2/3", "1/3", "0"), ("1", "0", "0"))
    forced = (("0", "1", "0"),) * 3
    yield "forced", MarkovSpec(("1/3", "1/3", "1/3"), (spread, forced, spread))


KERNEL_CHAINS = list(_kernel_chains())


@pytest.mark.parametrize("spec", [s for _, s in KERNEL_CHAINS], ids=[name for name, _ in KERNEL_CHAINS])
def test_kernel_delta_matches_dense_kernel_and_oracle(spec):
    dense = expand_markov(spec)
    kernel = delta_matrix(spec)
    assert kernel == delta_matrix(dense)
    assert kernel == mixing_oracle.delta_matrix(dense)
    for i in range(1, spec.arity + 1):
        for j in range(i + 1, spec.arity + 1):
            assert eta_bar(spec, i, j) == eta_bar(dense, i, j) == kernel.entries[i - 1][j - 1]


def test_kernel_chains_cover_the_admissibility_cases():
    specs = dict(KERNEL_CHAINS)
    assert any(0 in spec.initial for spec in specs.values())
    assert any(0 in row for spec in specs.values() for rows in spec.transitions for row in rows)
    assert {1, 2} <= {spec.arity for spec in specs.values()}
    assert any(spec.alphabet_size == 1 for spec in specs.values())
    unreachable = expand_markov(specs["unreachable"])
    assert prefix_mass(unreachable, (0, 2)) == prefix_mass(unreachable, (1, 2)) == 0
    assert eta_bar(specs["unreachable"], 3, 4) == 0  # 1 if state 2 were counted
    forced = delta_matrix(specs["forced"]).entries
    assert forced[0][1] > 0
    assert forced[0][2:] == forced[1][2:] == (0, 0) and forced[2][3] == 0


def _dobrushin(matrix):
    """theta(T): the largest TV distance between two rows of T."""
    return max((tv_distance(a, b) for a in matrix for b in matrix), default=rat(0))


def test_eta_bar_within_dobrushin_product():
    for name, spec in KERNEL_CHAINS:
        entries = delta_matrix(spec).entries
        n = spec.arity
        for i in range(1, n + 1):
            theta = rat(1)
            for j in range(i + 1, n + 1):
                theta *= _dobrushin(spec.transitions[j - 2])
                assert entries[i - 1][j - 1] <= theta, (name, i, j)


def test_kernel_delta_of_a_long_chain_builds_no_table(monkeypatch):
    rows = (("1/2", "1/3", "1/6"), ("1/5", "3/5", "1/5"), ("0", "1/4", "3/4"))
    spec = MarkovSpec(("1/3", "1/3", "1/3"), (rows,) * 99)

    def no_table(self):
        raise AssertionError("a table was built")

    monkeypatch.setattr(TableFunction, "__post_init__", no_table)
    start = time.process_time()
    delta = delta_matrix(spec)
    assert time.process_time() - start < 1.0
    assert delta.size == 100
    theta = _dobrushin(spec.transitions[0])
    assert delta.entries[0][1] == theta  # every pair is admissible at i = 1
    assert 0 < delta.entries[0][99] <= theta**99


def test_reachable_states_are_the_positive_mass_prefixes():
    # Entry t of MarkovSpec.reachable must hold exactly the last symbols of
    # the positive-mass prefixes of length t of the expanded chain, on
    # chains with null initial states and zero transition entries.
    rng = random.Random(43)
    cases = [_chain_with_zeros(rng, m, n) for m in (1, 2, 3) for n in (1, 2, 3, 5) for _ in range(8)]
    cases += [spec for name, spec in KERNEL_CHAINS if name in ("unreachable", "forced")]
    pruned = 0
    for spec in cases:
        P = expand_markov(spec)
        m, n = spec.alphabet_size, spec.arity
        assert len(spec.reachable) == n and spec.reachable[0] == (0,)
        for t in range(1, n):
            expected = sorted({y[-1] for y in words(m, t) if prefix_mass(P, y) > 0})
            assert list(spec.reachable[t]) == expected
            pruned += len(expected) < m
    assert pruned >= 10


@pytest.mark.parametrize("m, n", [(1, 3), (2, 1), (2, 4), (3, 3), (2, 10), (4, 2)])
def test_measure_generators_match_rational_oracles(m, n):
    # The integer generators must build the oracles' measures from the same
    # draws, leaving the generator in the same state.
    builders = [(random_product_measure, mixing_oracle.random_product_measure, {})] + [
        (random_dense_measure, mixing_oracle.random_dense_measure, {"allow_zeros": zeros})
        for zeros in (True, False)
    ]
    for seed in range(5):
        for build, oracle, options in builders:
            ours, theirs = random.Random(seed), random.Random(seed)
            P, Q = build(ours, m, n, **options), oracle(theirs, m, n, **options)
            assert P == Q and P.values == Q.values
            assert ours.getstate() == theirs.getstate()
