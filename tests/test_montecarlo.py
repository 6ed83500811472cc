import math

import random

import pytest

import mixing_oracle
import table_oracle
from test_martingale import additive_chain_cases
from hammix import montecarlo
from hammix.instances import random_dense_measure, random_markov_spec, random_table
from hammix.martingale import concentration_bound, martingale_profile
from hammix.mixing import MarkovSpec, Measure, expand_markov
from hammix.montecarlo import SimulationConfig, empirical_tail, sample_word
from hammix.rational import rat
from hammix.words import Builtin, TableFunction, WeightVector, word_index, word_unindex
from mixing_oracle import SampleStream, stream_draws
from table_oracle import constant, from_callable


def _chain(n):
    rows = ((rat("9/10"), rat("1/10")), (rat("1/10"), rat("9/10")))
    return MarkovSpec((rat("1/2"), rat("1/2")), (rows,) * (n - 1))


def test_stream_determinism_and_splitting():
    a = [SampleStream(99, 5).next_u64() for _ in range(4)]
    b = [SampleStream(99, 5).next_u64() for _ in range(4)]
    assert a == b
    assert SampleStream(99, 6).next_u64() != a[0]
    assert SampleStream(98, 5).next_u64() != a[0]
    assert all(0 <= r < 2**64 for r in a)


def test_stream_k_plus_one_is_stream_k_advanced_by_one():
    # Consecutive samples share all but one draw; empirical_tail's sliding
    # window reads exactly these draws.
    for seed in (0, 2**64 - 1, -7, 99):
        for k in range(20):
            ahead, next_stream = SampleStream(seed, k), SampleStream(seed, k + 1)
            ahead.next_u64()
            assert [ahead.next_u64() for _ in range(6)] == [next_stream.next_u64() for _ in range(6)]


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(0, 1, (1.0,))
    with pytest.raises(ValueError):
        SimulationConfig(10, 1, ())
    with pytest.raises(ValueError):
        SimulationConfig(10, 1, (0.0,))
    cfg = SimulationConfig(10, -1, (1.0,))
    assert cfg.seed == 2**64 - 1  # seeds live in 64-bit space


@pytest.mark.parametrize(
    "t", [math.nan, math.inf, -math.inf, 0.0, -1.0, pytest.param(10**400, id="10**400")]
)
def test_thresholds_must_be_finite_and_positive(t):
    # The rule problem files already apply: 0 < t <= sys.float_info.max,
    # which also refuses an int too large for a float.
    with pytest.raises(ValueError, match="finite and positive"):
        SimulationConfig(10, 1, (1.0, t))
    f, P, w = TableFunction(2, 1, (0, 1)), Measure.uniform(2, 1), WeightVector((1,))
    with pytest.raises(ValueError, match="finite and positive"):
        concentration_bound(f, P, w, [1.0, t])


def test_point_mass_always_sampled():
    P = mixing_oracle.point_mass(2, 3, (1, 0, 1))
    for k in range(50):
        assert sample_word(P, stream_draws(7, k, 3)) == (1, 0, 1)


def test_zero_probability_cells_never_sampled():
    P = Measure(2, 2, (rat(1, 2), 0, 0, rat(1, 2)))
    for k in range(200):
        word = sample_word(P, stream_draws(21, k, 2))
        assert word in ((0, 0), (1, 1))


# Cases are built inside the tests that read them, so a fault in building
# a measure or a chain fails those tests by name instead of failing the
# collection of this file.
SAMPLER_CASES = {
    "dense0-m3n4": lambda: random_dense_measure(random.Random(31), 3, 4, allow_zeros=True),
    "markov-m2n8": lambda: random_markov_spec(random.Random(32), 2, 8),
}


def _sampler_cases():
    return [build() for build in SAMPLER_CASES.values()]


@pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
def test_sample_word_matches_rational_scan(name):
    # The chain is sampled by its kernels, the oracle scans its table.
    P = SAMPLER_CASES[name]()
    table = expand_markov(P) if isinstance(P, MarkovSpec) else P
    for k in range(2000):
        stream, oracle_stream = SampleStream(2024, k), SampleStream(2024, k)
        draws = [stream.next_u64() for _ in range(P.arity)]
        assert sample_word(P, draws) == mixing_oracle.sample_word(table, oracle_stream)
        # The oracle consumed one draw per symbol: the streams stay in step.
        assert stream.next_u64() == oracle_stream.next_u64()


def _batch_indices(P, seed, count):
    """Table indices of samples 0..count-1 by the batch walk."""
    m, n = P.alphabet_size, P.arity
    draws = montecarlo._draws(seed, 2, count + n - 1)
    if isinstance(P, MarkovSpec):
        levels = montecarlo._chain_cuts(P)
        return montecarlo._chain_values(levels, montecarlo._index_digits(m, n), draws, count)
    return montecarlo._dense_indices(montecarlo._level_cuts(P), m, draws, count)


@pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
def test_window_sampler_matches_rational_scan(name):
    # Sample k reads u[k+2], ..., u[k+n+1] of one draw list, and the words
    # are the oracle's.
    P = SAMPLER_CASES[name]()
    table = expand_markov(P) if isinstance(P, MarkovSpec) else P
    m, n = P.alphabet_size, P.arity
    for seed in (2024, 2**64 - 1):
        for k, index in enumerate(_batch_indices(P, seed, 250)):
            assert word_unindex(index, m, n) == mixing_oracle.sample_word(table, SampleStream(seed, k))


def _null_block_case(m, n):
    return lambda: mixing_oracle.null_block_measure(random.Random(100 * m + n), m, n)


BISECTION_CASES = {
    **{f"dense0-m{m}n{n}": _null_block_case(m, n) for m, n in ((2, 2), (2, 7), (3, 4), (4, 3), (4, 4))},
    "markov-m3n5": lambda: random_markov_spec(random.Random(71), 3, 5),
    "markov-m4n4": lambda: random_markov_spec(random.Random(72), 4, 4),
    "markov0-m3n4": lambda: MarkovSpec(
        ("1/2", "0", "1/2"), ((("0", "1", "0"), ("1/3", "1/3", "1/3"), ("1/2", "0", "1/2")),) * 3
    ),
}


@pytest.mark.parametrize("name", list(BISECTION_CASES))
def test_batch_walk_matches_the_bisection_oracle(name):
    # Per-level threshold counts pick the cell (or kernel row entry) that
    # one bisection per symbol picks, also at the exact cut points.
    P = BISECTION_CASES[name]()
    count, n = 600, P.arity
    if isinstance(P, Measure):
        assert any(P._cum[lo] == P._cum[lo + P.alphabet_size] for lo in range(0, len(P.nums), P.alphabet_size))
    expected = [
        mixing_oracle.sample_index_by_bisection(P, mixing_oracle.stream_draws(9, k, n)) for k in range(count)
    ]
    assert _batch_indices(P, 9, count) == expected
    for r in (0, 1, 2**63 - 1, 2**63, 2**64 - 1):
        index = mixing_oracle.sample_index_by_bisection(P, [r] * n)
        assert sample_word(P, [r] * n) == word_unindex(index, P.alphabet_size, n)


def test_draws_are_the_word_at_a_time_splitmix():
    for seed in (0, 5, 2**64 - 1):
        for start in (0, 2, 1000):
            states = [(seed + s * montecarlo._GAMMA) & montecarlo._MASK64 for s in range(start, start + 40)]
            assert montecarlo._draws(seed, start, 40) == list(map(mixing_oracle.mix64, states))
    assert montecarlo._draws(3, 2, 0) == []


def test_batches_give_the_one_batch_report(monkeypatch):
    # Batches draw consecutive stretches of one sequence, so the counts do
    # not depend on the batch size, on the dense walk or the chain walk.
    cases = [
        (TableFunction(2, 7, range(128)), BISECTION_CASES["dense0-m2n7"](), (5.0, 20.0, 40.0)),
        (Builtin("sum_of_symbols", 3, 5), BISECTION_CASES["markov-m3n5"](), (0.5, 1.5, 3.0)),
    ]
    for f, P, thresholds in cases:
        cfg = SimulationConfig(1000, 4, thresholds)
        monkeypatch.setattr(montecarlo, "_BATCH", 1 << 14)
        whole = empirical_tail(f, P, cfg)
        assert 0 < whole.rows[0].exceed_count < 1000
        monkeypatch.setattr(montecarlo, "_BATCH", 64)
        assert empirical_tail(f, P, cfg) == whole


def test_sample_word_consumes_exactly_n_draws():
    cases = [*_sampler_cases(), Measure.uniform(1, 3), mixing_oracle.point_mass(2, 4, (1, 0, 0, 1))]
    for P in cases:
        n = P.arity
        draws = stream_draws(5, 0, n + 1)
        assert len(sample_word(P, draws[:n])) == n
        for wrong in (draws[: n - 1], draws):
            with pytest.raises(ValueError, match=f"need exactly {n} draws"):
                sample_word(P, wrong)


def _tail_cases():
    """(f, P) with P a measure or a chain; n = 1 and m = 1 included."""
    rng = random.Random(61)
    for P in (
        *_sampler_cases(),
        random_dense_measure(rng, 3, 1, allow_zeros=True),
        random_markov_spec(rng, 3, 1),
        Measure.uniform(1, 4),
        random_markov_spec(rng, 1, 3),
    ):
        yield random_table(rng, P.alphabet_size, P.arity, max_denominator=2), P


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -3])
@pytest.mark.parametrize("samples", [1, 300])
def test_empirical_tail_counts_match_one_stream_per_sample(seed, samples):
    # The sliding window must count what one SampleStream(seed, k) per
    # sample draws; the oracle samples each chain's expanded table.
    for f, P in _tail_cases():
        cfg = SimulationConfig(samples, seed, (0.5, 1.0, 1.5))
        table = expand_markov(P) if isinstance(P, MarkovSpec) else P
        report = empirical_tail(f, P, cfg)
        mean, counts = table_oracle.tail_mean_and_counts(f, table, cfg)
        assert report.mean == mean
        assert [row.exceed_count for row in report.rows] == counts


def test_additive_chain_samples_match_the_table_path():
    # Summing a builtin's terms symbol by symbol must count what indexing
    # its table counts, on the same draws, and match the oracle's counts.
    rng = random.Random(17)
    exceeded = 0
    for f, table, chain, _ in additive_chain_cases(18, 60):
        cfg = SimulationConfig(120, rng.getrandbits(64), (0.25, 0.5, 1.0, 2.0))
        report = empirical_tail(f, chain, cfg)
        assert report == empirical_tail(table, chain, cfg)
        mean, counts = table_oracle.tail_mean_and_counts(table, expand_markov(chain), cfg)
        assert report.mean == mean
        assert [row.exceed_count for row in report.rows] == counts
        exceeded += 0 < counts[1] < cfg.sample_count
    assert exceeded >= 20


def test_sampler_cases_include_null_cells():
    assert 0 in SAMPLER_CASES["dense0-m3n4"]().probabilities


class _FixedStream:
    """Stream stub that returns one fixed 64-bit value on every draw."""

    def __init__(self, value):
        self.value = value

    def next_u64(self):
        return self.value


def test_sample_word_at_exact_cut_points():
    # When r * mass lands exactly on a cumulative sub-block sum, u is not
    # below it, so the draw goes to the next symbol; r = 0 never picks a
    # null symbol.
    skewed = Measure(3, 1, (0, rat(1, 4), rat(3, 4)))
    fair = Measure(2, 1, (rat(1, 2), rat(1, 2)))
    assert sample_word(skewed, [0]) == (1,)
    assert sample_word(skewed, [2**62]) == (2,)
    assert sample_word(fair, [2**63 - 1]) == (0,)
    assert sample_word(fair, [2**63]) == (1,)
    values = (0, 1, 2**62 - 1, 2**62, 2**63, 3 * 2**62, 2**64 - 1)
    for P in (skewed, fair, SAMPLER_CASES["dense0-m3n4"]()):
        for r in values:
            assert sample_word(P, [r] * P.arity) == mixing_oracle.sample_word(P, _FixedStream(r))


class _Draws:
    """Stream stub that returns the given 64-bit values in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def next_u64(self):
        return self.values.pop(0)


def test_chain_sampler_at_exact_cut_points():
    # Initial law (0, 1/4, 3/4); after 1 the row is (1/2, 0, 1/2), after 2
    # the chain stays.  A draw exactly on a cut goes past it, and past every
    # null symbol behind it.
    rows = (("1/3", "1/3", "1/3"), ("1/2", "0", "1/2"), ("0", "0", "1"))
    P = MarkovSpec(("0", "1/4", "3/4"), (rows,))
    dense = expand_markov(P)
    cases = {
        (0, 0): (1, 0),
        (0, 2**63 - 1): (1, 0),
        (0, 2**63): (1, 2),
        (2**62 - 1, 2**64 - 1): (1, 2),
        (2**62, 0): (2, 2),
        (2**64 - 1, 2**64 - 1): (2, 2),
    }
    for draws, word in cases.items():
        assert sample_word(P, draws) == word
        assert sample_word(dense, draws) == word
        assert mixing_oracle.sample_word(dense, _Draws(*draws)) == word


def test_chain_sampler_at_non_dyadic_cut_points():
    # With law (1/3, 2/3), r * 3 < 2^64 holds up to r = (2^64 - 1) / 3, the
    # floor of the cut c * 2^64 / d: the threshold must be its ceiling.
    P = MarkovSpec(("1/3", "2/3"), ((("2/7", "5/7"), ("3/5", "2/5")),))
    dense = expand_markov(P)
    third, sevenths = (2**64 - 1) // 3, (2 * 2**64) // 7
    for draws in ((third, sevenths), (third, sevenths + 1), (third + 1, 0), (third + 1, 2**64 - 1)):
        word = mixing_oracle.sample_word(dense, _Draws(*draws))
        assert sample_word(P, draws) == word
        assert sample_word(dense, draws) == word
    assert [mixing_oracle.sample_word(dense, _Draws(third, r)) for r in (sevenths, sevenths + 1)] == [(0, 0), (0, 1)]


def test_chain_sampler_matches_dense_copy():
    rng = random.Random(47)

    def law(m):
        # About a third of the entries are null.
        while True:
            weights = [rng.choice((0, rng.randint(1, 5), rng.randint(1, 5))) for _ in range(m)]
            if sum(weights):
                return tuple(rat(c, sum(weights)) for c in weights)

    for m, n in ((1, 3), (2, 1), (2, 6), (3, 4), (4, 3)):
        for _ in range(3):
            P = MarkovSpec(law(m), tuple(tuple(law(m) for _ in range(m)) for _ in range(n - 1)))
            dense = expand_markov(P)
            for k in range(300):
                draws = stream_draws(n, k, n)
                word = sample_word(P, draws)
                assert word == sample_word(dense, draws)
                oracle_draws = _Draws(*draws)
                assert word == mixing_oracle.sample_word(dense, oracle_draws)
                assert not oracle_draws.values


def test_uniform_cell_frequencies():
    P = Measure.uniform(2, 2)
    counts = [0] * 4
    samples = 100_000
    for k in range(samples):
        counts[word_index(sample_word(P, stream_draws(1234, k, 2)), 2)] += 1
    sigma = math.sqrt(samples * 0.25 * 0.75)
    for c in counts:
        assert abs(c - samples / 4) <= 5 * sigma


def test_markov_transition_frequency():
    P = _chain(2)
    samples = 50_000
    stay = total = 0
    for k in range(samples):
        x = sample_word(P, stream_draws(777, k, 2))
        total += 1
        stay += x[0] == x[1]
    p_hat = stay / total
    sigma = math.sqrt(0.9 * 0.1 / samples)
    assert abs(p_hat - 0.9) <= 5 * sigma


def test_empirical_tail_reproducible_and_bounded():
    n = 8
    P = _chain(n)
    f = from_callable(2, n, lambda x: sum(x))
    w = WeightVector((1,) * n)
    cfg = SimulationConfig(5_000, 424242, (1.0, 2.0, 3.0, 4.0))
    report = empirical_tail(f, P, cfg)
    assert report == empirical_tail(f, P, cfg)

    assert report.mean == 4  # symmetric chain, E sum = n/2
    assert report.d_squared == martingale_profile(f, P).d_squared
    for row in report.rows:
        sigma = math.sqrt(row.frequency * (1 - row.frequency) / cfg.sample_count)
        assert row.frequency <= min(1.0, row.azuma) + 3 * sigma
    assert all(bound > 0 for bound in concentration_bound(f, P, w, cfg.thresholds).bounds)


def test_empirical_tail_against_midrange_corollary_bound():
    # Pick t so the mixing-matrix bound sits near 1/2 (not vacuous, not
    # unreachable), then check the simulated tail stays under it.
    n = 8
    P = _chain(n)
    f = from_callable(2, n, lambda x: sum(x))
    w = WeightVector((1,) * n)
    from hammix.mixing import delta_matrix, operator_norm_2

    op = operator_norm_2(delta_matrix(P))
    t = math.sqrt(2.0 * n * op * op * math.log(4.0))  # makes the bound 1/2
    cfg = SimulationConfig(20_000, 3131, (t,))
    (corollary,) = concentration_bound(f, P, w, cfg.thresholds).bounds
    assert corollary == pytest.approx(0.5, rel=1e-9)
    row = empirical_tail(f, P, cfg).rows[0]
    sigma = math.sqrt(row.frequency * (1 - row.frequency) / cfg.sample_count)
    assert row.frequency <= corollary + 3 * sigma


def test_empirical_tail_threshold_beyond_range_is_zero():
    P = Measure.uniform(2, 2)
    f = from_callable(2, 2, lambda x: sum(x))
    cfg = SimulationConfig(2_000, 9, (10.0,))
    report = empirical_tail(f, P, cfg)
    assert report.rows[0].exceed_count == 0
    assert report.rows[0].frequency == 0.0


def test_arity_zero_tail_bounds_are_zero():
    # The one word of S^0 is E f itself, so every deviation and bound is 0.
    P, w = Measure.uniform(2, 0), WeightVector(())
    for f in (TableFunction(2, 0, ("7/2",)), Builtin("sum_of_symbols", 2, 0)):
        assert concentration_bound(f, P, w, [0.5, 1.0]).bounds == (0.0, 0.0)
        report = empirical_tail(f, P, SimulationConfig(20, 3, (0.5, 1.0)))
        assert report.d_squared == 0
        assert [(r.exceed_count, r.azuma) for r in report.rows] == [(0, 0.0)] * 2


def test_empirical_tail_shape_mismatch():
    with pytest.raises(ValueError):
        empirical_tail(constant(2, 2, 0), Measure.uniform(2, 3), SimulationConfig(10, 0, (1.0,)))
