import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from simplex_oracle import all_pairs_form, all_pairs_lp, standard_form

import hammix.lipschitz_lp as lipschitz_lp
import hammix.selftest as selftest
from hammix.instances import random_table, random_weights
from hammix.lipschitz_lp import (
    LpProblem,
    PhiPsiReport,
    build_polytope_lp,
    lipschitz_constant,
    phi_sup,
    solve_lp,
    verify_phi_psi,
)
from hammix.psi import norm_shift, psi
from hammix.rational import rat
from hammix.simplex import integer_lp, solve, verify_certificate
from hammix.words import (
    Builtin,
    TableFunction,
    WeightVector,
    word_unindex,
)
from mixing_oracle import words
from table_oracle import constant, from_callable, hamming_distance, ramp, scale


def _phi_norm(k, w):
    """sup of |<k, phi>| over the v = 0 polytope, as ``verify_phi_psi`` reports it."""
    return verify_phi_psi(k, w, 0).norm_lhs


def test_build_n1():
    k = TableFunction(2, 1, (1, -1))
    p = build_polytope_lp(k, WeightVector((1,)), 0)
    assert p.num_vars == 2
    assert p.upper_bound == 1
    assert sorted(p.difference_constraints) == [(0, 1, rat(1)), (1, 0, rat(1))]


def test_build_n2():
    k = TableFunction(2, 2, (1, 0, 0, -1))
    p = build_polytope_lp(k, WeightVector((1, 1)), 0)
    assert p.num_vars == 4
    assert p.upper_bound == 2
    assert len(p.difference_constraints) == 8
    assert all(rhs == 1 for _, _, rhs in p.difference_constraints)
    # Each constraint pairs words at Hamming distance exactly 1.
    for x, y, _ in p.difference_constraints:
        wx, wy = word_unindex(x, 2, 2), word_unindex(y, 2, 2)
        assert sum(a != b for a, b in zip(wx, wy)) == 1


def test_build_v_shifts_box():
    k = TableFunction(2, 2, (1, 0, 0, -1))
    p0 = build_polytope_lp(k, WeightVector((1, 1)), 0)
    p_half = build_polytope_lp(k, WeightVector((1, 1)), "1/2")
    assert p_half.upper_bound == p0.upper_bound + rat(1, 2)
    assert p_half.difference_constraints == p0.difference_constraints


def test_build_rejects_negative_v_and_mismatch():
    k = TableFunction(2, 2, (1, 0, 0, -1))
    with pytest.raises(ValueError):
        build_polytope_lp(k, WeightVector((1, 1)), -1)
    with pytest.raises(ValueError):
        build_polytope_lp(k, WeightVector((1,)), 0)


def test_solve_zero_objective():
    k = TableFunction(2, 2, (0, 0, 0, 0))
    assert solve_lp(build_polytope_lp(k, WeightVector((1, 1)), 0)).objective_value == 0


def test_solve_n1_vertex():
    k = TableFunction(2, 1, (1, -1))
    cert = solve_lp(build_polytope_lp(k, WeightVector((1,)), 0))
    assert cert.objective_value == 1
    assert cert.primal == (rat(1), rat(0))


def _lattice_oracle(k, upper):
    """Brute-force max of <k, phi> over integer-valued feasible phi.

    For unit weights and v = 0 the polytope has integral vertices, so the
    integer lattice contains an optimizer.
    """
    m, n = k.alphabet_size, k.arity
    all_words = list(words(m, n))
    w = WeightVector((1,) * n)
    best = None
    for values in product(range(upper + 1), repeat=m**n):
        feasible = all(
            abs(values[i] - values[j]) <= hamming_distance(all_words[i], all_words[j], w)
            for i in range(len(all_words))
            for j in range(i + 1, len(all_words))
        )
        if feasible:
            total = sum(rat(v) * kv for v, kv in zip(values, k.values))
            if best is None or total > best:
                best = total
    return best


def test_solve_n2_against_lattice_oracle():
    k = TableFunction(2, 2, (1, 0, 0, -1))
    cert = solve_lp(build_polytope_lp(k, WeightVector((1, 1)), 0))
    assert cert.objective_value == 2
    assert cert.objective_value == _lattice_oracle(k, upper=2)

    rng = random.Random(19)
    for _ in range(5):
        k = TableFunction(2, 2, [rat(rng.randint(-3, 3)) for _ in range(4)])
        value = solve_lp(build_polytope_lp(k, WeightVector((1, 1)), 0)).objective_value
        assert value == _lattice_oracle(k, upper=2)


def test_phi_norm_examples():
    assert _phi_norm(TableFunction(2, 1, (0, 0)), WeightVector((1,))) == 0
    assert _phi_norm(TableFunction(2, 1, (1, -1)), WeightVector((1,))) == 1
    assert _phi_norm(TableFunction(2, 2, (1, 0, 0, -1)), WeightVector((1, 1))) == 2


def test_phi_norm_absolute_homogeneity():
    rng = random.Random(31)
    for _ in range(10):
        k = random_table(rng, 2, 2)
        w = random_weights(rng, 2)
        a = rat(rng.randint(-3, 3), rng.randint(1, 3))
        assert _phi_norm(scale(k, a), w) == abs(a) * _phi_norm(k, w)


def _sign_symmetry_cases():
    """Seeded tables with both signs of total(k), m=3 n=2 among them, plus
    degenerate ones: zero, constants of both signs, a point mass and a
    nonzero table summing to exactly 0."""
    rng = random.Random(61)
    cases = [
        (random_table(rng, m, n), random_weights(rng, n))
        for m, n in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))
        for _ in range(8)
    ]
    w = WeightVector(("2/3", "5/4"))
    cases += [(constant(3, 2, c), w) for c in (0, "-3/2", 2)]
    cases.append((TableFunction(3, 2, (0, 0, 0, 0, -5, 0, 0, 0, 0)), w))
    cases.append((TableFunction(3, 2, (1, -1, 0, 0, 2, -2, 0, 0, 0)), w))
    return cases


def test_phi_sup_sign_symmetry_gives_phi_norm():
    cases = _sign_symmetry_cases()
    assert any(k.total() > 0 for k, _ in cases) and any(k.total() < 0 for k, _ in cases)
    for k, w in cases:
        pos, neg = phi_sup(k, w, 0), phi_sup(-k, w, 0)
        assert neg == pos - w.total() * k.total()
        assert phi_sup(k, w, 0) + norm_shift(w, k) == max(pos, neg)
        report = verify_phi_psi(k, w, 0)
        assert report.norm_lhs == max(pos, neg)
        assert report.norm_rhs == max(psi(w, k), psi(w, -k))


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_norms_solve_one_lp_and_evaluate_psi_once(monkeypatch):
    solves = _count_calls(monkeypatch, lipschitz_lp, "solve_lp")
    psi_calls = _count_calls(monkeypatch, lipschitz_lp, "psi")
    k = TableFunction(3, 2, ("-2", "1/2", "-3/4", "1", "-5/2", "0", "3/5", "-1", "-1/3"))
    w = WeightVector(("2/3", "5/4"))
    report = verify_phi_psi(k, w, 0)
    assert (len(solves), len(psi_calls)) == (1, 1)
    assert report.norm_lhs == phi_sup(k, w, 0) + norm_shift(w, k)
    assert len(solves) == 2


def test_lp_criteria_counts_the_solves_it_runs(monkeypatch):
    solves = _count_calls(monkeypatch, lipschitz_lp, "solve_lp")
    solves_reduction = _count_calls(monkeypatch, selftest, "solve_lp")
    # One solve per verify_phi_psi report and one per reduction instance,
    # whose certificate also stands for the all-pairs LP's: two checks.
    instances, reductions = 20, 2
    _, _, c5 = selftest.lp_criteria(instances, 5)
    rng = random.Random(5)
    nonzero_v = sum(selftest._draw_lp_instance(rng)[4] != 0 for _ in range(instances))
    assert len(solves) + len(solves_reduction) == instances + nonzero_v + reductions
    assert c5.checked == instances + nonzero_v + 2 * reductions
    assert c5.detail["reduction_instances"] == reductions


def _reduction_cases(seed):
    """Seeded polytope LPs with m in {2, 3}, n <= 3 and v in {0, 1/2, 1}, with their weights."""
    rng = random.Random(seed)
    for m in (2, 3):
        for n in (1, 2, 3):
            for v in ("0", "1/2", "1"):
                k, w = random_table(rng, m, n), random_weights(rng, n)
                yield build_polytope_lp(k, w, v), w


def test_reduction_certificate_holds_on_seeded_lps():
    for problem, w in _reduction_cases(83):
        assert selftest._reduction_certified(problem, w, solve_lp(problem).primal_nums)


def test_reduction_certificate_rejects_tampered_costs():
    # One cost halved, exactly: the other costs and the box are doubled over
    # twice the denominator.  The smaller polytope's vertex meets d_w on
    # every pair, so only the rows' right-hand sides show the fault.
    for problem, w in _reduction_cases(89):
        doubled = [2 * c for c in problem.costs]
        doubled[-1] //= 2
        bad = dataclasses.replace(
            problem, costs=tuple(doubled), upper=2 * problem.upper, rhs_den=2 * problem.rhs_den
        )
        assert not selftest._reduction_certified(bad, w, solve_lp(bad).primal_nums)


def test_reduction_certificate_rejects_a_vertex_past_a_pair_bound():
    # phi[x] raised to one unit of 1/rhs_den above phi[y] + d_w(x, y), for the
    # pair whose bound is the least slack above phi[x].
    for problem, w in _reduction_cases(97):
        m, n, den = problem.alphabet_size, problem.arity, problem.rhs_den
        vertex = list(solve_lp(problem).primal_nums)
        x = len(vertex) // 2
        wx = word_unindex(x, m, n)
        bounds = [
            vertex[y] + hamming_distance(wx, word_unindex(y, m, n), w) * den
            for y in range(len(vertex))
            if y != x
        ]
        assert all(b.denominator == 1 for b in bounds)
        vertex[x] = int(min(bounds)) + 1
        assert not selftest._reduction_certified(problem, w, tuple(vertex))


def test_verify_phi_psi_example():
    k = TableFunction(2, 2, (1, 0, 0, -1))
    report = verify_phi_psi(k, WeightVector((1, 1)), 0)
    assert (report.lhs, report.rhs, report.holds) == (rat(2), rat(2), True)
    assert report.norm_holds is True

    zero = constant(2, 2, 0)
    report = verify_phi_psi(zero, WeightVector((1, 1)), 0)
    assert report.lhs == report.rhs == 0 and report.holds


def test_verify_phi_psi_positive_v_skips_norms():
    k = TableFunction(2, 1, (2, -1))
    report = verify_phi_psi(k, WeightVector((1,)), "1/2")
    assert report.holds
    assert report.norm_lhs is None and report.norm_holds is None


def test_phi_psi_report_derives_its_verdicts():
    report = PhiPsiReport(rat(2), rat(1))
    assert report.holds is False and report.norm_holds is None
    report = PhiPsiReport(rat(1), rat(1), norm_lhs=rat(3), norm_rhs=rat(5, 2))
    assert report.holds is True and report.norm_holds is False
    with pytest.raises(TypeError):
        PhiPsiReport(rat(2), rat(1), holds=True)
    with pytest.raises(TypeError):
        PhiPsiReport(rat(1), rat(1), norm_lhs=rat(3), norm_rhs=rat(1), norm_holds=True)


def test_n1_supremum_is_tight():
    rng = random.Random(47)
    for _ in range(25):
        k = random_table(rng, rng.choice((2, 3)), 1)
        w = random_weights(rng, 1)
        report = verify_phi_psi(k, w, 0)
        assert report.lhs == report.rhs
        assert report.norm_lhs == report.norm_rhs


def test_supremum_and_norm_bounds_on_random_instances():
    rng = random.Random(53)
    for _ in range(50):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        k = random_table(rng, m, n)
        w = random_weights(rng, n)
        v = rat(rng.choice(("0", "1/2", "1")))
        assert phi_sup(k, w, v) <= psi(w, k) + v * ramp(k.total())
        assert _phi_norm(k, w) <= psi(w, k) + norm_shift(w, k)


def test_phi_sup_matches_scipy_float_oracle():
    from scipy.optimize import linprog

    rng = random.Random(59)
    for _ in range(15):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        k = random_table(rng, m, n)
        w = random_weights(rng, n)
        v = rat(rng.choice(("0", "1/2", "1")))
        exact = float(phi_sup(k, w, v))

        problem = build_polytope_lp(k, w, v)
        nv = problem.num_vars
        a_ub = [[1.0 if j == i else 0.0 for j in range(nv)] for i in range(nv)]
        b_ub = [float(problem.upper_bound)] * nv
        for x, y, rhs in problem.difference_constraints:
            row = [0.0] * nv
            row[x], row[y] = 1.0, -1.0
            a_ub.append(row)
            b_ub.append(float(rhs))
        res = linprog(
            [-float(c) for c in problem.objective], A_ub=a_ub, b_ub=b_ub, method="highs"
        )
        assert res.status == 0
        assert abs(exact - (-res.fun)) < 1e-7


def test_all_pairs_rows_are_per_pair_distances():
    # The test oracle's all-pairs LP, in integers and in rationals, has one
    # row per ordered pair x != y with rhs d_w(x, y), as the package's
    # hamming_to tables give it.
    rng = random.Random(31)
    for m, n in [(1, 2), (2, 1), (2, 3), (3, 2)]:
        k, w = random_table(rng, m, n), random_weights(rng, n)
        v = rat(rng.choice(("0", "1/2", "5/7")))
        size = m**n
        tables = [Builtin("hamming_to", m, n, word_unindex(x, m, n), w).table().values for x in range(size)]
        expected = [({x: 1, y: -1}, tables[x][y]) for x in range(size) for y in range(size) if x != y]
        lp = all_pairs_lp(k, w, v)
        _, rows, rhs = all_pairs_form(k, w, v)
        assert [(row, rat(b, lp.rhs_den)) for row, b in lp.rows[size:]] == expected
        assert list(zip(rows[size:], rhs[size:])) == expected
        assert [rat(b, lp.rhs_den) for _, b in lp.rows[:size]] == rhs[:size] == [v + w.total()] * size


def test_adjacent_pairs_match_all_pairs_formulation():
    rng = random.Random(61)
    for _ in range(10):
        k = random_table(rng, 2, 2)
        w = random_weights(rng, 2)
        v = rat(rng.choice(("0", "1/2")))
        edge = solve_lp(build_polytope_lp(k, w, v)).objective_value
        dense = solve(all_pairs_lp(k, w, v)).objective_value
        assert edge == dense


def test_certificates_survive_reverification():
    rng = random.Random(67)
    for _ in range(10):
        k = random_table(rng, 2, 2)
        w = random_weights(rng, 2)
        problem = build_polytope_lp(k, w, "1/2")
        result = solve_lp(problem)
        # Rational rows rebuilt from the public LpProblem fields: the box
        # rows first, then one row per difference constraint.
        verify_certificate(integer_lp(*standard_form(problem)), result)
        assert all(y >= 0 for y in result.dual)
        assert all(0 <= x <= problem.upper_bound for x in result.primal)


def test_lp_problem_validation():
    # LpProblem(m, n, nums, den, upper, costs, rhs_den): an objective of the
    # wrong length, an empty box, a zero difference rhs and a cost count
    # other than the arity.
    LpProblem(2, 1, (1, 0), 1, 1, (1,), 1)
    with pytest.raises(ValueError, match="objective length"):
        LpProblem(2, 1, (1,), 1, 1, (1,), 1)
    with pytest.raises(ValueError, match="box upper bound"):
        LpProblem(2, 1, (1, 0), 1, 0, (1,), 1)
    with pytest.raises(ValueError, match="difference constraint rhs"):
        LpProblem(2, 1, (1, 0), 1, 1, (0,), 1)
    with pytest.raises(ValueError, match="coordinate costs"):
        LpProblem(2, 1, (1, 0), 1, 1, (1, 1), 1)


def _rational_polytope(k, w, v):
    """The LP's objective, box bound and difference triples as Fractions, built pair by pair."""
    m, n = k.alphabet_size, k.arity
    all_words = list(words(m, n))
    triples = []
    for x, wx in enumerate(all_words):
        for pos in range(n):
            for other in range(m):
                if other != wx[pos]:
                    y = all_words.index(wx[:pos] + (other,) + wx[pos + 1 :])
                    triples.append((x, y, w[pos]))
    return k.values, v + w.total(), tuple(triples)


def test_rational_views_keep_the_rational_build():
    # The problem holds integers; the public views it derives are the
    # Fractions of a pair-by-pair build, in its order.
    rng = random.Random(71)
    for m, n in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        for v in ("0", "1/2", "5/7"):
            k, w = random_table(rng, m, n), random_weights(rng, n)
            problem = build_polytope_lp(k, w, v)
            views = (problem.objective, problem.upper_bound, problem.difference_constraints)
            assert views == _rational_polytope(k, w, rat(v))
            assert problem.num_vars == m**n
            assert all(type(x) is Fraction for x in problem.objective + (problem.upper_bound,))


def _lipschitz_all_pairs_oracle(f, w):
    m, n = f.alphabet_size, f.arity
    all_words = list(words(m, n))
    best = rat(0)
    for i in range(len(all_words)):
        for j in range(i + 1, len(all_words)):
            d = hamming_distance(all_words[i], all_words[j], w)
            c = abs(f.values[i] - f.values[j]) / d
            if c > best:
                best = c
    return best


def test_lipschitz_constant_examples():
    assert lipschitz_constant(TableFunction(2, 2, (3, 3, 3, 3)), WeightVector((1, 1))) == 0
    assert lipschitz_constant(TableFunction(2, 1, (0, 1)), WeightVector(("1/2",))) == 2

    rng = random.Random(71)
    for _ in range(10):
        m = rng.choice((2, 3))
        n = rng.choice((2, 3))
        w = random_weights(rng, n)
        anchor = tuple(rng.randrange(m) for _ in range(n))
        dist = from_callable(m, n, lambda x: hamming_distance(x, anchor, w))
        assert lipschitz_constant(dist, w) == 1
        assert _lipschitz_all_pairs_oracle(dist, w) == 1


def test_lipschitz_constant_matches_all_pairs_oracle():
    rng = random.Random(73)
    for _ in range(20):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        f = random_table(rng, m, n)
        w = random_weights(rng, n)
        assert lipschitz_constant(f, w) == _lipschitz_all_pairs_oracle(f, w)


def test_builtin_oscillations_match_the_table_scan():
    # Closed forms: m - 1 for sum_of_symbols, w_i for hamming_to, 1 for
    # indicator, and 0 for every builtin when m = 1.
    rng = random.Random(79)
    for m, n in [(1, 1), (1, 3), (2, 1), (2, 4), (3, 3), (4, 2)]:
        for _ in range(3):
            w = random_weights(rng, n)
            target = tuple(rng.randrange(m) for _ in range(n))
            for f in (
                Builtin("sum_of_symbols", m, n),
                Builtin("indicator", m, n, target),
                Builtin("hamming_to", m, n, target, w),
            ):
                table = f.table()
                assert f.oscillations() == table.oscillations()
                assert lipschitz_constant(f, w) == lipschitz_constant(table, w)
            if m == 1:
                assert set(f.oscillations()) == {0}
            else:
                assert f.oscillations() == w.entries
