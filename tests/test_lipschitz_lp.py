import random
from itertools import product

import pytest
from simplex_oracle import standard_form

import hammix.lipschitz_lp as lipschitz_lp
import hammix.selftest as selftest
from hammix.instances import random_table, random_weights
from hammix.lipschitz_lp import (
    LpProblem,
    build_polytope_lp,
    lipschitz_constant,
    oscillations,
    phi_sup,
    solve_lp,
    verify_phi_psi,
)
from hammix.psi import norm_shift, psi, ramp
from hammix.rational import rat
from hammix.simplex import verify_certificate
from hammix.words import (
    Builtin,
    TableFunction,
    WeightVector,
    hamming_distance,
    word_unindex,
    words,
)
from table_oracle import constant, from_callable, scale


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
    instances, reductions = 20, 3
    _, _, c5 = selftest.lp_criteria(instances, 5, reduction_count=reductions)
    rng = random.Random(5)
    nonzero_v = sum(selftest._draw_lp_instance(rng)[4] != 0 for _ in range(instances))
    expected = instances + nonzero_v + 2 * reductions
    assert len(solves) + len(solves_reduction) == c5.checked == expected


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


def test_adjacent_pairs_match_all_pairs_formulation():
    rng = random.Random(61)
    for _ in range(10):
        k = random_table(rng, 2, 2)
        w = random_weights(rng, 2)
        v = rat(rng.choice(("0", "1/2")))
        edge = solve_lp(build_polytope_lp(k, w, v)).objective_value
        dense = solve_lp(build_polytope_lp(k, w, v, pairs="all")).objective_value
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
        rows, rhs = standard_form(problem)
        verify_certificate(problem.objective, rows, rhs, result)
        assert all(y >= 0 for y in result.dual)
        assert all(0 <= x <= problem.upper_bound for x in result.primal)


def test_lp_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(2, (rat(1),), rat(1), ())
    with pytest.raises(ValueError):
        LpProblem(2, (rat(1), rat(0)), rat(0), ())
    with pytest.raises(ValueError):
        LpProblem(2, (rat(1), rat(0)), rat(1), ((0, 0, rat(1)),))
    with pytest.raises(ValueError):
        LpProblem(2, (rat(1), rat(0)), rat(1), ((0, 1, rat(0)),))


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
                assert oscillations(f) == oscillations(table)
                assert lipschitz_constant(f, w) == lipschitz_constant(table, w)
            if m == 1:
                assert set(oscillations(f)) == {0}
            else:
                assert oscillations(f) == w.entries
