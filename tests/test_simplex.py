import hashlib
import random
from fractions import Fraction

import pytest
from scipy.optimize import linprog
from simplex_oracle import dense_simplex_max, standard_form

import hammix.simplex
from hammix import instances
from hammix.lipschitz_lp import build_polytope_lp, solve_lp
from hammix.rational import rat
from hammix.simplex import (
    CertificateError,
    SimplexError,
    SimplexResult,
    simplex_max,
    verify_certificate,
)
from hammix.words import WeightVector


def test_zero_objective():
    result = simplex_max([rat(0), rat(0)], [{0: rat(1)}, {1: rat(1)}], [rat(1), rat(1)])
    assert result.objective_value == 0


def test_simple_box():
    result = simplex_max(
        [rat(1), rat(1)], [{0: rat(1)}, {1: rat(1)}], [rat(1), rat(2)]
    )
    assert result.objective_value == 3
    assert result.primal == (rat(1), rat(2))


def test_negative_objective_keeps_origin():
    result = simplex_max([rat(-1)], [{0: rat(1)}], [rat(5)])
    assert result.objective_value == 0
    assert result.primal == (rat(0),)


def test_degenerate_redundant_constraints():
    # Duplicate and implied rows make the optimal vertex degenerate; Bland's
    # rule must still terminate at the optimum.
    rows = [{0: rat(1)}, {0: rat(1)}, {1: rat(1)}, {0: rat(1), 1: rat(1)}]
    rhs = [rat(1), rat(1), rat(1), rat(2)]
    result = simplex_max([rat(1), rat(1)], rows, rhs)
    assert result.objective_value == 2


def test_unbounded_raises():
    with pytest.raises(SimplexError):
        simplex_max([rat(1), rat(0)], [{1: rat(1)}], [rat(1)])


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        simplex_max([rat(1)], [{0: rat(1)}], [rat(-1)])


def test_out_of_range_variable_index_rejected():
    with pytest.raises(ValueError):
        simplex_max([rat(1)], [{0: rat(1)}, {1: rat(1)}], [rat(1), rat(1)])
    with pytest.raises(ValueError):
        simplex_max([rat(1)], [{-1: rat(1)}], [rat(1)])


def test_pivot_cap_raises(monkeypatch):
    objective = [rat(1), rat(1)]
    rows = [{0: rat(1)}, {1: rat(1)}]
    rhs = [rat(1), rat(2)]
    assert simplex_max(objective, rows, rhs).pivots == 2
    monkeypatch.setattr(hammix.simplex, "_MAX_PIVOTS", 1)
    with pytest.raises(SimplexError, match="pivot cap"):
        simplex_max(objective, rows, rhs)


def test_entries_have_backend_type():
    # Integer and Fraction inputs alike come back as Fractions.
    rows = [{0: 1, 1: rat(-1)}, {0: rat(1)}, {1: 1}]
    result = simplex_max([rat(3, 2), 1], rows, [rat(1, 3), 4, rat(7, 2)])
    entries = result.primal + result.dual + (result.objective_value,)
    assert all(type(value) is Fraction for value in entries)


def test_exact_fractional_solution():
    # max 3x + 2y  s.t.  x - y <= 1/2, y <= 7/3, x <= 4  ->  both objective
    # coefficients are positive and x - y is capped, so the vertex is
    # y = 7/3, x = 7/3 + 1/2 = 17/6 (solved by hand).
    rows = [{0: 1, 1: -1}, {1: 1}, {0: 1}]
    rhs = [rat(1, 2), rat(7, 3), rat(4)]
    result = simplex_max([rat(3), rat(2)], rows, rhs)
    assert result.primal == (rat(17, 6), rat(7, 3))
    assert result.objective_value == rat(3) * rat(17, 6) + rat(2) * rat(7, 3)


def test_pivot_element_other_than_one_rejected():
    # Row 0 is 2x <= 1, not totally unimodular: its pivot element is 2.
    with pytest.raises(ValueError, match="not totally unimodular"):
        simplex_max([1, 1], [{0: 2}, {0: 1}, {1: 1}], [1, 1, 1])


def test_non_integer_coefficient_rejected():
    objective, rows, rhs = [rat(1), rat(1)], [{0: 1}, {1: rat(1, 2)}], [rat(1), rat(1)]
    with pytest.raises(ValueError, match="coefficient 1/2 of variable 1 in row 1"):
        simplex_max(objective, rows, rhs)
    result = SimplexResult((rat(1), rat(2)), (rat(1), rat(2)), rat(3), 2)
    with pytest.raises(ValueError, match="coefficient 1/2 of variable 1 in row 1"):
        verify_certificate(objective, rows, rhs, result)


def _tampered(result, **kwargs):
    fields = {
        "primal": result.primal,
        "dual": result.dual,
        "objective_value": result.objective_value,
        "pivots": result.pivots,
    }
    fields.update(kwargs)
    return SimplexResult(**fields)


def test_certificate_rejects_tampering():
    objective = [rat(1), rat(1)]
    rows = [{0: rat(1)}, {1: rat(1)}]
    rhs = [rat(1), rat(2)]
    good = simplex_max(objective, rows, rhs)
    verify_certificate(objective, rows, rhs, good)

    bad_primal = _tampered(good, primal=(rat(2), rat(2)))
    with pytest.raises(CertificateError):
        verify_certificate(objective, rows, rhs, bad_primal)

    bad_dual = _tampered(good, dual=(rat(-1), good.dual[1]))
    with pytest.raises(CertificateError):
        verify_certificate(objective, rows, rhs, bad_dual)

    bad_value = _tampered(good, objective_value=good.objective_value + 1)
    with pytest.raises(CertificateError):
        verify_certificate(objective, rows, rhs, bad_value)

    low_dual = _tampered(good, dual=(rat(0), rat(0)), objective_value=rat(0))
    with pytest.raises(CertificateError):
        verify_certificate(objective, rows, rhs, low_dual)

    # Objectives still agree (c.x == b.y == 3); only one inequality fails.
    infeasible_primal = _tampered(good, primal=(rat(2), rat(1)))
    with pytest.raises(CertificateError, match="primal row 0 violated"):
        verify_certificate(objective, rows, rhs, infeasible_primal)

    infeasible_dual = _tampered(good, dual=(rat(0), rat(3, 2)))
    with pytest.raises(CertificateError, match="dual row for variable 0 violated"):
        verify_certificate(objective, rows, rhs, infeasible_dual)


def _network_lp(rng):
    """A bounded LP on a network matrix: difference rows x - y, unit rows +-x
    and box rows x, with rational objectives and rational or zero rhs."""
    nv = rng.randint(1, 6)
    objective = [rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nv)]
    one = rng.choice((1, rat(1)))
    rows = []
    rhs = []
    for _ in range(rng.randint(1, 7)):
        if nv > 1 and rng.random() < 0.7:
            x, y = rng.sample(range(nv), 2)
            rows.append({x: one, y: -one})
        else:
            rows.append({rng.randrange(nv): rng.choice((one, -one))})
        b = rat(rng.randint(1, 9), rng.randint(1, 3))
        rhs.append(rat(0) if rng.random() < 0.4 else b)
    for j in range(nv):  # box rows keep the region bounded
        rows.append({j: one})
        b = rat(rng.randint(1, 9), rng.randint(1, 2))
        rhs.append(rat(0) if rng.random() < 0.2 else b)
    return objective, rows, rhs


def test_matches_scipy_on_random_bounded_problems():
    rng = random.Random(5)
    for _ in range(30):
        objective, rows, rhs = _network_lp(rng)
        nv = len(objective)
        result = simplex_max(objective, rows, rhs)

        a_ub = [[float(row.get(j, 0)) for j in range(nv)] for row in rows]
        b_ub = [float(b) for b in rhs]
        res = linprog(
            [-float(c) for c in objective], A_ub=a_ub, b_ub=b_ub, method="highs"
        )
        assert res.status == 0
        assert abs(float(result.objective_value) - (-res.fun)) < 1e-7


def test_matches_dense_oracle_on_network_lps():
    # Zero right-hand sides make many of these LPs degenerate, so the
    # oracle covers Bland's tie-break on ratio ties as well as the vertex,
    # duals and value.
    rng = random.Random(17)
    degenerate = 0
    for _ in range(200):
        objective, rows, rhs = _network_lp(rng)
        expected = dense_simplex_max(objective, rows, rhs)
        assert simplex_max(objective, rows, rhs) == expected
        degenerate += any(b == 0 for b in rhs) and expected.pivots > 0
    assert degenerate > 50


def _distinct_denominator_weights(rng, n):
    """Weights whose denominators are pairwise different primes."""
    dens = rng.sample((2, 3, 5, 7, 11, 13), n)
    return WeightVector(rat(rng.choice([a for a in range(1, 2 * q) if a != q]), q) for q in dens)


@pytest.mark.parametrize(
    "m,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4)]
)
@pytest.mark.parametrize("v", ["0", "1/2", "1", "5/7"])
def test_matches_dense_oracle_on_polytope_lps(m, n, v):
    # solve_lp's int-coefficient rows must give the result of the rational
    # standard form, pivots included, through simplex_max and the dense
    # oracle alike; the all-pairs build runs on the smaller tables.  Both
    # builds are totally unimodular, so no pivot is refused.
    rng = random.Random(f"oracle:{m}:{n}:{v}")
    for pairs in ("adjacent", "all") if m**n <= 9 else ("adjacent",):
        for weights in (instances.random_weights, _distinct_denominator_weights):
            k = instances.random_table(rng, m, n)
            w = weights(rng, n)
            problem = build_polytope_lp(k, w, v, pairs=pairs)
            rows, rhs = standard_form(problem)
            result = solve_lp(problem)
            assert result == simplex_max(problem.objective, rows, rhs)
            assert result == dense_simplex_max(problem.objective, rows, rhs)


@pytest.mark.parametrize(
    "m,n,pivots,value,digest",
    [
        (3, 4, 250, "4117/24", "ce4ad2bfb01c7ce4"),
        (2, 5, 70, "20723/600", "66b72a4fe9379293"),
    ],
)
def test_bland_pivot_sequence_pinned_beyond_the_dense_oracle(m, n, pivots, value, digest):
    # Too large for the dense oracle: the pivot count, the value and a digest
    # of the vertex and duals pin Bland's pivot sequence and its tie-break.
    rng = random.Random(1)
    k = instances.random_table(rng, m, n)
    w = instances.random_weights(rng, n)
    result = solve_lp(build_polytope_lp(k, w, 0))
    assert result.pivots == pivots
    assert result.objective_value == rat(value)
    entries = " ".join(map(str, result.primal + result.dual))
    assert hashlib.sha256(entries.encode()).hexdigest()[:16] == digest


def _solved_with_tampering(monkeypatch, problem, tamper):
    """solve_lp with the pivot core's result passed through ``tamper`` first."""
    pivot = hammix.simplex._pivot
    with monkeypatch.context() as patch:
        patch.setattr(hammix.simplex, "_pivot", lambda *args: tamper(pivot(*args)))
        solve_lp(problem)


def _replace(values, index, value):
    return values[:index] + (value,) + values[index + 1 :]


@pytest.mark.parametrize("m", [2, 3])
def test_integer_checker_rejects_tampering_on_the_solve_lp_path(monkeypatch, m):
    rng = random.Random(f"tamper:{m}")
    tested = 0
    while tested < 4:
        k = instances.random_table(rng, m, 2)
        w = _distinct_denominator_weights(rng, 2)
        problem = build_polytope_lp(k, w, "1/2")
        good = solve_lp(problem)
        nv, upper = problem.num_vars, problem.upper_bound
        positive = [i for i, y in enumerate(good.dual) if y > 0]
        if not positive:
            continue
        tested += 1

        def check(tamper, message):
            with pytest.raises(CertificateError, match=message):
                _solved_with_tampering(monkeypatch, problem, tamper)

        # A primal entry over the box breaks box row j.
        j = rng.randrange(nv)
        check(lambda r: _tampered(r, primal=_replace(r.primal, j, upper + rat(1, 3))),
              f"primal row {j} violated")

        check(lambda r: _tampered(r, primal=_replace(r.primal, j, rat(-1, 2))),
              f"primal variable {j} negative")

        # x[a] = U, x[b] = 0 stays in the box and breaks (a, b, d) since d < U.
        row = rng.randrange(len(problem.difference_constraints))
        a, b, _ = problem.difference_constraints[row]

        def break_difference(r):
            return _tampered(r, primal=_replace(_replace(r.primal, a, upper), b, rat(0)))

        with pytest.raises(CertificateError, match=r"primal row \d+ violated") as err:
            _solved_with_tampering(monkeypatch, problem, break_difference)
        assert int(err.value.args[0].split()[2]) >= nv

        i = rng.randrange(len(good.dual))
        check(lambda r: _tampered(r, dual=_replace(r.dual, i, rat(-1, 2))),
              f"dual multiplier {i} negative")

        # A positive dual sits on a tight row whose positive coefficient is on
        # a variable x > 0, so that variable's dual row is tight: lowering
        # the multiplier to 0 breaks it.
        i = rng.choice(positive)
        column = i if i < nv else problem.difference_constraints[i - nv][0]
        check(lambda r: _tampered(r, dual=_replace(r.dual, i, rat(0))),
              f"dual row for variable {column} violated")

        check(lambda r: _tampered(
            r, objective_value=r.objective_value + rat(1, r.objective_value.denominator)),
            "objective mismatch")
