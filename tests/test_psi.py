import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hammix.cli as cli
from hammix.psi import norm_shift, psi, psi_decomposition_rhs, ramp
from hammix.rational import rat
from hammix.words import TableFunction, WeightVector
from table_oracle import constant, scale


def _psi_norm(w, k):
    """max(psi(w, k), psi(w, -k)) as ``hammix psi`` reports it: psi plus norm_shift."""
    return psi(w, k) + norm_shift(w, k)


def test_ramp():
    assert ramp(0) == 0
    assert ramp("-3/2") == 0
    assert ramp("5/7") == rat(5, 7)


def _psi_oracle(w, table, m, n):
    """Definition-chasing evaluation on dict-keyed tables with Fractions.

    Level i contributes w_i times the ramped sum of the (i-1)-fold
    first-coordinate projection; projections are computed by direct
    summation over prefixes, independently of the package's index
    arithmetic.
    """
    tbl = {x: Fraction(int(v.numerator), int(v.denominator)) for x, v in table.items()}
    total = Fraction(0)
    for i in range(n):
        wi = Fraction(int(w[i].numerator), int(w[i].denominator))
        total += wi * sum(v for v in tbl.values() if v > 0)
        tbl = {
            y: sum(tbl[(a,) + y] for a in range(m))
            for y in product(range(m), repeat=n - i - 1)
        }
    return total


def test_psi_arity_zero_is_zero():
    assert psi(WeightVector(()), TableFunction(2, 0, (17,))) == 0
    assert psi(WeightVector(()), TableFunction(3, 0, ("-2/3",))) == 0


def test_psi_hand_unrolled_examples():
    assert psi(WeightVector((1,)), TableFunction(2, 1, (1, -1))) == 1

    k = TableFunction(2, 2, (1, 0, 0, -1))
    assert psi(WeightVector((1, 1)), k) == 2
    assert psi(WeightVector(("1/2", 3)), k) == rat(7, 2)


def test_psi_matches_definition_oracle():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.choice((2, 3))
        n = rng.choice((0, 1, 2, 3))
        vals = {
            x: rat(rng.randint(-9, 9), rng.randint(1, 5))
            for x in product(range(m), repeat=n)
        }
        k = TableFunction(m, n, tuple(vals[x] for x in sorted(vals)))
        w = WeightVector([rat(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n)])
        expected = _psi_oracle(w, vals, m, n)
        assert psi(w, k) == expected


def test_psi_length_mismatch():
    with pytest.raises(ValueError):
        psi(WeightVector((1,)), TableFunction(2, 2, (0, 0, 0, 0)))


def test_psi_norm_examples():
    w = WeightVector((1,))
    assert _psi_norm(w, TableFunction(2, 1, (0, 0))) == 0
    assert _psi_norm(w, TableFunction(2, 1, (1, -1))) == 1
    assert _psi_norm(w, TableFunction(2, 1, (2, -1))) == 2


def test_decomposition_examples():
    k = TableFunction(2, 2, (1, 0, 0, -1))
    w = WeightVector((1, 1))
    assert psi_decomposition_rhs(w, k) == psi(w, k) == 2

    k1 = TableFunction(2, 1, (1, -1))
    assert psi_decomposition_rhs(WeightVector((1,)), k1) == 1

    zero = constant(3, 2, 0)
    assert psi_decomposition_rhs(WeightVector((1, 1)), zero) == 0

    with pytest.raises(ValueError):
        psi_decomposition_rhs(WeightVector(()), TableFunction(2, 0, (1,)))


def test_decomposition_holds_on_random_instances():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.choice((2, 3))
        n = rng.choice((1, 2, 3))
        k = TableFunction(m, n, [rat(rng.randint(-18, 18), rng.randint(1, 6)) for _ in range(m**n)])
        w = WeightVector([rat(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(n)])
        assert psi(w, k) == psi_decomposition_rhs(w, k)


@st.composite
def _table_and_weights(draw):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    vals = draw(st.lists(entry, min_size=m**n, max_size=m**n))
    weight = st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6)
    w = draw(st.lists(weight, min_size=n, max_size=n))
    return TableFunction(m, n, tuple(vals)), WeightVector(w)


@given(_table_and_weights(), st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
@settings(max_examples=150, deadline=None)
def test_psi_positive_homogeneity(tw, a):
    k, w = tw
    assert psi(w, scale(k, a)) == rat(a) * psi(w, k)


@given(_table_and_weights(), st.fractions(min_value=-4, max_value=4, max_denominator=4))
@settings(max_examples=150, deadline=None)
def test_psi_norm_absolute_homogeneity(tw, a):
    k, w = tw
    assert _psi_norm(w, scale(k, a)) == abs(rat(a)) * _psi_norm(w, k)


@given(_table_and_weights())
@settings(max_examples=150, deadline=None)
def test_psi_monotone_in_weights(tw):
    k, w = tw
    bigger = WeightVector([e + rat(1, 3) for e in w])
    assert psi(w, k) <= psi(bigger, k)


@given(_table_and_weights())
@settings(max_examples=150, deadline=None)
def test_psi_sign_symmetry_gives_psi_norm(tw):
    k, w = tw
    assert psi(w, -k) == psi(w, k) - w.total() * k.total()
    assert _psi_norm(w, k) == max(psi(w, k), psi(w, -k))


def test_psi_norm_evaluates_psi_once(monkeypatch, tmp_path, capsys):
    # ``hammix psi`` reports psi_norm from its one psi evaluation.
    calls = []

    def counted(w, k):
        calls.append(k)
        return psi(w, k)

    monkeypatch.setattr(cli, "psi", counted)
    table = ("-2", "1/2", "-3/4", "1", "-5/2", "0", "3/5", "-1", "-1/3")
    doc = {"alphabet": 3, "n": 2, "weights": ["2/3", "5/4"], "function": {"table": list(table)}}
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["psi", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["psi_norm"] == "1439/144"
    assert calls == [TableFunction(3, 2, table)]
