import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hammix.cli as cli
from hammix.instances import random_table, random_weights
from hammix.lipschitz_lp import PhiPsiReport
from hammix.martingale import SumViReport
from hammix.rational import rat, rat_str
from hammix.simplex import CertificateError
from hammix.words import Builtin


GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = GOLDEN.parent.parent / "sample_problems"


def _write(tmp_path, doc, name="problem.json"):
    path = Path(tmp_path) / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def psi_file(tmp_path):
    return _write(
        tmp_path,
        {
            "alphabet": 2,
            "n": 2,
            "weights": ["1", "1"],
            "function": {"table": ["1", "0", "0", "-1"]},
        },
    )


@pytest.fixture
def chain_file(tmp_path):
    return _write(
        tmp_path,
        {
            "alphabet": 2,
            "n": 2,
            "weights": ["1", "1"],
            "function": "sum_of_symbols",
            "measure": {
                "markov": {
                    "init": ["1/2", "1/2"],
                    "transitions": [[["9/10", "1/10"], ["1/10", "9/10"]]],
                }
            },
            "thresholds": [1.0, 2.0],
            "simulation": {"sample_count": 500, "seed": 11, "thresholds": [1.0]},
        },
    )


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    payload = _strict_json(captured.out) if captured.out else None
    return code, payload, captured.err


def test_importing_the_cli_leaves_hashlib_unloaded():
    # hashlib (and the libcrypto it loads) is imported only to digest a file.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, hammix.cli; print('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_psi_subcommand(capsys, psi_file):
    code, payload, _ = _run(capsys, ["psi", psi_file])
    assert code == 0
    assert payload["psi"] == "2/1"
    assert payload["psi_norm"] == "2/1"
    assert payload["tool"] == "hammix"
    assert payload["version"]
    assert payload["input_digest"].startswith("sha256:")


def test_phi_subcommand(capsys, psi_file):
    code, payload, _ = _run(capsys, ["phi", psi_file])
    assert code == 0
    assert payload["phi_norm"] == "2/1"
    assert payload["positive"]["objective_value"] == "2/1"
    assert len(payload["positive"]["primal"]) == 4
    assert payload["negative"]["objective_value"] == "2/1"


def test_phi_norm_is_the_larger_of_the_two_printed_values(capsys, tmp_path):
    # phi reads phi_norm as the positive value plus norm_shift; on seeded
    # tables of either total's sign that is the larger signed supremum.
    rng = random.Random(29)
    signs = set()
    for _ in range(40):
        m, n = rng.choice((2, 3)), rng.choice((1, 2))
        k = random_table(rng, m, n)
        doc = {
            "alphabet": m,
            "n": n,
            "weights": [rat_str(x) for x in random_weights(rng, n)],
            "function": {"table": [rat_str(x) for x in k.values]},
        }
        code, payload, _ = _run(capsys, ["phi", _write(tmp_path, doc)])
        values = [rat(payload[sign]["objective_value"]) for sign in ("positive", "negative")]
        assert code == 0 and rat(payload["phi_norm"]) == max(values)
        signs.add(k.total() > 0)
    assert signs == {False, True}


def test_verify_lp_subcommand(capsys, psi_file):
    code, payload, _ = _run(capsys, ["verify-lp", psi_file])
    assert code == 0
    assert payload["lhs"] == "2/1"
    assert payload["rhs"] == "2/1"
    assert payload["holds"] is True
    assert payload["norm_holds"] is True


def test_decompose_subcommand(capsys, psi_file):
    code, payload, _ = _run(capsys, ["decompose", psi_file])
    assert code == 0
    assert payload["psi"] == payload["decomposition_rhs"] == "2/1"
    assert payload["equal"] is True


def test_eta_subcommand(capsys, chain_file):
    code, payload, _ = _run(capsys, ["eta", chain_file])
    assert code == 0
    assert payload["eta_bar"] == [{"i": 1, "j": 2, "value": "4/5"}]
    assert payload["delta"] == [["1/1", "4/5"], ["0/1", "1/1"]]
    assert payload["delta_operator_norm"] == pytest.approx(1.4770329614269009, abs=1e-9)


def test_martingale_subcommand(capsys, chain_file):
    code, payload, _ = _run(capsys, ["martingale", chain_file])
    assert code == 0
    assert payload["v_bars"] == ["9/10", "9/10"]
    assert payload["lhs"] == "81/50"
    assert payload["rhs"] == "106/25"
    assert payload["holds"] is True
    assert payload["per_coordinate_holds"] == [True, True]


def test_bound_subcommand(capsys, chain_file):
    code, payload, _ = _run(capsys, ["bound", chain_file])
    assert code == 0
    assert payload["lipschitz"] == "1/1"
    assert [row["t"] for row in payload["per_t"]] == [1.0, 2.0]
    assert all(row["bound"] > 0 for row in payload["per_t"])


def test_simulate_subcommand_and_seed_override(capsys, chain_file):
    code, payload, _ = _run(capsys, ["simulate", chain_file])
    assert code == 0
    assert payload["seed"] == 11
    assert payload["sample_count"] == 500
    assert payload["per_t"][0]["t"] == 1.0
    frequency = payload["per_t"][0]["frequency"]

    code, payload2, _ = _run(capsys, ["simulate", chain_file])
    assert payload2["per_t"][0]["frequency"] == frequency  # same seed, same result

    code, payload3, _ = _run(capsys, ["simulate", chain_file, "--seed", "99"])
    assert code == 0
    assert payload3["seed"] == 99


@pytest.mark.parametrize(
    "name", ["markov_indicator", "markov_hamming", "dense_m2n8", "constant_function", "chain_simulate"]
)
def test_simulate_reports_the_bound_subcommand_corollary(capsys, name):
    # Each file simulates at its own thresholds, so simulate's corollary
    # column is bound's report: a chain on the table path and on the kernel
    # path, a dense measure, and a constant function (every bound 0).
    path = GOLDEN / f"{name}.json"
    if not path.exists():
        path = GOLDEN.parent.parent / "sample_problems" / f"{name}.json"
    doc = json.loads(path.read_text())
    assert doc["thresholds"] == doc["simulation"]["thresholds"]
    _, bound, _ = _run(capsys, ["bound", str(path)])
    _, simulated, _ = _run(capsys, ["simulate", str(path)])
    assert [row["corollary"] for row in simulated["per_t"]] == [row["bound"] for row in bound["per_t"]]
    assert [row["t"] for row in simulated["per_t"]] == doc["thresholds"]


def test_one_parser_per_process_keeps_no_state_between_calls(capsys, chain_file):
    assert cli._parser() is cli._parser()
    code, payload, _ = _run(capsys, ["simulate", "--seed", "5", "--max-table", "4", chain_file])
    assert (code, payload["seed"]) == (0, 5)
    code, payload, _ = _run(capsys, ["simulate", chain_file])
    assert (code, payload["seed"]) == (0, 11)  # the file's seed
    code, _, err = _run(capsys, ["bound", "--max-table", "3", chain_file])
    assert code == 1 and "exceeds" in err
    code, payload, _ = _run(capsys, ["bound", chain_file])
    assert code == 0 and payload["lipschitz"] == "1/1"


def test_report_text_is_json_dumps_with_indent_2():
    doc = {
        "tool": "hammix",
        "rows": [{"i": 1, "j": 2, "value": "3/4"}, {"i": -5, "j": 10**30, "value": "0/1"}],
        "delta": [["1/2", "1/3"], [], ["\u00e9\n\"\\"]],
        "floats": [0.1, 1e300, 5e-324, -0.0, float("inf"), float("nan"), 2.0],
        "flags": [True, False, None],
        "empty": {},
        "nested": {"a": {"b": [[{}], ()]}},
    }
    assert cli._json_text(doc) == json.dumps(doc, indent=2)
    assert cli._json_text([]) == "[]" and cli._json_text("x") == '"x"'


@pytest.mark.parametrize(
    "argv",
    [[command, str(GOLDEN / "dense_m2n8.json")] for command in ("psi", "decompose", "eta", "martingale", "bound", "simulate")]
    + [[command, str(SAMPLES / "lp_small.json")] for command in ("phi", "verify-lp")]
    + [["selftest", "--instances", "3", "--mc-samples", "100"]],
    ids=lambda argv: argv[0],
)
def test_a_cli_call_leaves_no_cyclic_garbage(capsys, argv):
    # Reference cycles outlive the call until the cyclic collector runs.  The
    # first call builds what the process keeps (the parser, imports); the
    # second must leave nothing for the collector.
    cli.main(argv)
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = cli.main(argv)
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert code == 0
    assert garbage == []


def test_chain_past_the_dense_cap_runs_the_kernel_stages(capsys, tmp_path):
    # 3^100 words: eta reads the chain's kernels and caps only its 100x100
    # Delta; martingale, bound and simulate read sum_of_symbols' terms and
    # the kernels.  Stages that read f's table still refuse, and so do the
    # martingale stages of indicator, whose profile needs the table.
    n = 100
    doc = json.loads((GOLDEN / "chain_m3n100.json").read_text())
    assert (doc["alphabet"], doc["n"], doc["function"]) == (3, n, "sum_of_symbols")
    doc["simulation"]["sample_count"] = 500
    chain = _write(tmp_path, doc)
    code, payload, _ = _run(capsys, ["eta", chain])
    assert code == 0
    assert len(payload["delta"]) == n and all(len(row) == n for row in payload["delta"])
    code, _, err = _run(capsys, ["eta", "--max-table", str(n * n - 1), chain])
    assert code == 1 and "exceeds the cap" in err
    code, payload, _ = _run(capsys, ["martingale", chain])
    assert code == 0 and len(payload["v_bars"]) == n and payload["holds"]
    code, payload, _ = _run(capsys, ["bound", chain])
    assert code == 0 and payload["lipschitz"] == "2/1"
    code, payload, _ = _run(capsys, ["simulate", chain])
    assert code == 0 and payload["sample_count"] == 500
    for command in ("psi", "decompose"):
        code, _, err = _run(capsys, [command, chain])
        assert code == 1 and "n: dense table of 3^100 entries exceeds the cap" in err
    indicator = _write(tmp_path, dict(doc, function="indicator:" + "0" * n), "indicator.json")
    for command in ("martingale", "simulate"):
        code, _, err = _run(capsys, [command, indicator])
        assert code == 1 and "n: dense table of 3^100 entries exceeds the cap" in err
    code, payload, _ = _run(capsys, ["bound", indicator])
    assert code == 0 and payload["lipschitz"] == "1/1"


@pytest.mark.parametrize(
    "command,expansions,sums,tables",
    [
        ("eta", 0, 0, []),
        ("bound", 0, 0, []),
        ("martingale", 0, 0, []),
        ("simulate", 0, 0, []),
    ],
)
def test_chain_is_expanded_only_where_a_table_is_read(
    capsys, chain_file, builds, command, expansions, sums, tables
):
    # On a sum_of_symbols chain every stage reads the kernels and f's
    # per-coordinate terms only: no expansion, no conditional sums, no table.
    code, _, _ = _run(capsys, [command, chain_file])
    assert code == 0
    assert builds == {"expand_markov": expansions, "conditional_sums": sums, "tables": tables}


@pytest.mark.parametrize("command", ["martingale", "simulate"])
def test_indicator_chain_reads_its_table(capsys, chain_file, builds, command):
    # indicator's profile and sample values come from its table and the
    # chain's, each built once.
    doc = json.loads(Path(chain_file).read_text())
    path = _write(os.path.dirname(chain_file), dict(doc, function="indicator:01"), "indicator.json")
    code, _, _ = _run(capsys, [command, path])
    assert code == 0
    assert builds == {"expand_markov": 1, "conditional_sums": 1, "tables": ["TableFunction", "Measure"]}


@pytest.mark.parametrize("command", ["martingale", "simulate"])
def test_indicator_table_is_capped_before_any_table_is_built(capsys, tmp_path, builds, command):
    # The chain's 3x3 Delta fits a cap of 20; indicator's 27-entry table does not.
    uniform = ["1/3"] * 3
    doc = {
        "alphabet": 3,
        "n": 3,
        "weights": ["1", "1", "1"],
        "function": "indicator:012",
        "measure": {"markov": {"init": uniform, "transitions": [[uniform] * 3] * 2}},
        "simulation": {"sample_count": 10, "seed": 1, "thresholds": [1.0]},
    }
    code, _, err = _run(capsys, [command, "--max-table", "20", _write(tmp_path, doc)])
    assert code == 1 and "n: dense table of 3^3 entries exceeds the cap of 20" in err
    assert builds == {"expand_markov": 0, "conditional_sums": 0, "tables": []}


@pytest.mark.parametrize("command", ["martingale", "simulate"])
def test_builtin_on_a_dense_measure_keeps_its_closed_form_lipschitz_constant(
    capsys, tmp_path, builds, monkeypatch, command
):
    # The Lipschitz constant reads the builtin's oscillations, not a scan
    # of its table; the profile and the sampler read one table.
    calls = []
    oscillations = Builtin.oscillations
    monkeypatch.setattr(Builtin, "oscillations", lambda self: calls.append(self.name) or oscillations(self))
    doc = {
        "alphabet": 2,
        "n": 2,
        "weights": ["1/2", "3"],
        "function": "hamming_to:01",
        "measure": {"dense": ["1/4", "1/4", "0", "1/2"]},
        "simulation": {"sample_count": 50, "seed": 1, "thresholds": [1.0]},
    }
    code, _, _ = _run(capsys, [command, _write(tmp_path, doc)])
    assert code == 0 and calls == ["hamming_to"]
    assert builds["tables"] == ["Measure", "TableFunction"]


@pytest.mark.parametrize("function", ["sum_of_symbols", "indicator:10", "hamming_to:01"])
def test_bound_builds_no_table_of_a_builtin(capsys, tmp_path, builds, function):
    # A builtin's Lipschitz constant is closed-form; only the file's dense
    # measure is a table.
    doc = {
        "alphabet": 2,
        "n": 2,
        "weights": ["1/2", "3"],
        "function": function,
        "measure": {"dense": ["1/4", "1/4", "0", "1/2"]},
        "thresholds": [1.0],
    }
    code, payload, _ = _run(capsys, ["bound", _write(tmp_path, doc)])
    assert code == 0
    assert payload["lipschitz"] == {"sum_of_symbols": "2/1", "indicator:10": "2/1", "hamming_to:01": "1/1"}[function]
    assert builds["tables"] == ["Measure"]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_table_below_one_is_refused(capsys, chain_file, value):
    code, payload, err = _run(capsys, ["martingale", "--max-table", value, chain_file])
    assert (code, payload) == (1, None)
    assert f"invalid argument: --max-table must be >= 1, got {value}" in err


def test_selftest_subcommand(capsys):
    code, payload, err = _run(
        capsys, ["selftest", "--instances", "8", "--seed", "3", "--mc-samples", "1500"]
    )
    assert code == 0
    assert payload["all_passed"] is True
    assert len(payload["criteria"]) == 10
    assert [c["number"] for c in payload["criteria"]] == list(range(1, 11))
    assert "criterion" in err


def test_invalid_weight_exits_1(capsys, tmp_path):
    path = _write(
        tmp_path,
        {"alphabet": 2, "n": 1, "weights": ["0"], "function": {"table": ["1", "2"]}},
    )
    code, payload, err = _run(capsys, ["psi", path])
    assert code == 1
    assert payload is None
    assert "weights[0]" in err and "> 0" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = _run(capsys, ["psi", str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot read" in err


def test_bad_json_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["psi", str(path)])
    assert code == 1
    assert "not valid JSON" in err


def test_missing_weights_exits_1(capsys, tmp_path):
    path = _write(tmp_path, {"alphabet": 2, "n": 1, "function": {"table": ["1", "2"]}})
    code, _, err = _run(capsys, ["psi", path])
    assert code == 1
    assert "weights" in err


@pytest.mark.parametrize("command", ["psi", "phi", "verify-lp", "decompose", "eta", "bound"])
def test_empty_word_length_exits_1(capsys, tmp_path, command):
    path = _write(
        tmp_path,
        {
            "alphabet": 2,
            "n": 0,
            "weights": [],
            "function": {"table": ["1"]},
            "measure": {"dense": ["1"]},
            "thresholds": [1.0],
        },
    )
    code, payload, err = _run(capsys, [command, path])
    assert code == 1
    assert payload is None
    assert "n: expected an integer >= 1" in err


def test_non_finite_threshold_exits_1(capsys, tmp_path):
    # NaN and Infinity are what Python's json module decodes, not strict JSON.
    path = tmp_path / "nan.json"
    path.write_text(
        '{"alphabet": 2, "n": 1, "weights": ["1"], "function": {"table": ["0", "1"]},'
        ' "measure": {"dense": ["1/2", "1/2"]}, "thresholds": [NaN, Infinity]}'
    )
    code, payload, err = _run(capsys, ["bound", str(path)])
    assert code == 1
    assert payload is None
    assert "thresholds[0]" in err and "finite" in err


def test_max_table_flag(capsys, psi_file):
    code, _, err = _run(capsys, ["psi", psi_file, "--max-table", "2"])
    assert code == 1
    assert "exceeds" in err


def test_violation_exits_3(capsys, psi_file, monkeypatch):
    # The verified inequality cannot actually fail, so fake a violating
    # report to pin the exit-code contract for CI gating.
    fake = PhiPsiReport(lhs=rat(2), rhs=rat(1))
    monkeypatch.setattr(cli, "verify_phi_psi", lambda *a, **k: fake)
    code, payload, _ = _run(capsys, ["verify-lp", psi_file])
    assert code == 3
    assert payload["holds"] is False


@pytest.mark.parametrize(
    "v_bars,delta_w,lhs,rhs,holds,per_i_holds",
    [
        ((2, 1), (1, 1), 5, 2, False, (False, True)),
        ((1, 1), (2, rat(1, 2)), 2, rat(17, 4), True, (True, False)),
    ],
    ids=["sum-and-one-coordinate", "one-coordinate"],
)
def test_martingale_violation_exits_3(capsys, chain_file, monkeypatch, v_bars, delta_w, lhs, rhs, holds, per_i_holds):
    # As for verify-lp, the exact check cannot fail on real input, so a
    # violating report is faked from numbers that violate it, with
    # lhs = sum v_bar_i^2 and rhs = lipschitz^2 sum (Delta w)_i^2.  The
    # per-coordinate bounds imply the summed one, so a failed sum comes
    # with a failed coordinate.
    fake = SumViReport(
        v_bars=tuple(map(rat, v_bars)),
        lhs=rat(lhs),
        rhs=rat(rhs),
        lipschitz=rat(1),
        delta_w=tuple(map(rat, delta_w)),
    )
    monkeypatch.setattr(cli, "verify_sumvi", lambda *a, **k: fake)
    code, payload, err = _run(capsys, ["martingale", chain_file])
    assert code == 3
    assert payload["holds"] is holds
    assert payload["per_coordinate_holds"] == list(per_i_holds)
    assert "VIOLATED" in err


def test_certificate_failure_exits_2(capsys, psi_file, monkeypatch):
    def boom(*args, **kwargs):
        raise CertificateError("synthetic failure")

    monkeypatch.setattr(cli, "solve_lp", boom)
    code, payload, err = _run(capsys, ["phi", psi_file])
    assert code == 2
    assert payload is None
    assert "certificate" in err


@pytest.mark.parametrize(
    "raw",
    [b"[" * 200000, b"\xff\xfe{", b'{"alphabet": ' + b"1" * 5000 + b"}"],
    ids=["deep-nesting", "undecodable-bytes", "huge-int-literal"],
)
def test_undecodable_documents_exit_1(capsys, tmp_path, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    code, payload, err = _run(capsys, ["psi", str(path)])
    assert code == 1
    assert payload is None
    assert "$: not valid JSON" in err


def test_huge_decimal_exponent_exits_1_naming_the_field(capsys, tmp_path):
    path = _write(
        tmp_path,
        {"alphabet": 2, "n": 1, "weights": ["1"], "function": {"table": ["0", "1e5000"]}},
    )
    code, payload, err = _run(capsys, ["psi", path])
    assert code == 1
    assert payload is None
    assert "function.table[1]" in err and "exponent" in err


@pytest.mark.parametrize(
    "command,doc,field",
    [
        ("verify-lp", {"function": {"table": ["0", "1"]}, "v": "1e4300"}, "v"),
        ("psi", {"function": {"table": ["0", "1e4300"]}}, "function.table[1]"),
        ("psi", {"weights": ["1e-4300"], "function": {"table": ["0", "1"]}}, "weights[0]"),
    ],
    ids=["v", "table-entry", "weight"],
)
def test_decimal_past_the_digit_limit_exits_1_naming_the_field(capsys, tmp_path, command, doc, field):
    # Each exponent is accepted, but the value it spells has 4301 digits.
    path = _write(tmp_path, {"alphabet": 2, "n": 1, "weights": ["1"], **doc})
    code, payload, err = _run(capsys, [command, path])
    assert code == 1
    assert payload is None
    assert f"{field}: cannot parse rational" in err and "4300 digits" in err


def test_report_past_the_digit_limit_exits_1(capsys, tmp_path):
    # Every input has 2201 digits; psi = w_1 * 10**2200 has 4401.
    doc = {"alphabet": 2, "n": 1, "weights": ["1e2200"], "function": {"table": ["1e2200", "0"]}}
    code, payload, err = _run(capsys, ["psi", _write(tmp_path, doc)])
    assert code == 1
    assert payload is None
    assert "cannot write the report" in err and "4300 digits" in err


@pytest.mark.parametrize(
    "flag,value", [("--instances", "0"), ("--instances", "-3"), ("--mc-samples", "0")]
)
def test_selftest_rejects_nonpositive_counts(capsys, flag, value):
    code, payload, err = _run(capsys, ["selftest", "--instances", "2", "--mc-samples", "10", flag, value])
    assert code == 1
    assert payload is None
    assert flag in err


def _extreme_doc(scale, table_value):
    return {
        "alphabet": 2,
        "n": 2,
        "weights": [scale, "1"],
        "function": {"table": [table_value, "0", "0", "1"]},
        "measure": {"dense": ["1/4", "1/4", "1/4", "1/4"]},
        "thresholds": [1.0, 1e308],
        "simulation": {"sample_count": 10, "seed": 1},
    }


@pytest.mark.parametrize("command", ["bound", "simulate"])
def test_variance_past_the_float_range_gives_the_vacuous_bound(capsys, tmp_path, command):
    # d^2 is about 10^400: past the largest float, within the digit limit.
    path = _write(tmp_path, _extreme_doc("1e200", "1e200"))
    code = cli.main([command, path])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 0
    key = "bound" if command == "bound" else "corollary"
    assert [row[key] for row in payload["per_t"]] == [2.0, 2.0]
    if command == "simulate":
        assert [row["azuma"] for row in payload["per_t"]] == [2.0, 2.0]


@pytest.mark.parametrize("command", ["bound", "simulate"])
def test_variance_past_the_digit_limit_exits_1(capsys, tmp_path, command):
    # Every input has 2201 digits; ||w||^2 and d^2 have about 4400.
    code, payload, err = _run(capsys, [command, _write(tmp_path, _extreme_doc("1e2200", "1e2200"))])
    assert code == 1
    assert payload is None
    assert "cannot write the report" in err


@pytest.mark.parametrize("command", ["bound", "simulate"])
def test_positive_variance_below_the_float_range(capsys, tmp_path, command):
    # d^2 is about 10^-400, which float() rounds to 0.0.
    doc = {
        "alphabet": 2,
        "n": 1,
        "weights": ["1"],
        "function": {"table": ["0", "1e-200"]},
        "measure": {"dense": ["1/2", "1/2"]},
        "thresholds": [1e-300, 1.0],
        "simulation": {"sample_count": 10, "seed": 1},
    }
    code = cli.main([command, _write(tmp_path, doc)])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 0
    key = "bound" if command == "bound" else "corollary"
    # t^2 underflows for t = 1e-300, which leaves the vacuous bound.
    assert [row[key] for row in payload["per_t"]] == [2.0, 0.0]


@pytest.mark.parametrize("function", ["sum_of_symbols", "indicator:01"])
@pytest.mark.parametrize("command", ["bound", "simulate"])
def test_tail_bound_is_a_number_when_both_squares_overflow(capsys, tmp_path, command, function):
    # t^2 and 2 ||Delta w||^2 c^2 (or 2 d^2) both overflow: inf / inf would be NaN.
    doc = {
        "alphabet": 2,
        "n": 2,
        "weights": ["1e-154", "1"],
        "function": function,
        "measure": {"dense": ["1/4", "1/4", "1/4", "1/4"]},
        "thresholds": [1e200],
        "simulation": {"sample_count": 10, "seed": 1},
    }
    code = cli.main([command, _write(tmp_path, doc)])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 0
    key = "bound" if command == "bound" else "corollary"
    assert [row[key] for row in payload["per_t"]] == [0.0]


@pytest.mark.parametrize("function", ["indicator:11", "hamming_to:11"])
def test_one_symbol_word_over_a_large_alphabet(capsys, tmp_path, function):
    # With n = 1 the word is one symbol, so it has no comma to write.
    doc = {
        "alphabet": 12,
        "n": 1,
        "weights": ["1"],
        "function": function,
        "measure": {"dense": ["1/12"] * 12},
        "thresholds": [1.0],
    }
    code, payload, _ = _run(capsys, ["bound", _write(tmp_path, doc)])
    assert code == 0
    assert payload["lipschitz"] == "1/1"
    code, payload, err = _run(capsys, ["bound", _write(tmp_path, {**doc, "function": function + ","})])
    assert code == 1 and payload is None
    assert "cannot parse word" in err
