import csv
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, fields

import pytest

from bikoeff import cli, oracle
from bikoeff.bounds import BoundBreakdown, a5_family, class_bounds
from bikoeff.classes import apply_operator, parse_spec
from bikoeff.cli import main, render
from bikoeff.oracle import SearchConfig, check_a5_system, max_coeff
from bikoeff.series import TruncatedSeries, revert


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- exit codes --------------------------------------------------------------


def test_bounds_exits_zero(capsys):
    code, out, _ = run(capsys, "bounds", "st:lambda=0:order:rho=0")
    assert code == 0
    assert "a2" in out


def test_bad_spec_exits_one(capsys):
    code, _, err = run(capsys, "bounds", "bad:spec")
    assert code == 1
    assert "error" in err


def test_bad_flag_exits_one(capsys):
    code, _, _ = run(capsys, "bounds", "st:lambda=0:order:rho=0", "--format", "yaml")
    assert code == 1


def test_unknown_coefficient_exits_one(capsys):
    code, _, err = run(capsys, "bounds", "st:lambda=0:order:rho=0", "--coeffs", "a9")
    assert code == 1
    assert "a9" in err


@pytest.mark.parametrize("argv,name", [
    (("bounds", "st:lambda=0:order:rho=1/4", "--coeffs", "a2,a2"), "a2"),
    (("bounds", "st:lambda=0:order:rho=1/4", "--coeffs", "a2, a3,a2"), "a2"),
    (("sweep", "st:lambda={}:order:rho=0", "--param", "lambda", "--range", "0:1:3",
      "--coeffs", "a3,a4,a3"), "a3"),
])
def test_repeated_coefficient_exits_one(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"coefficient {name!r} given more than once" in err


def test_missing_command_exits_one(capsys):
    assert run(capsys)[0] == 1


@pytest.fixture
def tiny_bounds(monkeypatch):
    tiny = BoundBreakdown(0.01, "case_a", "route_one", {"route_one": 0.01})
    monkeypatch.setattr(oracle, "class_bounds", lambda spec: (tiny, tiny, tiny))
    monkeypatch.setattr(cli, "class_bounds", lambda spec: (tiny, tiny, tiny))


def test_violation_exits_two(capsys, tiny_bounds):
    code, _, err = run(
        capsys, "verify", "st:lambda=0:order:rho=0",
        "--target", "a2", "--samples", "300", "--refine-top", "0",
    )
    assert code == 2
    assert "witness" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_exits_one(capsys, tiny_bounds, tol):
    # a NaN or infinite tol_violation would hide the violation behind exit 0
    code, _, err = run(
        capsys, "verify", "st:lambda=0:order:rho=0", "--target", "a2",
        "--samples", "300", "--refine-top", "0", "--tol-violation", tol,
    )
    assert code == 1
    assert "finite" in err


def test_negative_refine_steps_exits_one(capsys):
    # Nelder-Mead would otherwise quietly stop after the initial simplex
    code, _, err = run(
        capsys, "verify", "st:lambda=0:order:rho=0", "--target", "a2",
        "--samples", "300", "--refine-steps", "-5",
    )
    assert code == 1
    assert "refine_steps must be >= 0" in err


def test_overflowing_implied_tuples_exit_one_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "verify", "st:lambda=0:custom:B1=1e-300,B2=1,B3=1",
                           "--target", "a2", "--samples", "300")
    assert code == 1
    assert err.count("\n") == 1 and "implied tuples overflow" in err


@pytest.mark.parametrize("argv,message", [
    (("bounds", "st:lambda=0:janowski:A=1,B=2"), "-1 <= B < A <= 1"),
    (("bounds", "st:lambda=0:custom:B1=-1,B2=1,B3=1"), "B1 > 0"),
    (("bounds", "st:lambda=1e400:order:rho=0"), "bad number '1e400'"),
    (("bounds", "st:lambda=1e308:order:rho=0"), "not finite"),
    (("bounds", "st:lambda=0:order:rho=0", "--out", "{missing}"), "cannot write output"),
])
def test_user_input_errors_exit_one(capsys, tmp_path, argv, message):
    argv = [a.replace("{missing}", str(tmp_path / "missing" / "out.txt")) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.count("\n") == 1 and message in err


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("internal boom")

    monkeypatch.setattr(oracle, "solve_fast", boom)
    with pytest.raises(ValueError, match="internal boom"):
        main(["verify", "st:lambda=0:order:rho=0", "--target", "a2", "--samples", "100"])
    assert capsys.readouterr().err == ""


# -- bounds output -----------------------------------------------------------


def bounds_json(capsys, *argv):
    code, out, _ = run(capsys, "bounds", *argv, "--format", "json")
    assert code == 0
    return json.loads(out)


def test_bounds_reference_rows(capsys):
    doc = bounds_json(capsys, "st:lambda=0:order:rho=0", "--coeffs", "a2,a3,a4,a5")
    by = {}
    for row in doc["rows"]:
        by.setdefault(row["coefficient"], []).append(row)
    assert abs(by["a2"][0]["bound"] - math.sqrt(2)) < 1e-5
    assert abs(by["a3"][0]["bound"] - 2.0) < 1e-5
    assert abs(by["a4"][0]["bound"] - 2.552285) < 1e-5
    assert len(by["a5"]) == 2
    assert all(abs(r["bound"] - 3.109476) < 1e-5 for r in by["a5"])


def test_bounds_convex_a2(capsys):
    doc = bounds_json(capsys, "m:lambda=1:order:rho=0", "--coeffs", "a2")
    assert abs(doc["rows"][0]["bound"] - 1.0) < 1e-12


def test_bounds_strong_a3_piecewise(capsys):
    doc = bounds_json(capsys, "st:lambda=0:strong:beta=0.5", "--coeffs", "a3")
    assert abs(doc["rows"][0]["bound"] - 2.0 / 3.0) < 1e-12


def test_a5_outside_supported_family_exits_one(capsys):
    code, _, err = run(capsys, "bounds", "st:lambda=1:order:rho=0", "--coeffs", "a5")
    assert code == 1
    assert "a5" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "st:lambda=0:order:rho=0.7", "--coeffs", "a5"),
    ("bounds", "ss:beta=0.3", "--coeffs", "a2,a5"),
    ("verify", "st:lambda=0:order:rho=0.7", "--target", "a5"),
    ("verify", "ss:beta=0.3", "--target", "a5"),
])
def test_a5_outside_theorem_range_exits_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "a5 bound is only available" in err
    assert "rho in [0, 1/2]" in err and "beta in [1/2, 1]" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "st:lambda=1e300:order:rho=0"),
    ("bounds", "m:lambda=1e300:order:rho=0"),
    ("verify", "st:lambda=1e300:order:rho=0", "--target", "a2"),
    ("verify", "m:lambda=1e300:order:rho=0", "--target", "a2"),
])
def test_bound_overflow_is_a_one_line_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "overflows" in err


# -- serialization -----------------------------------------------------------


def test_json_roundtrip(capsys):
    code, out, _ = run(capsys, "bounds", "st:lambda=1/2:strong:beta=0.7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    assert json.loads(render(payload["spec"], payload["rows"], "json", payload["provenance"])) == payload


def test_bounds_rows_carry_the_library_floats():
    # the document rounds a2 to 1.4142135623731; the row keeps every digit
    spec = parse_spec("st:lambda=0:order:rho=0")
    assert cli.bounds_rows(spec, ["a2"])[0]["bound"] == class_bounds(spec)[0].value


def test_verify_rows_carry_the_oracle_floats():
    spec = parse_spec("st:lambda=1/2:order:rho=1/4")
    config = SearchConfig(seed=7, samples=300, refine_top=1, refine_steps=20)
    [row], _ = cli.verify_rows(spec, ["a3"], config)
    rep = max_coeff(spec, "a3", config)
    assert row["oracle_best"] == rep.best_value
    assert (row["bound"], row["slack"]) == (rep.bound, rep.slack)


def test_csv_cells_read_back_as_the_json_numbers(capsys):
    argv = ("verify", "ss:beta=3/4", "--samples", "300", "--refine-top", "1", "--refine-steps", "20",
            "--seed", "2", "--format")
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    _, out, _ = run(capsys, *argv, "csv")
    cells = list(csv.DictReader(io.StringIO(out)))
    assert len(cells) == len(rows) == 5
    numbers = [(cell[k], v) for row, cell in zip(rows, cells) for k, v in row.items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    assert len(numbers) == 4 * len(rows)  # bound, oracle_best, slack, feasible
    assert all(float(text) == value for text, value in numbers)


def test_bounds_rows_follow_the_coefficients_asked(capsys):
    doc = bounds_json(capsys, "ss:beta=1", "--coeffs", "a5,a2")
    assert [(row["coefficient"], row["variant"]) for row in doc["rows"]] == [
        ("a5", "stated"), ("a5", "rederived"), ("a2", "")]


def test_csv_is_rfc4180(capsys):
    code, out, _ = run(capsys, "bounds", "st:lambda=0:order:rho=0", "--format", "csv")
    assert code == 0
    assert "\r\n" in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "coefficient"
    assert len(rows) == 4  # header + a2, a3, a4


def test_fifteen_significant_digits(capsys):
    _, out, _ = run(capsys, "bounds", "st:lambda=0:order:rho=0", "--coeffs", "a2", "--format", "csv")
    assert "1.4142135623731" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "doc.json"
    code, out, _ = run(capsys, "bounds", "st:lambda=0:order:rho=0", "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["schema_version"] == "1"


# -- verify ------------------------------------------------------------------


def test_verify_reports_slack(capsys):
    code, out, _ = run(
        capsys, "verify", "st:lambda=1/2:order:rho=1/4",
        "--target", "a4", "--samples", "800", "--seed", "7",
        "--refine-top", "1", "--refine-steps", "30", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["violated"] is False
    assert row["slack"] >= 0
    assert doc["provenance"] == asdict(SearchConfig(seed=7, samples=800, refine_top=1, refine_steps=30))


def test_report_provenance_is_the_search_config(capsys):
    code, out, _ = run(
        capsys, "report", "--samples", "300", "--seed", "3", "--refine-top", "0",
        "--tol-feasible", "2e-7", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["provenance"] == asdict(
        SearchConfig(seed=3, samples=300, refine_top=0, tol_feasible=2e-7))


def test_verify_a5_both_variants(capsys):
    code, out, _ = run(
        capsys, "verify", "ss:beta=0.5", "--target", "a5",
        "--samples", "800", "--refine-top", "0", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {r["variant"] for r in rows} == {"stated", "rederived"}
    proven = {r["variant"]: r["proven"] for r in rows}
    assert proven == {"stated": False, "rederived": True}


def oracle_report(spec, target, config):
    return check_a5_system(spec, config) if target == "a5" else max_coeff(spec, target, config)


def test_verify_rows_carry_the_feasible_count(capsys):
    config = SearchConfig(seed=4, samples=600, refine_top=1, refine_steps=20)
    spec = parse_spec("st:lambda=0:order:rho=1/4")
    code, out, _ = run(capsys, "verify", spec.text(), "--seed", "4", "--samples", "600",
                       "--refine-top", "1", "--refine-steps", "20", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["coefficient"] for row in rows] == ["a2", "a3", "a4", "a5", "a5"]
    for row in rows:
        target = row["coefficient"]
        rep = oracle_report(spec, target, config)
        assert row["feasible"] == rep.feasible_count
        assert 1 <= row["feasible"] <= config.samples


@pytest.mark.parametrize("target", ["a2", "a3", "a4"])
def test_verify_at_a_large_float_lambda(capsys, target):
    # lambda + (1 - lambda) rounds to 0 at 1e16.  The bounds are ~1e-16, far
    # below the absolute tol_violation, so the bound is also checked relatively
    code, out, _ = run(capsys, "verify", "m:lambda=1e16:order:rho=0", "--target", target,
                       "--samples", "500", "--format", "json")
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["proven"] and not row["violated"]
    assert row["bound"] < 1e-15
    assert 0 < row["oracle_best"] <= row["bound"] * (1 + 1e-9)


def test_verify_a5_unsupported_family(capsys):
    code, _, _ = run(capsys, "verify", "m:lambda=1:order:rho=0", "--target", "a5")
    assert code == 1


GENERATORS = {
    "order": [("rho=0", True), ("rho=1/2", True), ("rho=0.7", False)],
    "strong": [("beta=1/2", True), ("beta=1", True), ("beta=0.3", False)],
    "janowski": [("A=1/2,B=-1/2", False)],
    "custom": [("B1=1,B2=1/2,B3=1/4", False)],
}


@pytest.mark.parametrize("op", ["st", "m"])
@pytest.mark.parametrize("lam", ["0", "1/2"])
@pytest.mark.parametrize("family,params,in_range",
                         [(f, p, ok) for f, cases in GENERATORS.items() for p, ok in cases])
def test_verify_all_has_a5_rows_exactly_when_a5_family(capsys, op, lam, family, params, in_range):
    text = f"{op}:lambda={lam}:{family}:{params}"
    expected = op == "st" and lam == "0" and in_range
    assert (a5_family(parse_spec(text)) is not None) == expected
    code, out, _ = run(capsys, "verify", text, "--samples", "300", "--refine-top", "0", "--format", "json")
    assert code == 0
    coeffs = [row["coefficient"] for row in json.loads(out)["rows"]]
    assert coeffs == ["a2", "a3", "a4"] + (["a5", "a5"] if expected else [])


# -- config file and environment seed ----------------------------------------


@pytest.mark.parametrize("command", [["verify", "st:lambda=0:order:rho=0"], ["report"]])
def test_defaults_are_search_config_defaults(monkeypatch, command):
    monkeypatch.delenv("BIKOEFF_SEED", raising=False)
    args = cli.build_parser().parse_args(command)
    cli._apply_defaults(args)
    for f in fields(SearchConfig):
        assert getattr(args, f.name) == getattr(SearchConfig(), f.name), f.name
    assert cli._search_config(args) == SearchConfig()


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("samples = 300   # comment\nrefine-top = 0\n")
    monkeypatch.setenv("BIKOEFF_SEED", "42")
    code, out, _ = run(
        capsys, "verify", "st:lambda=0:order:rho=0", "--target", "a2",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    prov = json.loads(out)["provenance"]
    assert prov == asdict(SearchConfig(seed=42, samples=300, refine_top=0))
    # explicit flags beat both
    code, out, _ = run(
        capsys, "verify", "st:lambda=0:order:rho=0", "--target", "a2",
        "--config", str(cfg), "--samples", "200", "--seed", "5", "--format", "json",
    )
    assert json.loads(out)["provenance"] == asdict(SearchConfig(seed=5, samples=200, refine_top=0))


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("wibble = 3\n")
    code, _, err = run(capsys, "verify", "st:lambda=0:order:rho=0", "--config", str(cfg))
    assert code == 1 and "wibble" in err


@pytest.mark.parametrize("line,key", [("format = xml", "format"),
                                      ("restrict_real = maybe", "restrict_real")])
def test_bad_config_value_exits_one(tmp_path, capsys, line, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "verify", "st:lambda=0:order:rho=0", "--target", "a2",
                         "--samples", "100", "--config", str(cfg))
    assert code == 1 and out == ""
    assert key in err


def test_config_file_booleans(tmp_path):
    cfg = tmp_path / "cfg.txt"
    for text, value in (("yes", True), ("TRUE", True), ("1", True), ("no", False), ("false", False)):
        cfg.write_text(f"restrict-real = {text}\nformat = csv\n")
        args = cli.build_parser().parse_args(["report", "--config", str(cfg)])
        cli._apply_defaults(args)
        assert (args.restrict_real, args.format) == (value, "csv")


def test_bad_env_seed_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("BIKOEFF_SEED", "not-a-number")
    code, _, _ = run(capsys, "verify", "st:lambda=0:order:rho=0", "--target", "a2", "--samples", "100")
    assert code == 1


@pytest.mark.parametrize("route", ["flag", "env", "config"])
def test_negative_seed_exits_one(capsys, monkeypatch, tmp_path, route):
    # the sampler's generator takes no negative seed; a usage error, not a traceback
    argv = ["verify", "ss:beta=3/4", "--target", "a5", "--samples", "100"]
    if route == "flag":
        argv += ["--seed", "-1"]
    elif route == "env":
        monkeypatch.setenv("BIKOEFF_SEED", "-1")
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = -1\n")
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "bikoeff: error: seed must be >= 0\n"


# -- expand ------------------------------------------------------------------


def test_expand_generator(capsys):
    code, out, _ = run(capsys, "expand", "ss:beta=1/3", "--what", "generator")
    assert code == 0
    assert out.strip() == "1 + (2/3) z + (2/9) z^2 + (22/81) z^3"


def test_expand_generator_order_zero_rho(capsys):
    _, out, _ = run(capsys, "expand", "st:lambda=0:order:rho=0", "--what", "generator")
    assert out.strip() == "1 + 2 z + 2 z^2 + 2 z^3"


def test_expand_generator_past_b6(capsys):
    _, out, _ = run(capsys, "expand", "st:lambda=0:order:rho=0", "--what", "generator", "--order", "8")
    assert out.strip() == "1 + " + " + ".join(["2 z"] + [f"2 z^{n}" for n in range(2, 9)])
    _, out, _ = run(capsys, "expand", "ss:beta=3/4", "--what", "generator", "--order", "7")
    assert out.strip().endswith("(123/128) z^4 + (237/256) z^5 + (893/1024) z^6 + (1737/2048) z^7")


@pytest.mark.parametrize("order", ["0", "-2"])
def test_expand_rejects_order_below_one(capsys, order):
    code, out, err = run(capsys, "expand", "ss:beta=1/2", "--what", "inverse", "--order", order)
    assert code == 1 and out == ""
    assert "--order must be >= 1" in err


def test_expand_inverse_rejects_order_below_two(capsys):
    # the inverse has nothing past w^1 to print
    code, out, err = run(capsys, "expand", "ss:beta=1/2", "--what", "inverse", "--order", "1")
    assert code == 1 and out == ""
    assert "--order must be >= 2 for --what inverse" in err


def test_expand_inverse_polynomials(capsys):
    code, out, _ = run(capsys, "expand", "st:lambda=0:order:rho=0", "--what", "inverse", "--order", "5")
    assert code == 0
    assert "w^2: -a2" in out
    assert "2*a2**2 - a3" in out
    assert "14*a2**4" in out


def test_expand_operator_symbolic(capsys):
    code, out, _ = run(capsys, "expand", "st:lambda=1:order:rho=0", "--what", "operator", "--order", "2")
    assert code == 0
    assert "3*a2" in out  # (1 + 2 lambda) a2 at lambda = 1


def test_expand_generator_with_decimal_parameters(capsys):
    # a decimal parameter gives float coefficients: .15g, negatives in parentheses
    _, out, _ = run(capsys, "expand", "st:lambda=0:order:rho=0.25", "--what", "generator")
    assert out == "1 + 1.5 z + 1.5 z^2 + 1.5 z^3\n"
    _, out, _ = run(capsys, "expand", "st:lambda=0:janowski:A=0.5,B=0.25", "--what", "generator")
    assert out == "1 + 0.25 z + (-0.0625) z^2 + 0.015625 z^3\n"


def test_expand_runs_without_sympy(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)
    code, out, _ = run(capsys, "expand", "st:lambda=1/2:order:rho=0", "--what", "operator", "--order", "4")
    assert code == 0 and out == ("z^1: 2*a2\n"
                                 "z^2: -2*a2**2 + 5*a3\n"
                                 "z^3: 2*a2**3 - 7*a2*a3 + 9*a4\n"
                                 "z^4: -2*a2**4 + 9*a2**2*a3 - 11*a2*a4 - 5*a3**2 + 14*a5\n")
    code, out, _ = run(capsys, "expand", "st:lambda=0:order:rho=0", "--what", "inverse", "--order", "5")
    assert code == 0 and out == ("w^2: -a2\n"
                                 "w^3: 2*a2**2 - a3\n"
                                 "w^4: -5*a2**3 + 5*a2*a3 - a4\n"
                                 "w^5: 14*a2**4 - 21*a2**2*a3 + 6*a2*a4 + 3*a3**2 - a5\n")


EXPAND_LAMBDAS = ("0", "1/2", "5/7", "1", "2", "3/11", "100/3", "0.0", "1.0", "0.3", "0.5", "2.5",
                  "0.1", "7.25", "123.456", "1e-5", "1e-20", "1e16", "3e22")


def sympy_lines(spec_text, what, order):
    """The lines ``expand`` printed when it ran the series routes over sympy symbols."""
    import sympy

    n = order + 1 if what == "operator" else order
    f = TruncatedSeries([sympy.Integer(0), sympy.Integer(1), *sympy.symbols(f"a2:{n + 1}")], n)
    if what == "operator":
        c = apply_operator(parse_spec(spec_text), f).coeffs
        return [f"z^{k}: {sympy.expand(sympy.cancel(sympy.together(c[k])))}" for k in range(1, order + 1)]
    c = revert(f).coeffs
    return [f"w^{k}: {sympy.expand(c[k])}" for k in range(2, order + 1)]


@pytest.mark.parametrize("lam", EXPAND_LAMBDAS)
@pytest.mark.parametrize("operator", ["st", "m"])
def test_expand_operator_prints_as_sympy_did(capsys, operator, lam):
    # the z^n line depends only on a2..a_(n+1), so order k prints the first k lines of order 6
    spec_text = f"{operator}:lambda={lam}:order:rho=0"
    lines = sympy_lines(spec_text, "operator", 6)
    for order in range(1, 7):
        _, out, _ = run(capsys, "expand", spec_text, "--what", "operator", "--order", str(order))
        assert out == "\n".join(lines[:order]) + "\n"


def test_expand_inverse_prints_as_sympy_did(capsys):
    lines = sympy_lines("st:lambda=0:order:rho=0", "inverse", 7)
    for order in range(2, 8):
        _, out, _ = run(capsys, "expand", "st:lambda=0:order:rho=0", "--what", "inverse", "--order", str(order))
        assert out == "\n".join(lines[: order - 1]) + "\n"


# -- sweep -------------------------------------------------------------------


def test_sweep_a5_two_variants(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "st:lambda=0:order:rho={}",
        "--param", "rho", "--range", "0:0.5:6", "--coeffs", "a5", "--out", str(path),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["param", "coeff", "bound", "branch", "variant"]
    assert len(rows) == 13  # header + 6 grid points x 2 variants
    assert {r[4] for r in rows[1:]} == {"stated", "proof"}


def test_sweep_rows_follow_the_coefficients_asked(capsys):
    code, out, _ = run(capsys, "sweep", "ss:beta={}", "--param", "beta", "--range", "0.5:1:2",
                       "--coeffs", "a5,a2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [(row[0], row[1]) for row in rows] == [
        ("0.5", "a5"), ("0.5", "a5"), ("0.5", "a2"), ("1", "a5"), ("1", "a5"), ("1", "a2")]


def test_sweep_lambda_monotone(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "st:lambda={}:order:rho=0",
        "--param", "lambda", "--range", "0:2:9", "--coeffs", "a2", "--out", str(path),
    )
    assert code == 0
    bounds = [float(r[2]) for r in list(csv.reader(io.StringIO(path.read_text())))[1:]]
    assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_sweep_zero_steps_errors(capsys):
    code, _, _ = run(capsys, "sweep", "st:lambda={}:order:rho=0",
                     "--param", "lambda", "--range", "0:2:0", "--coeffs", "a2")
    assert code == 1


@pytest.mark.parametrize("bounds", ["0:1e400", "-inf:1", "nan:1", "0:inf"])
def test_sweep_rejects_non_finite_range(capsys, bounds):
    code, _, err = run(capsys, "sweep", "st:lambda=0:order:rho={}",
                       "--param", "rho", f"--range={bounds}:3", "--coeffs", "a2")
    assert code == 1 and "bad range" in err


def test_sweep_requires_single_placeholder(capsys):
    code, _, err = run(capsys, "sweep", "st:lambda=0:order:rho=0",
                       "--param", "rho", "--range", "0:0.5:3", "--coeffs", "a2")
    assert code == 1 and "placeholder" in err


# -- report ------------------------------------------------------------------


def test_report_grid_small(capsys):
    code, out, _ = run(
        capsys, "report", "--samples", "150", "--refine-top", "0",
        "--seed", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    specs = {row["spec"] for row in doc["rows"]}
    assert len(specs) == 21  # 18 operator grid + 3 strong a5 (order a5 overlaps)
    assert len(doc["rows"]) == 18 * 3 + 6 * 2
    assert all(not row["violated"] for row in doc["rows"] if row["proven"])


def test_report_rows_equal_the_oracle_reports(capsys):
    # report is the one soundness run: its rows are the oracle's reports at the same config
    config = SearchConfig(seed=2024, samples=300, refine_top=2, refine_steps=20)
    code, out, _ = run(capsys, "report", "--seed", "2024", "--samples", "300", "--refine-top", "2",
                       "--refine-steps", "20", "--format", "json")
    assert code == 0
    rows = {(row["spec"], row["coefficient"], row["variant"]): row for row in json.loads(out)["rows"]}
    for spec_text, target in [("m:lambda=1/2:order:rho=1/4", "a4"), ("ss:beta=3/4", "a5")]:
        spec = parse_spec(spec_text)
        rep = oracle_report(spec, target, config)
        for name, v in rep.variants.items():
            row = rows[(spec.text(), target, name)]
            assert row["oracle_best"] == cli._sig15(rep.best_value)
            assert row["bound"] == cli._sig15(v["bound"])
            assert row["slack"] == cli._sig15(v["slack"])
            assert (row["violated"], row["proven"]) == (v["violated"], v["proven"])
            assert row["feasible"] == rep.feasible_count


def test_report_violation_prints_witnesses(capsys, tiny_bounds):
    code, _, err = run(capsys, "report", "--samples", "150", "--refine-top", "0")
    assert code == 2
    assert "witness" in err
