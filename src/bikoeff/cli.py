"""Command-line front end: bounds, verification runs, expansions, sweeps.

Exit codes: 0 success, 1 usage or configuration error, 2 the search found
a sample of the relaxed feasible set above a proven bound (this refutes
proofs that use only the relaxed p/q constraints; the sample is not a
function in the class).  Reports serialize as JSON (schema_version
"1"), RFC-4180 CSV, or aligned text tables; numbers carry 15
significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from .bounds import (
    A5_UNAVAILABLE,
    DegenerateBoundError,
    SS_BETA_A5_VARIANTS,
    ST_RHO_A5_VARIANTS,
    a5_family,
    class_bounds,
    ss_beta_a5,
    st_rho_a5,
)
from .classes import ClassSpec, SpecParseError, apply_operator, parse_spec
from .oracle import TARGETS, OracleError, SearchConfig, check_a5_system, max_coeff
from .series import Polynomial, TruncatedSeries, revert

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

COEFF_NAMES = ("a2", "a3", "a4", "a5")
FORMATS = ("table", "json", "csv")


class CliError(Exception):
    """Usage-level failure; maps to exit code 1."""


def _sig15(x) -> float:
    return float(f"{float(x):.15g}")


@dataclass
class ReportDocument:
    spec: str
    rows: list
    provenance: dict = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            if isinstance(obj, complex):
                return {"re": _sig15(obj.real), "im": _sig15(obj.imag)}
            if isinstance(obj, float):
                return _sig15(obj)
            return obj

        payload = {
            "schema_version": self.schema_version,
            "spec": self.spec,
            "rows": clean(self.rows),
            "provenance": clean(self.provenance),
        }
        return json.dumps(payload, indent=2)

    def _columns(self):
        cols = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_csv(self) -> str:
        cols = self._columns()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(cols)
        for row in self.rows:
            writer.writerow([_cell(row.get(c, "")) for c in cols])
        return buf.getvalue()

    def to_table(self) -> str:
        cols = self._columns()
        grid = [cols] + [[_cell(row.get(c, "")) for c in cols] for row in self.rows]
        widths = [max(len(r[i]) for r in grid) for i in range(len(cols))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in grid]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return f"spec: {self.spec}\n" + "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        return self.to_table()


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.15g}"
    if isinstance(value, dict):
        return ";".join(f"{k}={_cell(v)}" for k, v in value.items())
    return str(value)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _a5_rows(spec: ClassSpec):
    family = a5_family(spec)
    if family is None:
        raise CliError(A5_UNAVAILABLE)
    fam, param = family
    if fam == "order":
        pairs = [(v, st_rho_a5(param, v)) for v in ST_RHO_A5_VARIANTS]
    else:
        pairs = [(v, ss_beta_a5(param, v)) for v in SS_BETA_A5_VARIANTS]
    return [
        {"coefficient": "a5", "bound": _sig15(b), "branch": "", "route": "", "variant": v}
        for v, b in pairs
    ]


def bounds_rows(spec: ClassSpec, coeffs):
    rows = []
    targets = [c for c in coeffs if c != "a5"]
    # a DegenerateBoundError is a user-facing error: main reports it as exit 1
    breakdowns = class_bounds(spec) if targets else ()
    for name in targets:
        b = breakdowns[TARGETS.index(name)]
        row = {
            "coefficient": name,
            "bound": _sig15(b.value),
            "branch": b.branch,
            "route": b.route,
            "variant": "",
        }
        if b.constants:
            row["constants"] = {k: _sig15(v) for k, v in b.constants.items()}
        rows.append(row)
    if "a5" in coeffs:
        rows.extend(_a5_rows(spec))
    return rows


def cmd_bounds(args) -> int:
    spec = parse_spec(args.spec)
    coeffs = _parse_coeffs(args.coeffs)
    doc = ReportDocument(spec.text(), bounds_rows(spec, coeffs))
    _emit(doc.render(args.format), args.out)
    return EXIT_OK


def _parse_coeffs(text):
    names = [t.strip() for t in text.split(",") if t.strip()]
    for k, n in enumerate(names):
        if n not in COEFF_NAMES:
            raise CliError(f"unknown coefficient {n!r} (choose from {', '.join(COEFF_NAMES)})")
        if n in names[:k]:
            raise CliError(f"coefficient {n!r} given more than once")
    if not names:
        raise CliError("empty coefficient list")
    return names


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _target_report(spec: ClassSpec, target, config: SearchConfig):
    """(oracle report, branch, route) for one target; a5 bounds carry no branch."""
    if target == "a5":
        return check_a5_system(spec, config), "", ""
    rep = max_coeff(spec, target, config)
    breakdown = class_bounds(spec)[TARGETS.index(target)]
    return rep, breakdown.branch, breakdown.route


def verify_rows(spec: ClassSpec, targets, config: SearchConfig):
    """(rows, witnesses): one row per bound variant, one witness per violated proven bound."""
    rows = []
    witnesses = []
    for target in targets:
        rep, branch, route = _target_report(spec, target, config)
        for name, v in rep.variants.items():
            rows.append({
                "coefficient": target,
                "bound": _sig15(v["bound"]),
                "branch": branch,
                "route": route,
                "variant": name,
                "oracle_best": _sig15(rep.best_value),
                "slack": _sig15(v["slack"]),
                "violated": bool(v["violated"]),
                "proven": v["proven"],
            })
        if rep.violated:
            witnesses.append(rep.argmax)
    return rows, witnesses


def _emit_verdict(doc: ReportDocument, args, witnesses) -> int:
    """Write the document, print every violation witness to stderr, and give the exit code."""
    _emit(doc.render(args.format), args.out)
    for w in witnesses:
        print(f"violation witness: {w}", file=sys.stderr)
    return EXIT_VIOLATION if witnesses else EXIT_OK


def cmd_verify(args) -> int:
    spec = parse_spec(args.spec)
    if args.target == "all":
        targets = ["a2", "a3", "a4"] + (["a5"] if a5_family(spec) else [])
    else:
        targets = [args.target]
    config = _search_config(args)
    rows, witnesses = verify_rows(spec, targets, config)
    return _emit_verdict(ReportDocument(spec.text(), rows, asdict(config)), args, witnesses)


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def _series_text(s: TruncatedSeries, var="z") -> str:
    parts = []
    for n, c in enumerate(s.coeffs):
        if c == 0:
            continue
        # a decimal parameter gives a complex-kind series with zero imaginary parts
        text = f"{c.real:.15g}" if isinstance(c, complex) else str(c)
        text = f"({text})" if "/" in text or text.startswith("-") else text
        mono = "" if n == 0 else (var if n == 1 else f"{var}^{n}")
        parts.append(text if not mono else (mono if text == "1" else f"{text} {mono}"))
    return " + ".join(parts) if parts else "0"


def _polynomial_text(poly: Polynomial) -> str:
    """Variable k as a_{k+2}, terms in descending lex order of exponents, n/d as ``n*mono/d``."""
    names = sorted({k for mono in poly.terms for k in mono})
    text = ""
    for mono, c in sorted(poly.terms.items(), key=lambda t: [t[0].count(k) for k in names], reverse=True):
        powers = [f"a{k + 2}" + (f"**{mono.count(k)}" if mono.count(k) > 1 else "") for k in names if k in mono]
        if isinstance(c, float):
            mantissa, e, exponent = f"{abs(c):.15g}".partition("e")
            body = "*".join([mantissa + ("" if "." in mantissa else ".0") + e + exponent] + powers)
        else:
            c = Fraction(c)
            head = [] if abs(c.numerator) == 1 and powers else [str(abs(c.numerator))]
            body = "*".join(head + powers) + ("" if c.denominator == 1 else f"/{c.denominator}")
        text = f"{text} {'-' if c < 0 else '+'} {body}" if text else ("-" if c < 0 else "") + body
    return text or "0"


def cmd_expand(args) -> int:
    spec = parse_spec(args.spec)
    order = args.order
    if order < 1:
        raise CliError("--order must be >= 1")
    n = order + 1 if args.what == "operator" else order  # the operator drops one order
    f = TruncatedSeries([Polynomial(), Polynomial({(): 1}), *(Polynomial({(k,): 1}) for k in range(n - 1))], n)
    if args.what == "generator":
        lines = [_series_text(spec.generator.series(order))]
    elif args.what == "operator":
        lines = [f"z^{k}: {_polynomial_text(c)}" for k, c in enumerate(apply_operator(spec, f).coeffs) if k]
    else:
        lines = [f"w^{k}: {_polynomial_text(c)}" for k, c in enumerate(revert(f).coeffs) if k > 1]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("range must be lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad range {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"bad range {text!r}: lo and hi must be finite")
    if steps < 1:
        raise CliError("range needs at least one step")
    return lo, hi, steps


def sweep_rows(template: str, grid, coeffs):
    if template.count("{}") != 1:
        raise CliError("spec template must contain exactly one {} placeholder")
    rows = []
    for value in grid:
        spec = parse_spec(template.replace("{}", f"{value:.17g}"))
        for row in bounds_rows(spec, coeffs):
            rows.append({
                "param": _sig15(value),
                "coeff": row["coefficient"],
                "bound": row["bound"],
                "branch": row["branch"],
                "variant": row["variant"],
            })
    return rows


def cmd_sweep(args) -> int:
    lo, hi, steps = _parse_range(args.range)
    grid = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)] if steps > 1 else [lo]
    rows = sweep_rows(args.spec_template, grid, _parse_coeffs(args.coeffs))
    _emit(ReportDocument(args.spec_template, rows).to_csv(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

GRID_LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(1))
GRID_RHOS = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
GRID_BETAS = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
# (spec, targets) in report row order: a2-a4 over the operator grid, then a5
REPORT_GRID = (
    [(f"{op}:lambda={lam}:order:rho={rho}", ["a2", "a3", "a4"])
     for op in ("st", "m") for lam in GRID_LAMBDAS for rho in GRID_RHOS]
    + [(f"st:lambda=0:order:rho={rho}", ["a5"]) for rho in GRID_RHOS]
    + [(f"ss:beta={beta}", ["a5"]) for beta in GRID_BETAS]
)


def cmd_report(args) -> int:
    config = _search_config(args)
    rows = []
    witnesses = []
    for text, targets in REPORT_GRID:
        spec = parse_spec(text)
        sub, found = verify_rows(spec, targets, config)
        for row in sub:
            row["spec"] = spec.text()
        rows.extend(sub)
        witnesses.extend(found)
    return _emit_verdict(ReportDocument("acceptance-grid", rows, asdict(config)), args, witnesses)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _emit(text: str, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for violations
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = value
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text):
    if text.lower() not in _BOOLEANS:
        raise ValueError(f"invalid boolean {text!r} (choose from {', '.join(_BOOLEANS)})")
    return _BOOLEANS[text.lower()]


def _parse_format(text):
    if text not in FORMATS:
        raise ValueError(f"invalid choice {text!r} (choose from {', '.join(FORMATS)})")
    return text


# SearchConfig's fields are the oracle options: flags, config keys and defaults
_CONFIG_CASTS = {
    f.name: _parse_bool if isinstance(f.default, bool) else type(f.default)
    for f in fields(SearchConfig)
} | {"format": _parse_format}
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(SearchConfig)} | {"format": "table"}


def _apply_defaults(args):
    """Fill unset oracle options: flags > config file > BIKOEFF_SEED > SearchConfig defaults."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_values.items():
        if key not in _CONFIG_CASTS:
            raise CliError(f"unknown config key {key!r}")
    env = os.environ.get("BIKOEFF_SEED")
    for key, cast in _CONFIG_CASTS.items():
        if getattr(args, key, "absent") is not None:
            continue
        if key in file_values:
            try:
                setattr(args, key, cast(file_values[key]))
            except ValueError as exc:
                raise CliError(f"config key {key!r}: {exc}")
        elif key == "seed" and env:
            try:
                args.seed = int(env)
            except ValueError:
                raise CliError(f"BIKOEFF_SEED must be an integer, got {env!r}")
        else:
            setattr(args, key, _CONFIG_DEFAULTS[key])


def _add_oracle_flags(p):
    for f in fields(SearchConfig):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, bool):
            p.add_argument(flag, action="store_const", const=True, default=None)
        else:
            p.add_argument(flag, type=type(f.default), default=None)
    p.add_argument("--config", default=None)


def _add_output_flags(p):
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bikoeff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bounds", help="closed-form coefficient bounds for a class")
    p.add_argument("spec")
    p.add_argument("--coeffs", default="a2,a3,a4")
    _add_output_flags(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="stress-test bounds against the sampling oracle")
    p.add_argument("spec")
    p.add_argument("--target", choices=("a2", "a3", "a4", "a5", "all"), default="all")
    _add_oracle_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expand", help="print series expansions (generator, operator, inverse)")
    p.add_argument("spec")
    p.add_argument("--what", choices=("generator", "operator", "inverse"), default="generator")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("sweep", help="tabulate bounds over a parameter grid (CSV)")
    p.add_argument("spec_template")
    p.add_argument("--param", required=True)
    p.add_argument("--range", required=True, help="lo:hi:steps")
    p.add_argument("--coeffs", default="a2,a3,a4")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="run the full verification grid, one document")
    _add_oracle_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_defaults(args)
        return args.func(args)
    except (CliError, SpecParseError, OracleError, DegenerateBoundError) as exc:
        print(f"bikoeff: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
