"""Emit plot-ready CSV curves of the closed-form bounds.

Writes three files into --outdir: bounds vs rho (lambda = 0), bounds vs
beta, and a2 vs lambda.

Usage: python3 scripts/bound_curves.py [--outdir DIR] [--points N]
"""

import argparse
import pathlib
import sys

from bikoeff.cli import main as cli_main


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="curves")
    ap.add_argument("--points", type=int, default=101)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = str(args.points)

    jobs = [
        ("st:lambda=0:order:rho={}", "rho", f"0:0.5:{n}", "a2,a3,a4,a5", "order_rho.csv"),
        ("st:lambda=0:strong:beta={}", "beta", f"0.5:1:{n}", "a2,a3,a4,a5", "strong_beta.csv"),
        ("st:lambda={}:order:rho=0", "lambda", f"0:2:{n}", "a2,a3,a4", "lambda_a2.csv"),
    ]
    for template, param, rng, coeffs, name in jobs:
        path = outdir / name
        code = cli_main(["sweep", template, "--param", param, "--range", rng,
                         "--coeffs", coeffs, "--out", str(path)])
        if code != 0:
            sys.exit(f"job {name} failed with exit code {code}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
