"""Compare the competing fifth-coefficient bound variants against the oracle.

For each a5 class of the report grid the search maximizes |a5| over the
relaxed feasible set and reports the margin to every variant.

Usage: python3 scripts/adjudicate_a5.py [--samples N] [--seed S]
"""

import argparse

from bikoeff.classes import parse_spec
from bikoeff.cli import REPORT_GRID
from bikoeff.oracle import SearchConfig, check_a5_system


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=99)
    args = ap.parse_args()
    cfg = SearchConfig(seed=args.seed, samples=args.samples, refine_top=2, refine_steps=60)

    for text in (text for text, targets in REPORT_GRID if "a5" in targets):
        rep = check_a5_system(parse_spec(text), cfg)
        print(f"{rep.spec_text}: best |a5| = {rep.best_value:.8f} "
              f"({rep.feasible_count}/{rep.samples} feasible)")
        for name, v in sorted(rep.variants.items()):
            status = "VIOLATED" if v["violated"] else "ok"
            print(f"    {name:10s} bound {v['bound']:.8f}  slack {v['slack']:+.4e}  {status}")


if __name__ == "__main__":
    main()
