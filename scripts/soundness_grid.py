"""Run the oracle over the a2-a4 rows of the report grid and print slack per bound.

Usage: python3 scripts/soundness_grid.py [--samples N] [--seed S]
"""

import argparse
import time

from bikoeff.classes import parse_spec
from bikoeff.cli import REPORT_GRID
from bikoeff.oracle import TARGETS, SearchConfig, max_coeff


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    cfg = SearchConfig(seed=args.seed, samples=args.samples, refine_top=2, refine_steps=60)

    print(f"{'spec':36s} {'target':6s} {'bound':>12s} {'best':>12s} {'slack':>12s}")
    start = time.monotonic()
    worst = None
    for text, targets in REPORT_GRID:
        spec = parse_spec(text)
        for target in (t for t in targets if t in TARGETS):
            rep = max_coeff(spec, target, cfg)
            flag = "  VIOLATED" if rep.violated else ""
            print(f"{rep.spec_text:36s} {target:6s} {rep.bound:12.8f} "
                  f"{rep.best_value:12.8f} {rep.slack:12.4e}{flag}")
            if worst is None or rep.slack < worst[0]:
                worst = (rep.slack, rep.spec_text, target)
    print(f"\nsmallest slack: {worst[0]:.4e} at {worst[1]} {worst[2]}")
    print(f"elapsed: {time.monotonic() - start:.1f}s")


if __name__ == "__main__":
    main()
