#!/usr/bin/env python3
"""Tabulate guaranteed sample sizes against the leading-order reference.

For each (epsilon, delta) pair this prints m_pac, the reference
2k ||l||^2 eps^-2 max(1, ln(1/delta)) (k^2 in place of k for the
non-partite scheme), and their ratio.  The ratio shrinks toward 1 only
as epsilon -> 0 far beyond desk scale; at these grids the union-bound
log factor still dominates, so expect ratios in the tens.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kcompress.experiments import FAMILIES
from kcompress.learner import (
    GuaranteeInputs,
    MPacNotFound,
    asymptotic_guarantee_reference,
    m_pac,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epsilons", default="0.1,0.05,0.02", help="comma-separated")
    parser.add_argument("--deltas", default="0.1,0.01", help="comma-separated")
    parser.add_argument("--scan-limit", type=int, default=2_000_000)
    parser.add_argument("--k", type=int, default=2)
    args = parser.parse_args()

    epsilons = [float(p) for p in args.epsilons.split(",")]
    deltas = [float(p) for p in args.deltas.split(",")]

    print(f"{'scheme':<14} {'eps':>6} {'delta':>6} {'m_pac':>9} {'reference':>11} {'ratio':>7}")
    for name, family in FAMILIES.items():
        scheme, loss = family.scheme(args.k), family.loss()
        for eps in epsilons:
            for delta in deltas:
                inputs = GuaranteeInputs.from_scheme(scheme, loss, eps, delta)
                ref = asymptotic_guarantee_reference(inputs)
                try:
                    m0 = m_pac(inputs, args.scan_limit)
                except MPacNotFound as exc:
                    print(f"{name:<14} {eps:>6} {delta:>6} {'-':>9} {ref:>11.1f}   not found: {exc}")
                    continue
                print(f"{name:<14} {eps:>6} {delta:>6} {m0:>9} {ref:>11.1f} {m0 / ref:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
