#!/usr/bin/env python3
"""Scan measurement success probabilities across field sizes at fixed n.

Prints one row per field with the lemma lower bound, the approximate
(implementable-measurement) success, the ideal success, and the good-set
profile, so the flat-in-d behaviour is visible at a glance.
"""

import argparse
import sys

from hpp.fibers import Orbits, pick_analysis
from hpp.gf import field_descriptor, parse_field
from hpp.pgm import success_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fields", default="3,2^2,5,7,11,19,31",
                        help="comma-separated field sizes, 'p' or 'p^e'")
    parser.add_argument("-n", type=int, default=2, help="degree bound / copies")
    args = parser.parse_args(argv)

    print(f"{'field':>7} {'analysis':>9} {'lemma2':>10} {'approx':>10} {'ideal':>10} "
          f"{'x_good':>7} {'w_good_min':>11}")
    for desc in args.fields.split(","):
        ctx = parse_field(desc.strip())
        report = success_report(Orbits(ctx, args.n), pick_analysis(ctx, args.n))
        print(f"{field_descriptor(ctx):>7} {report.good.analysis.value:>9} "
              f"{report.lemma2:>10.6f} {report.approx:>10.6f} "
              f"{report.ideal:>10.6f} {report.x_good_count:>7} "
              f"{report.w_good_min:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
