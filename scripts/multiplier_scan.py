#!/usr/bin/env python3
"""For every divisor g of x^n+1, list the multiplier units preserving the
code generated by g and the order of the shift-and-multiplier subgroup,
n*|U| for the group U of those units.

Usage: python scripts/multiplier_scan.py 31
"""

import argparse

from cycaut import CyclicCode, divisors_of_xn_minus_1, multiplier_subgroup


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", type=int)
    args = parser.parse_args()
    n = args.n

    for g in divisors_of_xn_minus_1(n):
        code = CyclicCode(n, g)
        units = multiplier_subgroup(code)
        print(
            f"[{n},{code.dimension}] g={code.generator}  "
            f"units={{{','.join(map(str, units))}}}  order={n * len(units)}"
        )


if __name__ == "__main__":
    main()
