#!/usr/bin/env python3
"""Survey every binary cyclic code of length <= N: parameters, weight
distribution, and the brute-forced automorphism group order.  N may not
exceed the brute-force cutoff BRUTE_FORCE_MAX_N.

Usage: python scripts/survey_small_codes.py [--max-n 8]
"""

import argparse

from cycaut import CyclicCode, brute_force_group, divisors_of_xn_minus_1
from cycaut.verify import BRUTE_FORCE_MAX_N


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()
    if args.max_n > BRUTE_FORCE_MAX_N:
        parser.error(f"--max-n {args.max_n} exceeds the brute-force cutoff {BRUTE_FORCE_MAX_N}")

    for n in range(1, args.max_n + 1):
        for g in divisors_of_xn_minus_1(n):
            code = CyclicCode(n, g)
            order, _ = brute_force_group(code)
            dist = code.weight_distribution()
            weights = " ".join(f"{w}:{c}" for w, c in dist.items())
            print(
                f"[{n},{code.dimension}] g={code.generator}  "
                f"|Aut|={order}  weights {weights}"
            )


if __name__ == "__main__":
    main()
