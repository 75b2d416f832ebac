"""Write alpha_pool.txt: the inputs of the algebraic-maxima workload.

The pool holds every root in (1/2, 1) of a normalized Littlewood polynomial
(coefficients +-1, constant term +1) of degree 1..8, one per line as a
`root:<coeffs>:<lo>:<hi>` spec that `takagi.cli.parse_alpha` accepts.  The
isolating intervals come from `intpoly.isolate_roots`; polynomials that
vanish at 1/2 or 1 are skipped.  These are critical-regime parameters, and
the step roots among them have non-unique maximizers.

Run from the root of a checkout:

    python3 bench/make_alpha_pool.py
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

MAX_DEGREE = 8
LO, HI = Fraction(1, 2), Fraction(1)


def pool_specs(intpoly) -> list[str]:
    specs = []
    for degree in range(1, MAX_DEGREE + 1):
        for mask in range(1 << degree):
            coeffs = (1,) + tuple(-1 if (mask >> j) & 1 else 1 for j in range(degree))
            if intpoly.sign_at(coeffs, LO) == 0 or intpoly.sign_at(coeffs, HI) == 0:
                continue
            for lo, hi in intpoly.isolate_roots(coeffs, LO, HI):
                specs.append("root:%s:%s:%s" % (",".join(map(str, coeffs)), lo, hi))
    return specs


def main() -> int:
    specs = pool_specs(wl.import_takagi().intpoly)
    if len(specs) != wl.POOL_SIZE:
        print("expected %d roots, found %d" % (wl.POOL_SIZE, len(specs)), file=sys.stderr)
        return 1
    header = "# %d roots in (1/2, 1) of normalized Littlewood polynomials of degree <= %d; written by make_alpha_pool.py\n"
    wl.POOL_FILE.write_text(header % (len(specs), MAX_DEGREE) + "\n".join(specs) + "\n")
    print("%d specs written to %s" % (len(specs), wl.POOL_FILE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
