"""Time the two large-product paths of ``qident.series`` against each other.

For every operand size n and coefficient width (bits), two random operands
of n signed coefficients below ``2**bits`` in magnitude are multiplied
modulo ``q**n`` by ``_conv_kronecker`` and by ``_conv_decimal``; each time
is the best of five.  The packed size ``n * width`` (decimal digits) is
what ``_conv`` compares with ``DECIMAL_MIN_DIGITS``.  Prints one JSON
object.

    PYTHONPATH=src python3 scripts/conv_crossover.py
"""

from __future__ import annotations

import json
import random
import sys
import time

from qident.series import (DECIMAL_MIN_DIGITS, _column_width, _conv_decimal,
                           _conv_kronecker)

SIZES = (128, 256, 300, 512, 1024, 1536, 2048, 3001, 4000)
BITS = (4, 8, 16, 32, 60, 106, 200, 400)
REPEATS = 5


def best_of(f, *args):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = f(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> int:
    rng = random.Random(0)
    rows = []
    for n in SIZES:
        for bits in BITS:
            top = 1 << bits
            u = [rng.randrange(-top + 1, top) for _ in range(n)]
            v = [rng.randrange(-top + 1, top) for _ in range(n)]
            width = _column_width(max(map(abs, u)), max(map(abs, v)), n)
            t_kron, ref = best_of(_conv_kronecker, u, v, n)
            t_dec, out = best_of(_conv_decimal, u, v, n)
            if out != ref:
                raise SystemExit(f"paths differ at n={n}, bits={bits}")
            rows.append({"n": n, "bits": bits, "width": width,
                         "packed_digits": n * width,
                         "kronecker_s": round(t_kron, 6),
                         "decimal_s": round(t_dec, 6),
                         "decimal_over_kronecker": round(t_dec / t_kron, 3)})
            print(f"n={n:5d} bits={bits:4d} digits={n * width:8d} "
                  f"kronecker={t_kron * 1e3:8.2f} ms "
                  f"decimal={t_dec * 1e3:8.2f} ms", file=sys.stderr)
    json.dump({"repeats": REPEATS, "python": sys.version.split()[0],
               "decimal_min_digits": DECIMAL_MIN_DIGITS, "rows": rows},
              sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
