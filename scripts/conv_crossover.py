"""Time the two radices of the packed product of ``qident.series``.

For every operand size n and coefficient width (bits), two random operands
of n signed coefficients below ``2**bits`` in magnitude are multiplied
modulo ``q**n`` by ``_conv_packed``, once with byte columns and once with
decimal columns; each radix is forced by setting ``DECIMAL_MIN_DIGITS``
past every case or to 0, and each time is the best of five.  The packed
size ``n * width`` (decimal digits) is what ``_conv_packed`` compares with
``DECIMAL_MIN_DIGITS``.  Prints one JSON object.

    PYTHONPATH=src python3 scripts/conv_crossover.py
"""

from __future__ import annotations

import json
import random
import sys
import time

from qident import series

SIZES = (128, 256, 300, 512, 1024, 1536, 2048, 3001, 4000)
BITS = (4, 8, 16, 32, 60, 106, 200, 400)
REPEATS = 5


def best_of(min_digits, u, v, n):
    """Best time and result of ``_conv_packed(u, v, n)`` with the radix
    threshold set to ``min_digits``."""
    saved = series.DECIMAL_MIN_DIGITS
    series.DECIMAL_MIN_DIGITS = min_digits
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            out = series._conv_packed(u, v, n)
            best = min(best, time.perf_counter() - start)
    finally:
        series.DECIMAL_MIN_DIGITS = saved
    return best, out


def main() -> int:
    rng = random.Random(0)
    rows = []
    for n in SIZES:
        for bits in BITS:
            top = 1 << bits
            u = [rng.randrange(-top + 1, top) for _ in range(n)]
            v = [rng.randrange(-top + 1, top) for _ in range(n)]
            width = len(str(4 * max(map(abs, u)) * max(map(abs, v)) * n))
            t_bytes, ref = best_of(sys.maxsize, u, v, n)
            t_dec, out = best_of(0, u, v, n)
            if out != ref:
                raise SystemExit(f"radices differ at n={n}, bits={bits}")
            rows.append({"n": n, "bits": bits, "width": width,
                         "packed_digits": n * width,
                         "bytes_s": round(t_bytes, 6),
                         "decimal_s": round(t_dec, 6),
                         "decimal_over_bytes": round(t_dec / t_bytes, 3)})
            print(f"n={n:5d} bits={bits:4d} digits={n * width:8d} "
                  f"bytes={t_bytes * 1e3:8.2f} ms "
                  f"decimal={t_dec * 1e3:8.2f} ms", file=sys.stderr)
    json.dump({"repeats": REPEATS, "python": sys.version.split()[0],
               "decimal_min_digits": series.DECIMAL_MIN_DIGITS,
               "rows": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
