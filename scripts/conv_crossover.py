"""Time the crossovers of the series products of ``qident.series``.

Radix sweep: for every operand size n and coefficient width (bits), two
random operands of n signed coefficients below ``2**bits`` in magnitude are
multiplied modulo ``q**n`` by ``_conv_packed``, once with byte columns and
once with decimal columns; each radix is forced by setting
``DECIMAL_MIN_DIGITS`` past every case or to 0.  The packed size
``n * width`` (decimal digits) is what ``_conv_packed`` compares with
``DECIMAL_MIN_DIGITS``.  Each time is the best of five.

Row replay: the package's own products.  ``verify.run_suites`` runs the
suites of ``REPLAY_RUNS`` with ``_conv_rows`` and ``_conv_packed`` (only
``_conv`` calls them) wrapped to record every product that reaches the
choice between them.  Each distinct product, by length n, number k of
nonzero terms of the sparser operand, the largest modulus among them and
the bit width of the dense operand, runs through both paths, best of
five, and ``takes_rows`` is what ``_conv``'s rule picks.  For each offset
tried in place of ``ROW_TERMS_OVER_BITS``, ``offsets`` gives the time the
picks of the rule with that offset spend over the faster path (over every
recorded product, repeats counted), the time of those picks, and the
products where the pick is more than 15 % slower than the other path.
``summary`` totals the rule's picks, the faster path and the packed
product alone, and counts where rows were faster, over every product and
over those that pass the rule's clauses other than the bits clause.

Lane replay: every ``_factors_lane`` build of the same runs, each run on
a cleared product store, recorded as (unit, offset, modulus, order).  Each
build is timed, best of five, with ``_tail_start`` patched to each start of
``LANE_STARTS``: the rule's start t, half and twice t, ``ceil(order/2)``
(the older upper-half scan) and the first exponent (no factor applied one
at a time).  Every start must give the same product.  ``summary`` totals
each start over every recorded build and counts where each was fastest.

Prints one JSON object, the radix sweep first.

    PYTHONPATH=src python3 scripts/conv_crossover.py
"""

from __future__ import annotations

import collections
import json
import random
import sys
import time

from qident import series
from qident.verify import run_suites

SIZES = (128, 256, 300, 512, 1024, 1536, 2048, 3001, 4000)
BITS = (4, 8, 16, 32, 60, 106, 200, 400)
REPEATS = 5

# (suite, order, max) as ``verify.run_suites`` takes them: the two
# benchmark workloads, ``verify --suite dkm --order 4000`` and ``verify
# --suite all --order 300 --max 3000``, and ``verify --suite theorem17
# --max 18000``, kept so that replays compare across versions: no suite
# builds lane series at --max any more, so it multiplies only below q**201,
# where its eta table is pinned to the lane
REPLAY_RUNS = (("dkm", 4000, 1000), ("all", 300, 3000),
               ("theorem17", 200, 18000))
OFFSETS = range(0, 129, 4)

_rule_start = series._tail_start

# name -> a stand-in for ``series._tail_start(e, modulus, order)``
LANE_STARTS = {
    "rule": _rule_start,
    "half_rule": lambda e, m, n: _rule_start(e, m, n) // 2,
    "twice_rule": lambda e, m, n: 2 * _rule_start(e, m, n),
    "half_order": lambda e, m, n: -(-n // 2),
    "first_exponent": lambda e, m, n: e,
}


def best(f, *args):
    """Best time and result of ``f(*args)`` over ``REPEATS`` calls."""
    top = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = f(*args)
        top = min(top, time.perf_counter() - start)
    return top, out


def best_of(min_digits, u, v, n):
    """Best time and result of ``_conv_packed(u, v, n)`` with the radix
    threshold set to ``min_digits``."""
    saved = series.DECIMAL_MIN_DIGITS
    series.DECIMAL_MIN_DIGITS = min_digits
    try:
        return best(series._conv_packed, u, v, n)
    finally:
        series.DECIMAL_MIN_DIGITS = saved


def radix_sweep(rng) -> list[dict]:
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
    return rows


def recorded_products() -> list[tuple[list[int], list[int], int]]:
    """Every (u, v, n) that reaches ``_conv``'s choice of path in the runs
    of ``REPLAY_RUNS``."""
    products = []
    rows, packed = series._conv_rows, series._conv_packed

    def record_rows(nzu, v, n):
        u = [0] * n
        for j, x in nzu:
            u[j] = x
        products.append((u, list(v), n))
        return rows(nzu, v, n)

    def record_packed(u, v, n):
        products.append((list(u), list(v), n))
        return packed(u, v, n)

    series._conv_rows, series._conv_packed = record_rows, record_packed
    try:
        for run in REPLAY_RUNS:
            run_suites(*run)
    finally:
        series._conv_rows, series._conv_packed = rows, packed
    return products


def row_replay() -> dict:
    seen, counts = {}, collections.Counter()
    for u, v, n in recorded_products():
        u, v = u[:n], v[:n]
        if sum(map(bool, u)) > sum(map(bool, v)):
            u, v = v, u
        nzu = [(j, x) for j, x in enumerate(u) if x]
        key = (n, len(nzu), max(abs(x) for _, x in nzu),
               max(map(abs, v)).bit_length())
        counts[key] += 1
        seen.setdefault(key, (u, v, nzu))
    products = []
    for key, (u, v, nzu) in sorted(seen.items()):
        n, k, modulus, bits = key
        t_rows, out = best(series._conv_rows, nzu, v, n)
        t_packed, ref = best(series._conv_packed, u, v, n)
        if out != ref:
            raise SystemExit(f"row path differs at n={n}, k={k}, "
                             f"bits={bits}")
        products.append({"n": n, "k": k, "sparse_modulus": modulus,
                         "bits": bits, "count": counts[key],
                         "rows_s": round(t_rows, 6),
                         "packed_s": round(t_packed, 6),
                         "rows_over_packed": round(t_rows / t_packed, 3),
                         "takes_rows": series._takes_rows(nzu, v, n)})
        print(f"n={n:5d} k={k:5d} modulus={modulus} bits={bits:4d} "
              f"rows={t_rows * 1e3:8.2f} ms "
              f"packed={t_packed * 1e3:8.2f} ms", file=sys.stderr)
    offsets = []
    for offset in OFFSETS:
        over, picked, slow = 0.0, 0.0, []
        for p in products:
            rows = (_eligible(p) and p["k"] <= offset + p["bits"])
            pick, other = ((p["rows_s"], p["packed_s"]) if rows
                           else (p["packed_s"], p["rows_s"]))
            over += p["count"] * (pick - min(pick, other))
            picked += p["count"] * pick
            if pick > 1.15 * other:
                slow.append([p["n"], p["k"], p["bits"]])
        offsets.append({"offset": offset, "over_faster_s": round(over, 6),
                        "picked_s": round(picked, 6),
                        "slower_by_15_percent": slow})
    return {"runs": REPLAY_RUNS, "summary": _summary(products),
            "products": products, "offsets": offsets}


def _eligible(p) -> bool:
    """Whether the product passes the clauses of ``_takes_rows`` other than
    the bits clause: a sparse modulus of at most 2 and ``2 k <= n``."""
    return p["sparse_modulus"] <= 2 and 2 * p["k"] <= p["n"]


def _summary(products) -> dict:
    """Totals over every recorded product (repeats counted), and where rows
    were faster, overall and among the products the bits clause decides."""
    def total(f):
        return round(sum(p["count"] * f(p) for p in products), 6)

    eligible = [p for p in products if _eligible(p)]
    return {
        "products": sum(p["count"] for p in products),
        "distinct": len(products),
        "max_n": max(p["n"] for p in products),
        "max_bits": max(p["bits"] for p in products),
        "rule_s": total(lambda p: p["rows_s"] if p["takes_rows"]
                        else p["packed_s"]),
        "faster_s": total(lambda p: min(p["rows_s"], p["packed_s"])),
        "packed_s": total(lambda p: p["packed_s"]),
        "rows_faster": sum(p["rows_s"] < p["packed_s"] for p in products),
        "eligible": len(eligible),
        "eligible_rows_faster": sum(p["rows_s"] < p["packed_s"]
                                    for p in eligible),
        "rule_picks_faster": sum(p["takes_rows"] == (p["rows_s"]
                                                     < p["packed_s"])
                                 for p in products),
    }


def recorded_builds() -> list[tuple[int, int, int, int]]:
    """Every (unit, e, modulus, order) that ``_factors_lane`` builds in the
    runs of ``REPLAY_RUNS``, each run from a cleared product store, as in
    a process of its own."""
    builds = []
    lane = series._factors_lane

    def record(*key):
        builds.append(key)
        return lane(*key)

    series._factors_lane = record
    try:
        for run in REPLAY_RUNS:
            series.clear_product_store()
            run_suites(*run)
    finally:
        series._factors_lane = lane
        series.clear_product_store()
    return builds


def lane_replay() -> dict:
    builds = []
    for key in recorded_builds():
        times, ref = {}, None
        for name, start in LANE_STARTS.items():
            series._tail_start = start
            try:
                times[name], out = best(series._factors_lane, *key)
            finally:
                series._tail_start = _rule_start
            if ref is None:
                ref = out
            elif out != ref:
                raise SystemExit(f"start {name} changes the product {key}")
        unit, e, modulus, order = key
        builds.append({"unit": unit, "offset": e, "modulus": modulus,
                       "order": order,
                       "start": _rule_start(e, modulus, order),
                       **{f"{k}_s": round(t, 6) for k, t in times.items()}})
        print(f"lane {key} " + " ".join(f"{k}={t * 1e3:.2f}"
                                        for k, t in times.items()),
              file=sys.stderr)
    summary = {"builds": len(builds),
               "distinct": len({(b["unit"], b["offset"], b["modulus"],
                                 b["order"]) for b in builds}),
               "max_order": max(b["order"] for b in builds)}
    for name in LANE_STARTS:
        summary[f"{name}_s"] = round(sum(b[f"{name}_s"] for b in builds), 6)
        summary[f"{name}_fastest"] = sum(
            min(LANE_STARTS, key=lambda k: b[f"{k}_s"]) == name
            for b in builds)
    summary["fastest_s"] = round(sum(min(b[f"{k}_s"] for k in LANE_STARTS)
                                     for b in builds), 6)
    return {"runs": REPLAY_RUNS, "summary": summary, "builds": builds}


def main() -> int:
    rng = random.Random(0)
    out = {"repeats": REPEATS, "python": sys.version.split()[0],
           "decimal_min_digits": series.DECIMAL_MIN_DIGITS,
           "row_terms_over_bits": series.ROW_TERMS_OVER_BITS,
           "rows": radix_sweep(rng), "row_replay": row_replay(),
           "lane_replay": lane_replay()}
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
