"""Time each suite of ``verify --suite all`` in process.

Runs the suites of ``run_suites("all", order, max)`` in their stable order
over one shared ``verify.Tables``, as the CLI does, and prints one JSON
object: the in-process seconds of each suite, their total, whether every
suite passed, and the peak RSS of the process.  The first suite to read a
shared table pays for building it.  ``--repeat K`` runs the suites K times,
each time over a fresh ``Tables`` after ``series.clear_product_store()``,
and reports each suite's median: the host's speed swings, so one run can
mislead.  The suites' times exclude the import; ``import_s`` gives it
apart, for each of ``qident.cli`` (the per-n layer that ``qident table``
loads) and ``qident.verify`` (the batch stack), and the cost of a whole
smallest ``qident verify --suite dkm --order 2`` process beside them: the
median wall and CPU seconds (user plus system, from ``wait4``) of 5 fresh
interpreters.  CPU above wall is work on other cores, such as a BLAS thread
pool that numpy starts.

``--table MAX`` times ``qident table`` instead of the suites: each column
of ``cli.TABLE_COLUMNS`` alone over 0 <= n <= MAX, and ``rows_s``, every
column row by row as ``table`` builds its rows, each the median of
``--repeat`` runs.  Each run starts with an empty orthant-walk cache, so a
column timed alone pays for its own walks, while ``table`` reads one walk
for both a and b at each row.

``--lane MAX`` runs the bijection window lane alone, ``verify_windows``
over n <= MAX, and prints its seconds (the median of ``--repeat`` runs,
the tables it reads built beforehand) and what one more run walks,
counted by wrapping the lane's functions from outside: the pairs that
``_kernels._pair_blocks`` yields (``pairs_opened``), the pairs the
cursors pop window by window (``pair_visits``; null before the cursor,
when every opened pair was visited), the terms the enumerator gives
(``terms_walked``: ``ProgressionCursor.take``, or ``progression_terms``
before it), the terms the checks read (``terms_kept``: ``_window_triples``
and ``_window_forms``) and the windows.

    PYTHONPATH=src python3 scripts/suite_times.py --order 300 --max 9000
    PYTHONPATH=src python3 scripts/suite_times.py --max 3000 --repeat 5
    PYTHONPATH=src python3 scripts/suite_times.py --table 2000 --repeat 5
    PYTHONPATH=src python3 scripts/suite_times.py --lane 18000
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import qident
from qident import (_kernels, bijection_windows, cli, oracles, quadforms,
                    series, verify)

IMPORT_RUNS = 5


# fresh processes timed for ``import_s``, by name: the interpreter's
# arguments
FRESH = {
    "qident.cli": ("-c", "import qident.cli"),
    "qident.verify": ("-c", "import qident.verify"),
    "verify --suite dkm --order 2": ("-m", "qident.cli", "verify", "--suite",
                                     "dkm", "--order", "2"),
}


def process_seconds(args) -> dict:
    """Median wall and CPU seconds of ``IMPORT_RUNS`` fresh ``python *args``
    processes, with this qident first on their path; the CPU seconds are
    the child's own user and system time from ``wait4``."""
    src = os.path.dirname(os.path.dirname(qident.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    walls, cpus = [], []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        walls.append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        cpus.append(usage.ru_utime + usage.ru_stime)
    return {"wall_s": round(statistics.median(walls), 4),
            "cpu_s": round(statistics.median(cpus), 4)}


def _timed(fn, repeat: int) -> float:
    """Median seconds of ``repeat`` runs of ``fn()``, each after emptying
    the orthant-walk cache."""
    times = []
    for _ in range(repeat):
        oracles._orthant_solutions.cache_clear()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def table_seconds(maxn: int, repeat: int) -> dict:
    """In-process seconds of each ``qident table`` column over
    0 <= n <= maxn, and of the whole rows."""
    ns = range(maxn + 1)
    columns = {c: _timed(lambda f=f: [f(n) for n in ns], repeat)
               for c, f in cli._COLUMN_VALUES.items()}
    rows = _timed(lambda: [cli._table_row(n, cli.TABLE_COLUMNS)
                           for n in ns], repeat)
    return {"table_max": maxn, "repeat": repeat, "columns": columns,
            "rows_s": rows}


def _counting(counts, fn, name, pairs=None):
    """``fn`` adding the length of its first array to ``counts[name]``, and
    the pairs it popped to ``counts[pairs]``, if given."""
    def wrapped(*args):
        out = fn(*args)
        counts[name] += len(out[0])
        if pairs:
            counts[pairs] += len(args[0]._popped[0])
        return out
    return wrapped


def _counting_blocks(counts, fn):
    """The generator ``fn`` adding the pairs of each block it yields to
    ``counts["pairs_opened"]``."""
    def wrapped(*args, **kwargs):
        for block in fn(*args, **kwargs):
            counts["pairs_opened"] += len(block[0])
            yield block
    return wrapped


def lane_counts(maxn: int, repeat: int) -> dict:
    """Seconds and walk counts of the bijection window lane over n <= maxn
    (see the module docstring)."""
    h12 = quadforms.hurwitz_table(4 * maxn)
    sigma0 = _kernels.sigma_table(maxn, 0)

    def windows():
        return sum(1 for _ in bijection_windows.verify_windows(maxn, h12,
                                                               sigma0))

    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        windows()
        times.append(time.perf_counter() - start)
    counts = dict.fromkeys(("pairs_opened", "pair_visits", "terms_walked",
                            "terms_kept"), 0)
    cursor = getattr(_kernels, "ProgressionCursor", None)
    patches = [(_kernels, "_pair_blocks", _counting_blocks(
        counts, _kernels._pair_blocks))]
    if cursor is None:
        counts["pair_visits"] = None
        patches.append((_kernels, "progression_terms", _counting(
            counts, _kernels.progression_terms, "terms_walked")))
    else:
        patches.append((cursor, "take", _counting(
            counts, cursor.take, "terms_walked", "pair_visits")))
    for name in ("_window_triples", "_window_forms"):
        patches.append((bijection_windows, name, _counting(
            counts, getattr(bijection_windows, name), "terms_kept")))
    saved = [(holder, name, holder.__dict__[name])
             for holder, name, _ in patches]
    try:
        for holder, name, wrapped in patches:
            setattr(holder, name, wrapped)
        counts["windows"] = windows()
    finally:
        for holder, name, orig in saved:
            setattr(holder, name, orig)
    return {"lane_max": maxn, "repeat": repeat,
            "seconds": round(statistics.median(times), 4), **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=300)
    parser.add_argument("--max", dest="maxn", type=int, default=3000)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs of the suites; each suite's median is "
                             "reported (default 1)")
    parser.add_argument("--table", type=int, metavar="MAX",
                        help="time each qident table column over n <= MAX "
                             "instead of the suites")
    parser.add_argument("--lane", type=int, metavar="MAX",
                        help="time and count the bijection window lane "
                             "over n <= MAX instead of the suites")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.lane is not None:
        if not 7 <= args.lane < bijection_windows.WINDOW_N_LIMIT:
            parser.error("--lane must be >= 7 and below the lane's bound")
        json.dump(lane_counts(args.lane, args.repeat), sys.stdout, indent=1)
        print()
        return 0
    if args.table is not None:
        if args.table < 0:
            parser.error("--table must be >= 0")
        json.dump(table_seconds(args.table, args.repeat), sys.stdout,
                  indent=1)
        print()
        return 0
    problem = verify.size_error("all", args.order, args.maxn)
    if problem:
        parser.error(problem)

    runs = {name: [] for name in verify._SUITES}
    passed = True
    for _ in range(args.repeat):
        series.clear_product_store()
        tables = verify.Tables(args.maxn)
        for name, suite in verify._SUITES.items():
            start = time.perf_counter()
            report = suite(args.order, args.maxn, tables)
            runs[name].append(time.perf_counter() - start)
            passed = passed and report.passed
    seconds = {name: round(statistics.median(times), 4)
               for name, times in runs.items()}
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    imports = {name: process_seconds(args) for name, args in FRESH.items()}
    json.dump({"order": args.order, "max": args.maxn,
               "repeat": args.repeat, "seconds": seconds,
               "total_s": round(sum(seconds.values()), 4),
               "passed": passed, "peak_rss_mb": round(rss, 1),
               "import_s": imports},
              sys.stdout, indent=1)
    print()
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
