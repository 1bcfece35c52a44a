"""Time each suite of ``verify --suite all`` in process.

Runs the suites of ``run_suites("all", order, max)`` in their stable order
over one shared ``verify.Tables``, as the CLI does, and prints one JSON
object: the in-process seconds of each suite, their total, whether every
suite passed, and the peak RSS of the process.  The first suite to read a
shared table pays for building it.  The import is not timed.

    PYTHONPATH=src python3 scripts/suite_times.py --order 300 --max 9000
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from qident import verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=300)
    parser.add_argument("--max", dest="maxn", type=int, default=3000)
    args = parser.parse_args(argv)
    problem = verify.size_error("all", args.order, args.maxn)
    if problem:
        parser.error(problem)

    tables = verify.Tables(args.maxn)
    seconds, passed = {}, True
    for name, suite in verify._SUITES.items():
        start = time.perf_counter()
        report = suite(args.order, args.maxn, tables)
        seconds[name] = round(time.perf_counter() - start, 4)
        passed = passed and report.passed
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump({"order": args.order, "max": args.maxn, "seconds": seconds,
               "total_s": round(sum(seconds.values()), 4),
               "passed": passed, "peak_rss_mb": round(rss, 1)},
              sys.stdout, indent=1)
    print()
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
