#!/usr/bin/env python3
"""The qident benchmark: fixed ``qident`` commands, each run as a fresh process.

Usage, from the root of a source checkout (``src/qident`` must be there)::

    python3 perfbench/run.py --workload verify-stress --seed 1 --seconds 30 --trace 0

One run is a closed loop with a single client: the command is started, read
to the end and reaped before the next one starts, and no new one starts
once another would end past ``--seconds``.  Each invocation's output goes
through the correctness gate of its workload.

``--trace 0`` reports the end-to-end metrics: median wall, CPU and peak RSS
of the invocations, the median set-up time of several bare
``import qident.cli`` processes, and the share of operations that passed
the gate.  Wall, CPU and set-up times are scaled to a host at nominal speed
by calibration windows run between the children (``HostSpeed``).
``--trace 1`` makes one untraced and one traced invocation
(``perfbench/tracer.py``) and reports the per-layer metrics plus the
tracing overhead; the full trace with its spans is written to
``.perfbench_out/``.  Traced times are not scaled.

The workloads' inputs are fixed CLI arguments; ``--seed`` is recorded and
changes nothing.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from tracer import KERNELS, TRACE_MARKER

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
OUT_DIR = ".perfbench_out"
RUN_LIMIT_S = 170.0      # a run must end within 180 s
SETUP_SAMPLES = 11       # timed set-up processes per run, after one warm-up
CAL_NOMINAL_S = 0.001    # one calibration unit on a host at nominal speed
CAL_MIN_S = 0.4          # shortest calibration window
CAL_SETUP_S = 0.1        # calibration window after each set-up process
CAL_SHARE = 0.3          # window length as a share of the last child's wall


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    reference: str       # file under perfbench/reference/


WORKLOADS = {w.name: w for w in (
    Workload("verify-stress",
             ("verify", "--suite", "all", "--order", "300", "--max", "3000",
              "--format", "json"),
             "verify_all_order300_max3000.json"),
    Workload("series-deep",
             ("verify", "--suite", "dkm", "--order", "4000", "--format",
              "json"),
             "verify_dkm_order4000.json"),
    Workload("table-sweep",
             ("table", "--max", "2000", "--format", "csv"),
             "table_max2000.csv"),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}

SUITES = ("dkm", "corollary", "theorem17", "propositions", "theorem61",
          "bijections", "background")

# per-layer metric name -> (tracer record, field); field "work" is the
# record's work count (see tracer.TARGETS for what each one counts)
LAYER_METRICS: dict[str, tuple[str, str]] = {}


def _layer(record: str, fields: str, prefix: str | None = None) -> None:
    for field in fields.split():
        name, _, source = field.partition("=")
        LAYER_METRICS[f"{prefix or record}.{name}"] = (record, source or name)


_layer("series.pochhammer_inf", "calls self_s updates=work")
_layer("series.mul", "calls self_s coeffs=work")
_layer("series.invert", "calls self_s")
_layer("series.series_eq", "calls self_s")
_layer("theta.theta_j", "calls self_s")
_layer("theta.theta_j_sum", "calls self_s")
_layer("theta.product_side_series", "calls s")
_layer("theta.product_side_pochhammer", "calls")
_layer("theta.product_side_theta", "calls")
_layer("theta.verify_theta_suite", "s")
_layer("appell.appell_m", "calls s")
_layer("appell.verify_appell_suite", "s")
_layer("quadforms.hurwitz_H", "calls self_s")
_layer("quadforms.enumerate_reduced", "calls self_s")
_layer("quadforms.enumerate_reduced", "forms=work", prefix="quadforms")
_layer("counting.three_squares_parity_check", "calls s")
_layer("counting.rep_squares", "calls s")
_layer("counting.rep_count", "calls s")
_layer("counting.signed_rep_count", "calls s")
_layer("counting.signed_formula", "calls s")
_layer("counting.sigma", "calls s")
_layer("counting.sum_side_series", "s")
_layer("counting.classical_checks", "s")
for _k in KERNELS:  # metric names must start with a letter or a digit
    _layer(f"_kernels.{_k}", "calls self_s out_bytes=work",
           prefix=f"kernels.{_k}")
_layer("bijections.verify_case", "calls self_s s")
_layer("bijections.solution_triples", "calls s")
_layer("bijections.solution_triples", "triples=work", prefix="bijections")
_layer("report.sweep_check", "calls self_s")
_layer("report.series_check", "calls self_s")
for _s in SUITES:
    _layer(f"verify.suite.{_s}", "s")
_layer("cli.command", "self_s", prefix="cli.emit")

TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


def layer_unit(metric: str) -> str:
    if metric.startswith("trace.") or metric.endswith((".s", ".self_s")):
        return "s"
    return "bytes" if metric.endswith(".out_bytes") else "count"


# --------------------------------------------------------------------------
# correctness gates: (attempted, failed, first problem or None)
# --------------------------------------------------------------------------


def load_reference(workload: Workload):
    path = REFERENCE / workload.reference
    if path.suffix == ".json":
        return [tuple(c) for c in json.loads(path.read_text())["checks"]]
    return path.read_text()


def check_verify_output(returncode: int, stdout: str, manifest):
    """Every (suite, check) of the manifest must be present and pass, and no
    other check may appear.  Unknown fields are ignored."""
    attempted = len(manifest)
    if returncode != 0:
        return attempted, attempted, f"exit code {returncode}"
    try:
        payload = json.loads(stdout)
        reports = payload if isinstance(payload, list) else [payload]
        seen, passed = Counter(), Counter()
        for report in reports:
            for check in report["checks"]:
                key = (report["suite"], check["name"])
                seen[key] += 1
                passed[key] += check["status"] == "pass"
    except (ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, f"unparseable report: {exc!r}"
    expected = Counter(manifest)
    extra = sum((seen - expected).values())
    failed = extra + sum(n - min(passed[key], n) for key, n in expected.items())
    problem = None
    if failed:
        bad = [k for k in expected if passed[k] < expected[k]]
        bad += list(seen - expected)
        problem = f"{failed} failed, missing or unexpected checks, first {bad[0]}"
    return attempted + extra, failed, problem


def check_table_output(returncode: int, stdout: str, reference: str):
    """Header and every row must equal the reference text exactly."""
    header, *rows = reference.splitlines()
    attempted = len(rows)
    if returncode != 0:
        return attempted, attempted, f"exit code {returncode}"
    got_header, *got = stdout.splitlines() or [""]
    if got_header != header:
        return attempted, attempted, f"header {got_header!r} != {header!r}"
    bad = [i for i, row in enumerate(rows) if i >= len(got) or got[i] != row]
    extra = max(0, len(got) - len(rows))
    failed = len(bad) + extra
    problem = None
    if bad:
        problem = f"{failed} rows differ, first {rows[bad[0]]!r}"
    elif extra:
        problem = f"{extra} unexpected extra rows"
    return attempted + extra, failed, problem


def check_output(workload: Workload, returncode: int, stdout: str, reference):
    if workload.reference.endswith(".csv"):
        return check_table_output(returncode, stdout, reference)
    return check_verify_output(returncode, stdout, reference)


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


@dataclass
class Proc:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    first_out_s: float | None    # spawn until the first stdout bytes
    cpu_s: float
    peak_rss_mb: float


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(cmd, root: Path, timeout: float) -> Proc:
    """Run ``cmd`` to completion, reading both pipes, and reap it with
    ``wait4`` so its own CPU time and peak RSS are known.  The child is
    killed when ``timeout`` passes, and always reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    first_out = None
    try:
        killed = False
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(err_fd, selectors.EVENT_READ)
            while sel.get_map():
                left = start + timeout - time.perf_counter()
                if left <= 0 and not killed:
                    proc.kill()
                    killed = True
                for key, _ in sel.select(None if killed else max(left, 0)):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fd)
                        continue
                    if first_out is None and key.fd == out_fd:
                        first_out = time.perf_counter() - start
                    chunks[key.fd].append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    out, err = (b"".join(chunks[fd]).decode("utf-8", "replace")
                for fd in (out_fd, err_fd))
    return Proc(proc.returncode, out, err, wall, first_out,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


# --------------------------------------------------------------------------
# provenance and set-up
# --------------------------------------------------------------------------

# Prints "ready" as soon as qident.cli is imported, then the versions.
PROBE = """\
import sys
import qident.cli
sys.stdout.write("ready\\n")
sys.stdout.flush()
import json, platform, numpy, qident, qident._kernels as kernels
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = "absent"
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "numba": numba_version,
                  "use_numba": bool(kernels.USE_NUMBA),
                  "qident_file": qident.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git``, or None outside a git repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def probe_setup(root: Path, deadline: float, samples: int, speed=None):
    """One warm-up and ``samples`` timed ``import qident.cli`` processes,
    each followed by a calibration window when ``speed`` is given.
    Returns the set-up times, their host factors and the probe's
    provenance."""
    times, factors, info = [], [], None
    for i in range(samples + 1):
        p = spawn([sys.executable, "-c", PROBE], root,
                  deadline - time.perf_counter())
        lines = p.stdout.splitlines()
        if p.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise BenchError(f"cannot import qident.cli from {root / 'src'}:"
                             f" exit {p.returncode}\n{p.stderr.strip()}")
        info = json.loads(lines[1])
        if not Path(info["qident_file"]).resolve().is_relative_to(root / "src"):
            raise BenchError(f"qident imported from {info['qident_file']}, "
                             f"not from {root / 'src'}")
        if speed:
            speed.measure(CAL_SETUP_S)
        if i:
            times.append(p.first_out_s)
            factors.append(speed.factor() if speed else 1.0)
    return times, factors, info


def _squares(n: int, k: int) -> int:
    """Ordered representations of n as a sum of k squares, by recursion."""
    if k == 1:
        m = math.isqrt(n)
        return (m * m == n) * (1 + (n > 0))
    total, m = 0, 0
    while m * m <= n:
        total += _squares(n - m * m, k - 1) * (1 + (m > 0))
        m += 1
    return total


def calibration_unit() -> None:
    """About a millisecond of call-heavy integer work of the kind qident
    does.  It never changes with qident, so its speed is the host's."""
    if _squares(300, 4) != 2976:     # r_4(300) = 8 sigma(300) - 32 sigma(75)
        raise BenchError("the calibration unit computed a wrong value")


class HostSpeed:
    """How fast the host is now, from windows of calibration units run
    between the children, never beside them.  A factor of 1.5 means a unit
    took 1.5 times ``CAL_NOMINAL_S``; a child's time divided by its factor
    is its time on a host at nominal speed."""

    def __init__(self):
        calibration_unit()           # warm-up
        self.windows: list[tuple[float, int]] = []   # (seconds, units)

    def measure(self, seconds: float) -> None:
        start, units = time.perf_counter(), 0
        while True:
            calibration_unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.windows.append((elapsed, units))

    def factor(self) -> float:
        """Factor for the children that ran between the last two windows:
        their pooled time per unit, so a longer window weighs more."""
        (s1, u1), (s2, u2) = self.windows[-2:]
        return (s1 + s2) / (u1 + u2) / CAL_NOMINAL_S


def steal_ticks() -> int | None:
    """Machine-wide CPU time stolen by the hypervisor, in clock ticks."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def steal_seconds(start: int | None) -> float | None:
    """Stolen CPU time since ``start``, summed over the machine's CPUs."""
    end = steal_ticks()
    if start is None or end is None:
        return None
    return (end - start) / os.sysconf("SC_CLK_TCK")


def provenance(root: Path, workload: Workload, args, info, load1: float):
    return {
        "python": info["python"], "numpy": info["numpy"],
        "numba": info["numba"],
        "kernel_lane": "numba" if info["use_numba"] else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "argv": ["qident", *workload.argv],
        "loadavg_1m_at_start": load1,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


@dataclass
class Invocation:
    proc: Proc
    attempted: int
    failed: int
    problem: str | None


def invoke(cmd, workload, reference, root, deadline) -> Invocation:
    p = spawn(cmd, root, deadline - time.perf_counter())
    attempted, failed, problem = check_output(workload, p.returncode,
                                              p.stdout, reference)
    if problem and p.stderr.strip():
        problem += " | stderr: " + p.stderr.strip().splitlines()[-1]
    return Invocation(p, attempted, failed, problem)


def describe(label: str, inv: Invocation) -> str:
    p = inv.proc
    text = (f"{label}: raw wall {p.wall_s:.3f} s, raw cpu {p.cpu_s:.3f} s, "
            f"peak rss {p.peak_rss_mb:.1f} MB, "
            f"{inv.attempted - inv.failed}/{inv.attempted} ops pass")
    return text + (f"  FAIL: {inv.problem}" if inv.problem else "")


def end_to_end(root, workload, reference, seconds, deadline, speed):
    """The closed loop: one invocation at a time, each followed by a
    calibration window, until the next pair would end past ``seconds``
    (judged by the median so far); at least one.  Returns the invocations
    and the host factor of each."""
    cmd = [sys.executable, "-m", "qident.cli", *workload.argv]
    runs, factors = [], []
    start = time.perf_counter()
    while True:
        inv = invoke(cmd, workload, reference, root, deadline)
        speed.measure(max(CAL_MIN_S, CAL_SHARE * inv.proc.wall_s))
        runs.append(inv)
        factors.append(speed.factor())
        print(describe(f"invocation {len(runs)}", inv)
              + f", host factor {factors[-1]:.3f}")
        typical = statistics.median(r.proc.wall_s for r in runs)
        typical *= 1 + CAL_SHARE
        now = time.perf_counter()
        if now - start + typical > seconds or now + typical > deadline:
            return runs, factors


def traced(root, workload, reference, deadline):
    """One untraced, then one traced invocation; returns both and the trace."""
    plain = invoke([sys.executable, "-m", "qident.cli", *workload.argv],
                   workload, reference, root, deadline)
    print(describe("untraced invocation", plain))
    cmd = [sys.executable, str(HERE / "tracer.py"), *workload.argv]
    inv = invoke(cmd, workload, reference, root, deadline)
    print(describe("traced invocation", inv))
    trace = parse_trace(inv.proc.stderr)
    return plain, inv, trace


def parse_trace(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith(TRACE_MARKER + " "):
            return json.loads(line[len(TRACE_MARKER) + 1:])
    raise BenchError("the traced invocation wrote no trace:\n" + stderr[-2000:])


def layer_values(records: dict) -> dict:
    return {metric: records[record][field]
            for metric, (record, field) in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only; the inputs are fixed")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    load1 = os.getloadavg()[0]
    steal0 = steal_ticks()
    root = Path.cwd().resolve()
    workload = WORKLOADS[args.workload]
    try:
        if not (root / "src" / "qident" / "cli.py").is_file():
            raise BenchError(f"no qident source tree at {root / 'src'}; run "
                             "from the root of a qident checkout")
        reference = load_reference(workload)
        speed = None if args.trace else HostSpeed()
        setup_times, setup_factors, info = probe_setup(
            root, deadline, 0 if args.trace else SETUP_SAMPLES, speed)
        prov = provenance(root, workload, args, info, load1)
        if args.trace:
            plain, inv, trace = traced(root, workload, reference, deadline)
            runs = [plain, inv]
            overhead = inv.proc.wall_s - plain.proc.wall_s
            values = layer_values(trace["records"])
            values.update({"trace.wall_s": inv.proc.wall_s,
                           "trace.untraced_wall_s": plain.proc.wall_s,
                           "trace.overhead_s": overhead})
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in values.items()}
            prov["steal_s"] = steal_seconds(steal0)
            out = root / OUT_DIR
            out.mkdir(exist_ok=True)
            path = out / f"trace-{workload.name}-seed{args.seed}.json"
            path.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                        **trace}, indent=1))
            print(f"tracing overhead {overhead:.3f} s; trace written to {path}")
        else:
            print(f"setup: {len(setup_times)} raw imports, "
                  + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
            speed.measure(CAL_MIN_S)
            runs, factors = end_to_end(root, workload, reference,
                                       args.seconds, deadline, speed)
            prov["steal_s"] = steal_seconds(steal0)
            procs = [r.proc for r in runs]
            ops = sum(r.attempted for r in runs)
            prov["host_factors"] = {"setup": setup_factors,
                                    "invocations": factors}
            prov["raw"] = {
                "wall_s": statistics.median(p.wall_s for p in procs),
                "setup_s": statistics.median(setup_times),
                "cpu_s": statistics.median(p.cpu_s for p in procs),
            }
            values = {
                "wall_s": statistics.median(
                    p.wall_s / f for p, f in zip(procs, factors)),
                "setup_s": statistics.median(
                    t / f for t, f in zip(setup_times, setup_factors)),
                "cpu_s": statistics.median(
                    p.cpu_s / f for p, f in zip(procs, factors)),
                "peak_rss_mb": statistics.median(p.peak_rss_mb for p in procs),
                "pass_ratio": (ops - sum(r.failed for r in runs)) / ops,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(prov))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
