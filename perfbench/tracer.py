"""Run one ``qident`` command with each layer's public functions wrapped.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py verify --suite dkm --order 200

The command's own output goes to stdout unchanged.  When it returns, one
line ``TRACE_MARKER <json>`` goes to stderr with an aggregate record per
wrapped function (calls, inclusive and self time, work count) and the spans
of the coarse boundaries (command, suite, ``product_side_series``,
``classical_checks``, the theta and Appell suites).

The wrapping is done from outside: every binding of a target function in a
loaded ``qident`` module is replaced, including ``from``-imported copies,
class attributes and values of module-level dicts such as the suite table.
Hot functions only update counters; a span per call of ``rep_squares``
(millions of calls) would measure the tracer, not qident.  Self time is the
inclusive time minus the time spent in wrapped callees.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

TRACE_MARKER = "PERFBENCH_TRACE"

_perf = time.perf_counter


# --------------------------------------------------------------------------
# work counts, computed from arguments or results so they repeat exactly
# --------------------------------------------------------------------------


def pochhammer_updates(zeta, offset, modulus, order):
    """Coefficient updates of ``pochhammer_inf``: sum of (order - e) over
    the factor exponents e below order, the length of each inner loop."""
    e0 = offset
    if e0 == 0:
        if zeta == 1:
            return 0  # the first factor vanishes; the zero series is returned
        e0 = modulus
    if e0 >= order:
        return 0
    k = (order - e0 + modulus - 1) // modulus  # factors with e < order
    return k * order - k * e0 - modulus * k * (k - 1) // 2


def series_order(result):
    return result.order


def array_bytes(result):
    if isinstance(result, tuple):
        return sum(a.nbytes for a in result)
    return result.nbytes


# --------------------------------------------------------------------------
# the tracer
# --------------------------------------------------------------------------


@dataclass
class Record:
    calls: int = 0
    incl: float = 0.0
    self_time: float = 0.0
    work: int = 0


class Tracer:
    """Aggregate counters per record plus in-memory spans."""

    def __init__(self):
        self.t0 = _perf()
        self.records: dict[str, Record] = {}
        self.stack: list[list[float]] = []   # child time of each open call
        self.spans: list[list] = []          # [name, start, end, parent]
        self.open_spans: list[int] = []

    def wrap(self, name, fn, sites, *, arg_work=None, result_work=None,
             outermost=False, span=False):
        """A counting wrapper for ``fn``, to be bound at ``sites``.  With
        ``outermost`` the wrapper puts ``fn`` back at its sites for the
        length of the call, so a recursion runs untraced and only outermost
        calls count."""
        rec = self.records.setdefault(name, Record())
        stack, spans, open_spans, t0 = (self.stack, self.spans,
                                        self.open_spans, self.t0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if outermost:
                _bind(sites, fn)
            if span:
                spans.append([name, 0.0, 0.0,
                              open_spans[-1] if open_spans else None])
                open_spans.append(len(spans) - 1)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                dt = end - start
                if outermost:
                    _bind(sites, wrapper)
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec.calls += 1
                rec.incl += dt
                rec.self_time += dt - frame[0]
                if span:
                    entry = spans[open_spans.pop()]
                    entry[1], entry[2] = start - t0, end - t0
            if arg_work is not None:
                rec.work += arg_work(*args, **kwargs)
            if result_work is not None and result is not NotImplemented:
                rec.work += result_work(result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "records": {name: {"calls": r.calls, "s": r.incl,
                               "self_s": r.self_time, "work": r.work}
                        for name, r in self.records.items()},
            "spans": self.spans,
        }


# --------------------------------------------------------------------------
# what gets wrapped
# --------------------------------------------------------------------------

KERNELS = ("signed_rep_tables", "square_rep_tables", "triple_tables",
           "pair_tables", "hlm_tables", "triangular3_table",
           "triangular_sum_side", "sigma_table", "d_mod4_tables",
           "sigma_no_mult4_table")

# (record name, module, attribute, wrap options); an attribute "A.b" is
# attribute or key b of class or dict A.  Two entries may share one record.
TARGETS = [
    ("series.pochhammer_inf", "series", "pochhammer_inf",
     {"arg_work": pochhammer_updates}),
    ("series.mul", "series", "QSeries.__mul__", {"result_work": series_order}),
    ("series.invert", "series", "QSeries.invert", {}),
    ("series.series_eq", "series", "series_eq", {}),
    ("theta.theta_j", "theta", "theta_j_shifted", {}),
    ("theta.theta_j_sum", "theta", "theta_j_sum", {}),
    ("theta.product_side_series", "theta", "product_side_series",
     {"span": True}),
    ("theta.product_side_pochhammer", "theta", "product_side_pochhammer", {}),
    ("theta.product_side_theta", "theta", "product_side_theta", {}),
    ("theta.verify_theta_suite", "theta", "verify_theta_suite",
     {"span": True}),
    ("appell.appell_m", "appell", "appell_m", {}),
    ("appell.verify_appell_suite", "appell", "verify_appell_suite",
     {"span": True}),
    ("quadforms.hurwitz_H", "quadforms", "hurwitz_H", {}),
    ("quadforms.enumerate_reduced", "quadforms", "enumerate_reduced",
     {"result_work": len}),
    ("counting.three_squares_parity_check", "counting",
     "three_squares_parity_check", {}),
    ("counting.rep_squares", "counting", "rep_squares", {"outermost": True}),
    ("counting.rep_count", "counting", "rep_count", {}),
    ("counting.signed_rep_count", "counting", "signed_rep_count", {}),
    ("counting.signed_formula", "counting", "signed_formula_even", {}),
    ("counting.signed_formula", "counting", "signed_formula_odd", {}),
    ("counting.sigma", "counting", "sigma", {}),
    ("counting.sum_side_series", "counting", "sum_side_series", {}),
    ("counting.classical_checks", "counting", "classical_checks",
     {"span": True}),
    *((f"_kernels.{k}", "_kernels", k, {"result_work": array_bytes})
      for k in KERNELS),
    ("bijections.verify_case", "bijections", "verify_case", {}),
    ("bijections.solution_triples", "bijections", "solution_triples",
     {"result_work": len}),
    ("report.sweep_check", "report", "sweep_check", {}),
    ("report.series_check", "report", "series_check", {}),
    ("cli.command", "cli", "cmd_verify", {"span": True}),
    ("cli.command", "cli", "cmd_table", {"span": True}),
]


def _resolve(module, attr):
    obj = module
    for part in attr.split("."):
        # AttributeError or KeyError: the target moved
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    return obj


def _bind(sites, value) -> None:
    for holder, key in sites:
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)


def binding_sites(orig) -> list:
    """Every (holder, key) in loaded qident modules that holds ``orig``:
    module attributes, attributes of classes, and values of module-level
    dicts."""
    sites = []
    for modname, module in list(sys.modules.items()):
        if modname != "qident" and not modname.startswith("qident."):
            continue
        for attr, value in vars(module).items():
            if value is orig:
                sites.append((module, attr))
            elif isinstance(value, dict):
                sites += [(value, k) for k, v in value.items() if v is orig]
            elif isinstance(value, type) and value.__module__ == modname:
                sites += [(value, k) for k, v in vars(value).items()
                          if v is orig]
    return sites


def install(tracer: Tracer) -> None:
    """Wrap every target, the seven suites of ``verify._SUITES`` included."""
    import qident.cli  # noqa: F401  loads every module that gets patched
    from qident import verify

    targets = list(TARGETS)
    targets += [(f"verify.suite.{name}", "verify", f"_SUITES.{name}",
                 {"span": True}) for name in verify._SUITES]
    for name, modname, attr, options in targets:
        orig = _resolve(importlib.import_module(f"qident.{modname}"), attr)
        sites = binding_sites(orig)
        if not sites:
            raise RuntimeError(f"no binding of {modname}.{attr} to patch")
        _bind(sites, tracer.wrap(name, orig, sites, **options))


def main(argv) -> int:
    tracer = Tracer()
    install(tracer)
    from qident import cli

    code = cli.main(argv)
    sys.stdout.flush()
    sys.stderr.write(f"\n{TRACE_MARKER} {json.dumps(tracer.dump())}\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
