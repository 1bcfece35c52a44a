"""Import layers: ``qident table``, ``bijection``, ``--help`` and the usage
errors load only the standard library and the per-n layer; ``verify`` loads
the batch stack when it runs, with one OpenBLAS thread.  Each case runs in
a fresh interpreter, so what the other tests imported does not count."""

import json
import os
import subprocess
import sys

import pytest

import qident
from qident.oracles import TRIPLE_N_LIMIT

SRC = os.path.dirname(os.path.dirname(qident.__file__))

# the batch stack: none of these may load on the per-n layer's paths
BATCH = ("numpy", "qident._kernels", "qident.series", "qident.verify")

# Runs ``body`` (which may set ``code``), then prints the exit code and
# which of BATCH are loaded as the last line of stdout.
PROBE = """\
import json, sys
code = None
{body}
sys.stdout.flush()
print(json.dumps({{"code": code,
                  "loaded": [m for m in {batch!r} if m in sys.modules]}}))
"""


def _run(body: str, blas_threads: str | None = None) -> dict:
    """Run ``body`` in a fresh interpreter whose ``OPENBLAS_NUM_THREADS``
    is ``blas_threads``, unset when None."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body, batch=BATCH)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv) -> str:
    return f"from qident import cli\ncode = cli.main({list(argv)!r})"


@pytest.mark.parametrize("body,code", [
    ("import qident.cli", None),
    (_cli("table", "--max", "30"), 0),
    (_cli("table", "--max", "30", "--format", "csv"), 0),
    (_cli("table", "--max", "30", "--format", "json"), 0),
    (_cli("--help"), 0),
    (_cli("table", "--max", "-1"), 2),
    (_cli("verify", "--suite", "bogus"), 2),
    (_cli("bijection", "21"), 0),
    (_cli("bijection", "21", "--format", "json"), 0),
    (_cli("bijection", str(TRIPLE_N_LIMIT + 1)), 2),
], ids=["import", "table-text", "table-csv", "table-json", "help",
        "table-usage-error", "verify-bad-suite", "bijection-text",
        "bijection-json", "bijection-usage-error"])
def test_per_n_paths_load_no_batch_module(body, code):
    result = _run(body)
    assert result == {"code": code, "loaded": []}


def test_cli_import_loads_no_dataclasses():
    # ``report`` needs no dataclasses, which would load inspect, ast and
    # dis into every ``table`` run
    result = _run("import qident.cli\ncode = 'dataclasses' in sys.modules")
    assert result == {"code": False, "loaded": []}


def test_bijection_loads_no_dataclasses():
    # ``bijections.Triple`` is a named tuple, as ``QuadForm`` and ``Check``
    # are
    result = _run(_cli("bijection", "21")
                  + "\ncode = (code, 'dataclasses' in sys.modules)")
    assert result == {"code": [0, False], "loaded": []}


def test_verify_loads_the_batch_stack_and_passes():
    result = _run(_cli("verify", "--suite", "dkm", "--order", "20"))
    assert result == {"code": 0, "loaded": list(BATCH)}


# Records in ``seen`` the OPENBLAS_NUM_THREADS that ``import numpy`` runs
# under, and keeps the environment from before in ``env``.
SPY = """\
import os
env = dict(os.environ)
seen = []

class NumpySpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, NumpySpy)
"""


_VERIFY = _cli("verify", "--suite", "dkm", "--order", "8")


# the probe's thread count, None where there is no /proc
THREADS = ("(len(os.listdir('/proc/self/task'))"
           " if os.path.isdir('/proc/self/task') else None)")


def test_verify_loads_numpy_with_one_blas_thread():
    # no path calls BLAS, so the CLI starts none of OpenBLAS's workers and
    # leaves the environment as it found it
    result = _run(SPY + _VERIFY
                  + f"\ncode = [code, seen, os.environ == env, {THREADS}]")
    code, seen, same_env, threads = result["code"]
    assert (code, seen, same_env) == (0, ["1"], True)
    if threads is None:
        pytest.skip("no /proc/self/task to count threads")
    assert threads == 1


@pytest.mark.parametrize("body,preset", [
    (_VERIFY, "3"),
    ("import numpy\n" + _VERIFY, None),
    ("import qident.verify", None),
    ("import qident.verify", "3"),
], ids=["verify-user-setting", "verify-numpy-loaded", "library-import",
        "library-import-user-setting"])
def test_user_blas_setting_and_library_imports_are_left_alone(body, preset):
    # the user's value wins; a library import, or a CLI run after numpy
    # loaded, sets nothing
    result = _run(SPY + body + "\ncode = [seen, os.environ == env]",
                  blas_threads=preset)
    assert result["code"] == [[preset], True]


# every name ``qident`` exported from each submodule before the per-n
# oracles moved to ``oracles``, by the submodule it was imported from
EXPORTED = {
    "series": ("GaussianRational", "QSeries", "IndexBeyondOrder",
               "NonUnitConstantTerm", "pochhammer_inf", "series_eq"),
    "theta": ("J", "Jbar", "Jm", "Monomial", "NegativeQPower", "ThetaSpec",
              "InternalCrossCheckFailure", "jtheta", "mono",
              "product_side_series", "rep_count_product_series", "theta_j",
              "theta_j_sum", "verify_theta_suite"),
    "appell": ("AppellSpec", "NonUnitThetaDenominator", "PoleAtMonomialOne",
               "appell_m", "verify_appell_suite", "verify_changing_z"),
    "quadforms": ("BadDiscriminantResidue", "NotPositiveDefinite",
                  "QuadForm", "class_number_h", "enumerate_reduced",
                  "enumerate_reduced_bruteforce", "hurwitz_H",
                  "hurwitz_table", "is_reduced", "verify_hurwitz_doubling"),
    "counting": ("WrongParity", "classical_checks", "d_mod4",
                 "is_three_square_excluded", "iter_solution_triples",
                 "parity_bijection_images", "r3_triangular", "rep_count",
                 "rep_squares", "sigma", "signed_formula_even",
                 "signed_formula_odd", "signed_rep_count", "sum_side_series",
                 "three_squares_parity_check", "triple_sum"),
    "bijections": ("ALL_EQUAL", "CaseMismatch", "NotASolution", "Triple",
                   "UnclassifiableForm", "classify_form", "classify_triple",
                   "map_triple", "solution_triples", "verify_case"),
    "report": ("Check", "VerificationReport"),
    "verify": ("Tables", "run_suites"),
}


def test_package_exports_resolve_to_their_submodule_objects():
    import importlib

    listed = dir(qident)
    for module, names in EXPORTED.items():
        sub = importlib.import_module(f"qident.{module}")
        for name in names:
            namespace = {}
            exec(f"from qident import {name}", namespace)
            assert namespace[name] is getattr(sub, name), (module, name)
            assert name in listed, name
    assert qident.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        qident.no_such_name


def test_readme_example_import_runs():
    result = _run("from qident import (J, Jbar, pochhammer_inf, "
                  "product_side_series, series_eq)\n"
                  "a = product_side_series(50)\n"
                  "assert [int(a.coeff(n).re) for n in range(8)] == "
                  "[1, -2, -4, 8, 6, -8, -8, 0]\n"
                  "lhs = J(1, 2, 100)\n"
                  "rhs = Jbar(4, 8, 100) - "
                  "Jbar(0, 8, 100).shift(1).truncate(100)\n"
                  "assert series_eq(lhs, rhs, 100) is None")
    assert result["code"] is None
