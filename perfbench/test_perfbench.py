"""Self-tests of the benchmark: gates, tracer coverage, repeatable counts.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys

import pytest

import run

ROOT = run.HERE.parent
TINY = [("verify", "--suite", "all", "--order", "20", "--max", "40",
         "--format", "json"),
        ("table", "--max", "20", "--format", "csv")]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    layer = [*run.LAYER_METRICS, *run.TRACE_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in layer}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# --------------------------------------------------------------------------
# correctness gates
# --------------------------------------------------------------------------


def _verify_stdout(manifest, **extra_fields):
    reports = {}
    for suite, name in manifest:
        reports.setdefault(suite, []).append(
            {"name": name, "status": "pass", "locus": None, "expected": "",
             "actual": "", **extra_fields})
    return json.dumps([{"suite": s, "parameters": {}, "checks": c,
                        **extra_fields} for s, c in reports.items()])


@pytest.fixture(scope="module")
def manifest():
    return run.load_reference(run.WORKLOADS["verify-stress"])


def test_manifests_have_the_recorded_sizes(manifest):
    assert len(manifest) == 110
    assert len(run.load_reference(run.WORKLOADS["series-deep"])) == 3
    for name in ("verify-stress", "series-deep"):
        workload = run.WORKLOADS[name]
        recorded = json.loads((run.REFERENCE / workload.reference).read_text())
        assert recorded["argv"] == ["qident", *workload.argv]


def test_verify_gate_passes_a_clean_report_with_unknown_fields(manifest):
    stdout = _verify_stdout(manifest, elapsed_s=0.25, meta={"lane": "numpy"})
    assert run.check_verify_output(0, stdout, manifest) == (110, 0, None)


def test_verify_gate_reads_a_single_suite_object():
    dkm = run.load_reference(run.WORKLOADS["series-deep"])
    stdout = json.dumps(json.loads(_verify_stdout(dkm))[0])
    assert run.check_verify_output(0, stdout, dkm) == (3, 0, None)


def _corrupt(payload, how):
    checks = payload[-1]["checks"]
    if how == "status":
        checks[0]["status"] = "fail"
    elif how == "missing":
        del checks[0]
    elif how == "renamed":
        checks[0]["name"] += "_x"
    elif how == "extra":
        checks.append(dict(checks[0], name="unexpected_check"))
    elif how == "suite":
        payload[-1]["suite"] = "other"
    return json.dumps(payload)


@pytest.mark.parametrize("how, failed", [
    ("status", 1), ("missing", 1), ("renamed", 2), ("extra", 1),
    ("suite", 69 * 2)])
def test_verify_gate_counts_corrupted_checks(manifest, how, failed):
    stdout = _corrupt(json.loads(_verify_stdout(manifest)), how)
    attempted, got_failed, problem = run.check_verify_output(0, stdout,
                                                             manifest)
    assert got_failed == failed and problem
    assert attempted >= 110


@pytest.mark.parametrize("code, stdout", [
    (1, None), (0, "{\"suite\": \"dkm\", "), (0, ""), (0, "[{\"suite\": 1}]")])
def test_verify_gate_fails_the_whole_run(manifest, code, stdout):
    stdout = _verify_stdout(manifest) if stdout is None else stdout
    assert run.check_verify_output(code, stdout, manifest)[:2] == (110, 110)


@pytest.fixture(scope="module")
def table():
    return run.load_reference(run.WORKLOADS["table-sweep"])


def test_table_gate_passes_the_reference(table):
    assert run.check_table_output(0, table, table) == (2001, 0, None)


def _edit_row(table, index, text):
    lines = table.splitlines()
    lines[index] = text
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("edit, attempted, failed", [
    (lambda t: _edit_row(t, 4, "3,8,8,8,1/3,4/3,3"), 2001, 1),
    (lambda t: _edit_row(t, 4, "3,8,8,8,0.3333,4/3,2"), 2001, 1),
    (lambda t: t.replace("\n1000,", "\n1000,1"), 2001, 1),
    (lambda t: "\n".join(t.splitlines()[:-5]) + "\n", 2001, 5),
    (lambda t: t + "2001,0,0,0,0,0,1\n", 2002, 1),
    (lambda t: _edit_row(t, 0, "n,a,b"), 2001, 2001),
    (lambda t: "", 2001, 2001),
])
def test_table_gate_counts_corrupted_rows(table, edit, attempted, failed):
    got = run.check_table_output(0, edit(table), table)
    assert got[:2] == (attempted, failed) and got[2]


def test_table_gate_fails_the_whole_run_on_a_nonzero_exit(table):
    assert run.check_table_output(2, table, table)[:2] == (2001, 2001)


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------


def _tiny_trace(argv):
    p = run.spawn([sys.executable, str(run.HERE / "tracer.py"), *argv],
                  ROOT, 120)
    assert p.returncode == 0, p.stderr
    return run.parse_trace(p.stderr)["records"]


@pytest.fixture(scope="module")
def tiny_traces():
    """Two traced repetitions of each tiny command."""
    return [[_tiny_trace(argv) for argv in TINY] for _ in range(2)]


def test_every_layer_metric_sees_calls(tiny_traces):
    # A function that moves or gains an unpatched binding shows up here as
    # a record with zero calls, not as a silently empty layer.
    records = {record for record, _ in run.LAYER_METRICS.values()}
    first = tiny_traces[0]
    zero = sorted(r for r in records if not sum(t[r]["calls"] for t in first))
    assert not zero


def test_work_counts_repeat_exactly(tiny_traces):
    def counts(traces):
        return [{name: (r["calls"], r["work"]) for name, r in t.items()}
                for t in traces]

    assert counts(tiny_traces[0]) == counts(tiny_traces[1])


def test_pochhammer_updates_match_the_loop_lengths():
    from tracer import pochhammer_updates

    def by_loop(offset, modulus, order):
        e = offset or modulus
        total = 0
        while e < order:
            total += order - e
            e += modulus
        return total

    for offset, modulus, order in [(0, 1, 10), (1, 1, 10), (3, 4, 30),
                                   (2, 2, 3001), (5, 7, 5), (0, 3, 2)]:
        assert pochhammer_updates(-1, offset, modulus, order) == \
            by_loop(offset, modulus, order)
    assert pochhammer_updates(1, 0, 2, 50) == 0


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------


def test_host_factor_pools_the_windows_around():
    speed = run.HostSpeed()
    ms = run.CAL_NOMINAL_S
    speed.windows = [(9 * ms, 1), (2 * ms, 1), (6 * ms, 3)]
    assert speed.factor() == pytest.approx(2.0)
    speed.measure(0.02)
    assert len(speed.windows) == 4 and 0 < speed.factor() < 100


def test_refuses_to_run_without_a_source_tree():
    p = run.spawn([sys.executable, str(run.HERE / "run.py"), "--workload",
                   "table-sweep", "--seconds", "1"], run.HERE, 60)
    assert p.returncode != 0
    assert "correct" not in p.stdout
