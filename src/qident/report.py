"""Machine-readable pass/fail reporting shared by all verification suites.

Every failed check carries the first-failure locus (an exponent or an n)
plus the exact expected and actual values as strings; rationals serialise
as "p/q", never as decimals.
"""

from __future__ import annotations

from typing import NamedTuple

# The named verification suites, in the order ``--suite all`` runs them:
# the CLI's choices, and the keys of ``verify._SUITES``.
SUITE_NAMES = ("dkm", "corollary", "theorem17", "propositions", "theorem61",
               "bijections", "background")


class Check(NamedTuple):
    """One named check and its outcome.

    A named tuple, as ``quadforms.QuadForm`` is: immutable, hashable and
    compared by value, without loading ``dataclasses`` on the per-n layer.
    """

    name: str
    status: str                  # "pass" | "fail"
    locus: int | None = None
    expected: str = ""
    actual: str = ""

    @classmethod
    def ok(cls, name: str) -> "Check":
        return cls(name, "pass")

    @classmethod
    def fail(cls, name: str, locus, expected, actual) -> "Check":
        return cls(name, "fail", None if locus is None else int(locus),
                   str(expected), str(actual))

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "locus": self.locus,
                "expected": self.expected, "actual": self.actual}

    @classmethod
    def from_dict(cls, d: dict) -> "Check":
        return cls(d["name"], d["status"], d["locus"], d["expected"], d["actual"])


class VerificationReport:
    """One suite's checks under its parameters; compared by value, and
    mutable, so unhashable."""

    __slots__ = ("suite", "parameters", "checks")
    __hash__ = None

    def __init__(self, suite: str, parameters: dict,
                 checks: list | None = None):
        self.suite = suite
        self.parameters = parameters
        self.checks = [] if checks is None else checks

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.suite, self.parameters, self.checks)
                == (other.suite, other.parameters, other.checks))

    def __repr__(self) -> str:
        return (f"VerificationReport(suite={self.suite!r}, "
                f"parameters={self.parameters!r}, checks={self.checks!r})")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"suite": self.suite,
                "parameters": dict(self.parameters),
                "checks": [c.to_dict() for c in self.checks]}

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(d["suite"], dict(d["parameters"]),
                   [Check.from_dict(c) for c in d["checks"]])


def series_check(name: str, lhs, rhs, order: int) -> Check:
    """Compare two QSeries coefficient-exactly below ``order``."""
    from .series import series_eq

    bad = series_eq(lhs, rhs, order)
    if bad is None:
        return Check.ok(name)
    return Check.fail(name, bad, rhs.coeff(bad), lhs.coeff(bad))


def sweep_check(name: str, pairs) -> Check:
    """First failure over an iterable of ``(locus, expected, actual)``."""
    for locus, expected, actual in pairs:
        if expected != actual:
            return Check.fail(name, locus, expected, actual)
    return Check.ok(name)


def table_check(name: str, ns, fails, per_n) -> Check:
    """``sweep_check(name, ((n, *per_n(n)) for n in ns))`` from a batch
    comparison: ``fails`` is a numpy bool array beside ``ns``, true where
    the batch comparison fails or cannot be made, and only those n, in
    order, run ``per_n(n)``, the per-n ``(expected, actual)``.  Where
    ``fails`` is false only at n whose per-n comparison passes, the check
    is the per-n sweep's, failure values included."""
    return sweep_check(name, ((int(ns[i]), *per_n(int(ns[i])))
                              for i in fails.nonzero()[0].tolist()))
