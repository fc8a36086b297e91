"""Structured pass/fail reports for axiom verification runs."""

from __future__ import annotations

from collections import namedtuple


def _to_dict(record) -> dict:
    """The fields of a report record, without the ones that are None."""
    return {name: value for name, value in record._asdict().items() if value is not None}


class AxiomResult(namedtuple("AxiomResult", "id name lhs rhs status counterexample checked",
                             defaults=(None, 0))):
    """One axiom's verdict: ``status`` is "pass" or "fail"; a failure names
    its ``counterexample``, a dict of strings."""

    __slots__ = ()
    to_dict = _to_dict


class AxiomReport(namedtuple("AxiomReport", "suite meadow mode axioms separation cancellation "
                             "general_inverse", defaults=((), None, None, None))):
    """A suite's AxiomResults; the meadow suite also reports its three
    properties, "pass" or "fail"."""

    __slots__ = ()

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.axioms if r.status != "pass"]

    def passed(self, strict_separation: bool = False) -> bool:
        if self.failures():
            return False
        if strict_separation and self.separation == "fail":
            return False
        return True

    def to_dict(self) -> dict:
        return {**_to_dict(self), "axioms": [r.to_dict() for r in self.axioms]}
