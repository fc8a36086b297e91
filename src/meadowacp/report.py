"""Structured pass/fail reports for axiom verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional


def _to_dict(record) -> dict:
    """The fields of a report record, without the ones that are None."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record))
    return {name: value for name, value in values if value is not None}


@dataclass
class AxiomResult:
    id: str
    name: str
    lhs: str
    rhs: str
    status: str  # "pass" | "fail"
    counterexample: Optional[Dict[str, str]] = None
    checked: int = 0

    to_dict = _to_dict


@dataclass
class AxiomReport:
    suite: str
    meadow: str
    mode: str
    axioms: List[AxiomResult] = field(default_factory=list)
    separation: Optional[str] = None
    cancellation: Optional[str] = None
    general_inverse: Optional[str] = None

    def failures(self) -> List[AxiomResult]:
        return [r for r in self.axioms if r.status != "pass"]

    def passed(self, strict_separation: bool = False) -> bool:
        if self.failures():
            return False
        if strict_separation and self.separation == "fail":
            return False
        return True

    def to_dict(self) -> dict:
        return {**_to_dict(self), "axioms": [r.to_dict() for r in self.axioms]}
