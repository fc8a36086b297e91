"""Structured pass/fail reports for axiom verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class AxiomResult:
    id: str
    name: str
    lhs: str
    rhs: str
    status: str  # "pass" | "fail"
    counterexample: Optional[Dict[str, str]] = None
    checked: int = 0

    def to_dict(self) -> dict:
        d = {
            "id": self.id,
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "status": self.status,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


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
        d = {
            "suite": self.suite,
            "meadow": self.meadow,
            "mode": self.mode,
            "axioms": [r.to_dict() for r in self.axioms],
        }
        for key in ("separation", "cancellation", "general_inverse"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        return d
