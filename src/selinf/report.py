"""Shared verdict vocabulary and the generic test report container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

CONSISTENT = "consistent"
RULED_OUT = "ruled-out"
INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class TestReport:
    """Outcome of one necessary-condition (or criterion) test.

    ``verdict`` is one of CONSISTENT, RULED_OUT, INAPPLICABLE.  A RULED_OUT
    report carries the witness that refutes selective influences (a violated
    inequality, a failing chain, ...); a CONSISTENT criterion test may carry
    a positive witness instead (a feasible coupling pmf).
    """

    test: str
    verdict: str
    summary: str = ""
    witness: Any = None
    details: Mapping[str, Any] = field(default_factory=dict)
