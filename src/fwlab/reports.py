"""Lightweight pass/fail report type shared by the executable checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of a numerical check.

    ``passed`` is the verdict, ``stats`` carries the numbers the verdict was
    based on, and ``failures`` lists offending cases (empty on success).
    """

    name: str
    passed: bool
    stats: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

