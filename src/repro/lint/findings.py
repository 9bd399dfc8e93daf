"""Structured lint findings and the report container they accumulate in."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import LintError

SEV_ERROR = "error"
SEV_WARNING = "warning"
SEV_INFO = "info"

_SEVERITIES = (SEV_ERROR, SEV_WARNING, SEV_INFO)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation: what fired, where, and how to fix it.

    ``rule`` is a stable dotted identifier (``model.width-mismatch``,
    ``encoding.tautology``); ``location`` names the offending object in the
    linted artifact (a state/property name, a clause index, a node id).
    """

    rule: str
    severity: str
    location: str
    message: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise LintError(f"unknown severity {self.severity!r}")

    def as_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = f"{self.severity}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


class LintReport:
    """An ordered collection of findings with severity filters."""

    def __init__(self, findings: Iterable[LintFinding] = ()):
        self.findings: list[LintFinding] = list(findings)

    def add(
        self,
        rule: str,
        severity: str,
        location: str,
        message: str,
        hint: str = "",
    ) -> LintFinding:
        finding = LintFinding(rule, severity, location, message, hint)
        self.findings.append(finding)
        return finding

    def extend(self, other: "LintReport | Iterable[LintFinding]") -> None:
        if isinstance(other, LintReport):
            self.findings.extend(other.findings)
        else:
            self.findings.extend(other)

    @property
    def errors(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def warnings(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == SEV_WARNING]

    @property
    def infos(self) -> list[LintFinding]:
        return [f for f in self.findings if f.severity == SEV_INFO]

    def by_rule(self, rule: str) -> list[LintFinding]:
        return [f for f in self.findings if f.rule == rule]

    def rules(self) -> set[str]:
        return {f.rule for f in self.findings}

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "counts": {
                SEV_ERROR: len(self.errors),
                SEV_WARNING: len(self.warnings),
                SEV_INFO: len(self.infos),
            },
        }

    def render(self) -> str:
        return "\n".join(f.render() for f in self.findings)

    def __iter__(self) -> Iterator[LintFinding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def __repr__(self) -> str:
        return (
            f"LintReport(errors={len(self.errors)}, "
            f"warnings={len(self.warnings)}, infos={len(self.infos)})"
        )
