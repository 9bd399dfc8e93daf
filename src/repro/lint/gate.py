"""Pre-solve lint gate for engines and flows.

A gate mode decides what happens to a model's lint report before any
engine touches it:

* ``"error"`` — error-severity findings raise
  :class:`~repro.errors.LintError`; warnings become
  :class:`LintWarning` warnings.
* ``"warn"`` — every error/warning finding becomes a :class:`LintWarning`;
  nothing raises.
* ``"off"`` — lint does not run at all (zero overhead; the default).

:class:`~repro.bmc.engine.BmcSession`, :class:`~repro.bmc.engine.BmcEngine`
and the flows take the mode as a ``lint=`` argument.
"""

from __future__ import annotations

import warnings

from repro.errors import LintError
from repro.lint.findings import LintReport
from repro.lint.model import lint_transition_system
from repro.ts.system import TransitionSystem

GATE_MODES = ("error", "warn", "off")


class LintWarning(UserWarning):
    """Warning-severity lint findings surfaced by a gate."""


def gate_transition_system(
    ts: TransitionSystem,
    mode: str = "off",
    where: str = "",
) -> LintReport:
    """Lint ``ts`` and enforce ``mode``; returns the report when it passes.

    ``where`` names the call site in raised/warned messages (e.g.
    ``"BmcSession"``).  An unknown ``mode`` raises
    :class:`~repro.errors.LintError`.
    """
    if mode not in GATE_MODES:
        raise LintError(f"lint gate mode must be one of {GATE_MODES}, got {mode!r}")
    if mode == "off":
        return LintReport()
    report = lint_transition_system(ts)
    prefix = f"{where}: " if where else ""
    if mode == "error":
        errors = report.errors
        if errors:
            rendered = "\n".join(f.render() for f in errors)
            raise LintError(
                f"{prefix}model {ts.name!r} failed lint with "
                f"{len(errors)} error(s):\n{rendered}"
            )
        for finding in report.warnings:
            warnings.warn(f"{prefix}{finding.render()}", LintWarning, stacklevel=3)
    else:  # warn
        for finding in report.at_least("warning"):
            warnings.warn(f"{prefix}{finding.render()}", LintWarning, stacklevel=3)
    return report
