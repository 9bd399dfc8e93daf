"""Greedy recipe shrinking: reduce a failing instance to its simplest form.

When the oracle flags an instance (a detection, or worse a disagreement),
the campaign wants to commit a *minimal* reproducer, not whatever the
random sampler happened to draw.  The shrinker walks the family's own
``shrink_candidates`` lattice — strictly-simpler parameter dicts, most
aggressive first — and keeps a step only when the simplified instance
still reproduces the original verdict signature (same status, still
concretising, counterexample no longer than before).  Shrinking runs the
BMC leg only: the signature it preserves is the counterexample, and
re-running PDR per step would dominate the cost for no extra information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.proc.bugs import BugRecipe
from repro.zoo.families import get_family, instantiate
from repro.zoo.oracle import OracleReport, OracleSettings, run_instance

#: Most simplification steps one shrink run accepts.
_MAX_STEPS = 12


@dataclass
class ShrinkResult:
    """Outcome of one shrink run (picklable)."""

    original: dict
    shrunk: dict
    steps_taken: int
    candidates_tried: int
    original_cex_length: Optional[int]
    shrunk_cex_length: Optional[int]
    status: str

    @property
    def reduced(self) -> bool:
        return self.shrunk != self.original


def _bmc_only(settings: Optional[OracleSettings]) -> OracleSettings:
    base = settings or OracleSettings()
    return OracleSettings(
        engines=("bmc",), bmc_conflict_budget=base.bmc_conflict_budget
    )


def _signature(report: OracleReport) -> tuple:
    return (report.status, report.concretized)


def shrink_recipe(
    recipe: BugRecipe,
    settings: Optional[OracleSettings] = None,
) -> ShrinkResult:
    """Greedily simplify ``recipe`` while its oracle verdict reproduces.

    The returned recipe has the same family and seed; only its parameters
    move down the family's shrink lattice.  If the original instance does
    not produce a BMC counterexample at all there is nothing to preserve
    and the recipe is returned unchanged.
    """
    settings = _bmc_only(settings)
    family = get_family(recipe.family)

    current = recipe
    report = run_instance(instantiate(current), settings)
    target = _signature(report)
    best_len = report.cex_length
    original_len = report.cex_length

    steps = 0
    tried = 0
    if report.cex_length is not None:
        while steps < _MAX_STEPS:
            progressed = False
            for params in family.shrink_candidates(dict(current.params)):
                candidate = BugRecipe(
                    family=current.family,
                    params=tuple(sorted(params.items())),
                    seed=current.seed,
                )
                if candidate == current:
                    continue
                tried += 1
                cand_report = run_instance(instantiate(candidate), settings)
                if _signature(cand_report) != target:
                    continue
                if (
                    cand_report.cex_length is not None
                    and best_len is not None
                    and cand_report.cex_length > best_len
                ):
                    continue
                current = candidate
                best_len = cand_report.cex_length
                steps += 1
                progressed = True
                break
            if not progressed:
                break

    return ShrinkResult(
        original=recipe.as_dict(),
        shrunk=current.as_dict(),
        steps_taken=steps,
        candidates_tried=tried,
        original_cex_length=original_len,
        shrunk_cex_length=best_len,
        status=report.status,
    )
