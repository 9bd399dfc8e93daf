"""Campaign driver: sample, evaluate and score a population of zoo bugs.

A campaign draws ``count`` seeded instances round-robin across the enabled
mutation families, runs every one through the oracle (BMC plus executor
replay of its counterexample), runs one bug-free control per *distinct
verification configuration* (controls are deduplicated on
:meth:`ZooInstance.control_key` — many instances of one family share a
processor config and would re-prove the identical golden model), and
aggregates a verdict-gated report:

* every seeded, non-inconclusive instance must be ``detected`` with a
  concretised counterexample;
* every control must be ``clean`` (or inconclusive under budget);
* at most a tenth of the seeded instances may be ``inconclusive``;
* ``disagreement`` anywhere fails the campaign.

Counters are structural — detection rate, counterexample lengths, conflict
counts — never wall-clock, so the report is stable across machines.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ZooError
from repro.par import TaskPool
from repro.proc.bugs import BugRecipe
from repro.solve.backend import default_sat_kernel
from repro.solve.pipeline import default_opt_level
from repro.zoo.families import FAMILIES, ZooInstance, instantiate, sample_recipe
from repro.zoo.oracle import (
    CONTROL_BOUND,
    OracleReport,
    OracleSettings,
    STATUS_CLEAN,
    STATUS_DETECTED,
    STATUS_DISAGREEMENT,
    STATUS_INCONCLUSIVE,
    run_control,
    run_instance,
)


@dataclass
class CampaignConfig:
    """What to run and how hard to try."""

    count: int = 20
    seed: int = 0
    families: tuple[str, ...] = ()  # empty ⇒ all registered families
    settings: OracleSettings = field(default_factory=OracleSettings)
    jobs: int = 1
    run_controls: bool = True

    def family_names(self) -> tuple[str, ...]:
        names = self.families or tuple(sorted(FAMILIES))
        for name in names:
            if name not in FAMILIES:
                known = ", ".join(sorted(FAMILIES))
                raise ZooError(f"unknown family {name!r}; known: {known}")
        return names


@dataclass
class CampaignReport:
    """Aggregated, verdict-gated campaign outcome (JSON-serialisable)."""

    config: dict
    seeded: list[OracleReport]
    controls: list[OracleReport]
    summary: dict

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "summary": self.summary,
            "seeded": [asdict(r) for r in self.seeded],
            "controls": [asdict(r) for r in self.controls],
        }


def generate_recipes(config: CampaignConfig) -> list[BugRecipe]:
    """Deterministic round-robin sample: family ``i % n``, seed derived
    from the campaign seed and the instance index."""
    if config.count < 1:
        raise ZooError("campaign count must be positive")
    names = config.family_names()
    return [
        sample_recipe(names[i % len(names)], seed=config.seed * 100_003 + i)
        for i in range(config.count)
    ]


def _dedup_controls(
    instances: list[ZooInstance],
) -> list[ZooInstance]:
    seen: set = set()
    unique: list[ZooInstance] = []
    for instance in instances:
        key = instance.control_key()
        if key not in seen:
            seen.add(key)
            unique.append(instance)
    return unique


def _run_seeded(task) -> OracleReport:
    recipe, settings = task
    return run_instance(instantiate(recipe), settings)


def _run_control(task) -> OracleReport:
    instance, settings = task
    return run_control(instance, settings)


def summarize(
    seeded: list[OracleReport], controls: list[OracleReport]
) -> dict:
    """Verdict gates + structural counters (no wall-clock anywhere)."""
    conclusive = [r for r in seeded if r.status != STATUS_INCONCLUSIVE]
    detected = [r for r in conclusive if r.status == STATUS_DETECTED]
    disagreements = [
        r
        for r in seeded + controls
        if r.status == STATUS_DISAGREEMENT
    ]
    false_alarms = [
        r for r in controls if r.status not in (STATUS_CLEAN, STATUS_INCONCLUSIVE)
    ]
    lengths = sorted(r.cex_length for r in detected if r.cex_length is not None)
    per_family: dict[str, dict] = {}
    for r in seeded:
        row = per_family.setdefault(
            r.family, {"total": 0, "detected": 0, "inconclusive": 0}
        )
        row["total"] += 1
        row["detected"] += r.status == STATUS_DETECTED
        row["inconclusive"] += r.status == STATUS_INCONCLUSIVE
    all_concretized = all(r.concretized for r in detected)
    detection_rate = (len(detected) / len(conclusive)) if conclusive else None
    inconclusive = len(seeded) - len(conclusive)
    return {
        "instances": len(seeded),
        "controls": len(controls),
        "detected": len(detected),
        "inconclusive": inconclusive,
        "disagreements": len(disagreements),
        "false_alarms": len(false_alarms),
        "detection_rate": detection_rate,
        "all_detected_concretized": all_concretized,
        "cex_length_min": lengths[0] if lengths else None,
        "cex_length_max": lengths[-1] if lengths else None,
        "total_conflicts": sum(r.conflicts for r in seeded + controls),
        "per_family": per_family,
        "passed": (
            not disagreements
            and not false_alarms
            and all_concretized
            and (detection_rate is None or detection_rate == 1.0)
            and inconclusive <= len(seeded) // 10
        ),
        "failures": [
            {"family": r.family, "kind": r.kind, "failure": r.failure}
            for r in disagreements + false_alarms
        ],
    }


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the whole campaign, fanning instances across ``config.jobs``
    forked workers (reports are plain dataclasses, so they pickle)."""
    recipes = generate_recipes(config)
    instances = [instantiate(r) for r in recipes]

    pool = TaskPool(jobs=config.jobs)
    seeded = pool.map(
        _run_seeded, [(r, config.settings) for r in recipes]
    )
    controls: list[OracleReport] = []
    if config.run_controls:
        unique = _dedup_controls(instances)
        controls = pool.map(
            _run_control, [(i, config.settings) for i in unique]
        )

    return CampaignReport(
        config={
            "count": config.count,
            "seed": config.seed,
            "families": list(config.family_names()),
            "jobs": config.jobs,
            "bmc_conflict_budget": config.settings.bmc_conflict_budget,
            "control_bound": CONTROL_BOUND,
            "sat_kernel": default_sat_kernel(),
            "opt_level": default_opt_level(),
        },
        seeded=seeded,
        controls=controls,
        summary=summarize(seeded, controls),
    )


# ---------------------------------------------------------------------------
# Recipe files (committed regression reproducers)
# ---------------------------------------------------------------------------


def save_recipes(recipes: list[BugRecipe], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([r.as_dict() for r in recipes], indent=2) + "\n"
    )


def load_recipes(path: str | Path) -> list[BugRecipe]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ZooError(f"cannot read recipe file {path}: {exc}") from exc
    if not isinstance(raw, list):
        raise ZooError(f"recipe file {path} must hold a JSON list")
    return [BugRecipe.from_dict(entry) for entry in raw]
