"""Generative bug zoo: seeded mutation families + an oracle (BMC plus
executor replay of every counterexample) + campaign driver and shrinker.

Every bug instance is reproducible from a ``(family, params, seed)``
:class:`~repro.proc.bugs.BugRecipe`; ``python -m repro.zoo`` is the CLI.
"""

from repro.zoo.campaign import (
    CampaignConfig,
    CampaignReport,
    generate_recipes,
    load_recipes,
    run_campaign,
    save_recipes,
    summarize,
)
from repro.zoo.families import (
    FAMILIES,
    FLOW_SEPE,
    FLOW_SQED,
    MutationFamily,
    ZooInstance,
    get_family,
    instantiate,
    sample_recipe,
)
from repro.zoo.oracle import (
    OracleReport,
    OracleSettings,
    concretize_trace,
    replay_check,
    run_control,
    run_instance,
)
from repro.zoo.shrink import ShrinkResult, shrink_recipe

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "FAMILIES",
    "FLOW_SEPE",
    "FLOW_SQED",
    "MutationFamily",
    "OracleReport",
    "OracleSettings",
    "ShrinkResult",
    "ZooInstance",
    "concretize_trace",
    "generate_recipes",
    "get_family",
    "instantiate",
    "load_recipes",
    "replay_check",
    "run_campaign",
    "run_control",
    "run_instance",
    "sample_recipe",
    "save_recipes",
    "shrink_recipe",
    "summarize",
]
