"""Command-line front end for the bug zoo: ``python -m repro.zoo``.

Subcommands::

    list                        show registered mutation families
    generate  --count N         sample recipes to a JSON file (or stdout)
    run       --count N         sample + run a campaign, print the report
    replay    --recipes FILE    re-run committed recipes through the oracle
    shrink    --family F --seed S   minimise one instance's recipe

Everything is seeded and deterministic; exit status is the verdict gate
(0 = all oracle checks passed, 1 = disagreement / false alarm / error).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro.errors import ReproError
from repro.proc.bugs import BugRecipe
from repro.zoo.campaign import (
    CampaignConfig,
    generate_recipes,
    load_recipes,
    run_campaign,
    save_recipes,
    summarize,
)
from repro.zoo.families import FAMILIES, get_family, instantiate, sample_recipe
from repro.zoo.oracle import OracleSettings, run_instance
from repro.zoo.shrink import shrink_recipe


def _settings(args: argparse.Namespace) -> OracleSettings:
    return OracleSettings(bmc_conflict_budget=args.bmc_budget)


def _add_budget_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bmc-budget",
        type=int,
        default=OracleSettings.bmc_conflict_budget,
        help="conflict budget of each BMC run, summed over its frames; "
        "exhausted ⇒ inconclusive",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.zoo", description=__doc__.split("\n\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered mutation families")

    gen = sub.add_parser("generate", help="sample recipes to JSON")
    gen.add_argument("--count", type=int, default=12)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--families", default="", help="comma-separated subset")
    gen.add_argument("--out", default="", help="output file (default stdout)")

    run = sub.add_parser("run", help="sample + run a campaign")
    run.add_argument("--count", type=int, default=12)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--families", default="")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--no-controls", action="store_true")
    run.add_argument("--out", default="", help="write full JSON report here")
    _add_budget_arg(run)

    replay = sub.add_parser("replay", help="re-run recipes from a JSON file")
    replay.add_argument("--recipes", required=True)
    _add_budget_arg(replay)

    shr = sub.add_parser("shrink", help="minimise one instance's recipe")
    shr.add_argument("--family", required=True)
    shr.add_argument("--seed", type=int, required=True)
    shr.add_argument("--out", default="", help="write shrunk recipe JSON here")
    _add_budget_arg(shr)
    return parser


def _cmd_list() -> int:
    for name in sorted(FAMILIES):
        family = get_family(name)
        print(f"{name:20s} [{family.flow_kind}] {family.description}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    families = tuple(f for f in args.families.split(",") if f)
    config = CampaignConfig(count=args.count, seed=args.seed, families=families)
    recipes = generate_recipes(config)
    if args.out:
        save_recipes(recipes, args.out)
        print(f"wrote {len(recipes)} recipes to {args.out}")
    else:
        json.dump([r.as_dict() for r in recipes], sys.stdout, indent=2)
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    families = tuple(f for f in args.families.split(",") if f)
    config = CampaignConfig(
        count=args.count,
        seed=args.seed,
        families=families,
        settings=_settings(args),
        jobs=args.jobs,
        run_controls=not args.no_controls,
    )
    report = run_campaign(config)
    print(json.dumps(report.summary, indent=2))
    if args.out:
        Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"full report: {args.out}")
    return 0 if report.passed else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    recipes = load_recipes(args.recipes)
    settings = _settings(args)
    reports = [run_instance(instantiate(r), settings) for r in recipes]
    summary = summarize(reports, [])
    print(json.dumps(summary, indent=2))
    return 0 if summary["passed"] else 1


def _cmd_shrink(args: argparse.Namespace) -> int:
    recipe = sample_recipe(args.family, seed=args.seed)
    result = shrink_recipe(recipe, settings=_settings(args))
    print(json.dumps(asdict(result), indent=2))
    if args.out:
        shrunk = BugRecipe.from_dict(result.shrunk)
        save_recipes([shrunk], args.out)
        print(f"shrunk recipe: {args.out}")
    return 0 if result.status == "detected" else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "shrink":
            return _cmd_shrink(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
