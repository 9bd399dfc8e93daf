"""Command-line front end: ``python -m repro.absint``.

Targets, combinable in one invocation (mirroring ``python -m repro.lint``):

* positional paths — ``.btor2`` files, parsed and analyzed;
* ``--design NAME`` (repeatable, or ``all``) — entries of the built-in
  design gallery (the PDR designs, clean and buggy variants);
* ``--zoo-sample N`` — N generated bug-zoo instances (seeded, reproducible
  via ``--zoo-seed``), each built and analyzed;
* ``--validate N`` — additionally cross-check every fact against N random
  concrete simulation runs (exit 2 on a soundness violation).

Exit status: 0 on success, 2 on usage/parse/soundness errors.

Examples::

    python -m repro.absint sepe_sqed_model.btor2
    python -m repro.absint --design all --json
    python -m repro.absint --zoo-sample 20 --zoo-seed 7 --validate 25
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.absint.facts import latch_facts, validate_by_simulation
from repro.absint.fixpoint import Analysis, analyze
from repro.errors import ReproError
from repro.lint.cli import add_target_args, load_targets
from repro.ts.system import TransitionSystem


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.absint",
        description="Abstract-interpretation reachability analysis over "
        "transition systems.",
    )
    add_target_args(parser, "analyze")
    parser.add_argument(
        "--validate",
        type=int,
        default=0,
        metavar="N",
        help="cross-check facts against N random simulation runs per "
        "target (soundness oracle)",
    )
    return parser


def _target_summary(
    ts: TransitionSystem, analysis: Analysis, validated_checks: Optional[int]
) -> dict:
    summary = {
        "latches": len(ts.states),
        "facts": analysis.fact_count(),
        "known_bits": analysis.known_bit_count(),
        "state_bits": ts.num_state_bits(),
        "seq_const_latches": sorted(analysis.seq_const),
        "iterations": analysis.iterations,
        "widenings": analysis.widenings,
        "values": {
            fact.name: fact.value.describe()
            for fact in latch_facts(ts, analysis)
        },
        "properties": {
            name: value.describe()
            for name, value in analysis.properties.items()
        },
    }
    if validated_checks is not None:
        summary["simulation_checks"] = validated_checks
    return summary


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        targets = load_targets(args, "analyze")
        if targets is None:
            return 2
        results: list[tuple[str, TransitionSystem, Analysis, Optional[int]]] = []
        for name, ts in targets:
            analysis = analyze(ts)
            checks: Optional[int] = None
            if args.validate:
                checks = validate_by_simulation(ts, analysis, runs=args.validate)
            results.append((name, ts, analysis, checks))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.as_json:
        payload = {
            "targets": {
                name: _target_summary(ts, analysis, checks)
                for name, ts, analysis, checks in results
            },
            "total_facts": sum(a.fact_count() for _, _, a, _ in results),
            "total_known_bits": sum(
                a.known_bit_count() for _, _, a, _ in results
            ),
        }
        print(json.dumps(payload, indent=2))
    else:
        total_facts = 0
        for name, ts, analysis, checks in results:
            facts = latch_facts(ts, analysis)
            total_facts += len(facts)
            if facts:
                print(f"== {name}: {len(facts)} fact(s)")
                for fact in facts:
                    print(f"   {fact.describe()}")
            else:
                print(f"== {name}: no facts")
            for pname, value in analysis.properties.items():
                if value.is_const:
                    verdict = "holds" if value.const_value() == 1 else "fails"
                    print(f"   property {pname}: abstractly {verdict}")
            if checks is not None:
                print(f"   simulation: {checks} containment checks passed")
        print(f"-- {len(results)} target(s): {total_facts} fact(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
