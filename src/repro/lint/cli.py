"""Command-line front end: ``python -m repro.lint``.

Targets, combinable in one invocation:

* positional paths — ``.btor2`` files, parsed and model-linted;
* ``--design NAME`` (repeatable, or ``all``) — entries of the built-in
  design gallery (the PDR designs, clean and buggy variants);
* ``--zoo-sample N`` — N generated bug-zoo instances (seeded, reproducible
  via ``--zoo-seed``), each built and model-linted;
* ``--encode-bound K`` — additionally unroll each target to bound K and
  run the encoding lint over the produced CNF/AIG and pipeline stats.

Exit status: 0 clean, 1 when findings at or above ``--fail-on`` severity
exist, 2 on usage/parse errors.

Examples::

    python -m repro.lint sepe_sqed_model.btor2
    python -m repro.lint --design all --json
    python -m repro.lint --zoo-sample 20 --zoo-seed 7 --fail-on error
    python -m repro.lint sepe_sqed_model.btor2 --encode-bound 3
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional

from repro.errors import ReproError
from repro.lint.encoding import lint_aig, lint_cnf, lint_encoding_stats
from repro.lint.findings import SEV_ERROR, SEV_WARNING, LintReport
from repro.lint.model import lint_transition_system
from repro.ts.system import TransitionSystem


def _gallery() -> dict[str, Callable[[], TransitionSystem]]:
    from repro.pdr import designs as D

    gallery: dict[str, Callable[[], TransitionSystem]] = {}
    for builder in (
        D.saturating_counter,
        D.lockstep_accumulators,
        D.pipelined_accumulators,
    ):
        for buggy in (False, True):
            key = builder.__name__ + ("_buggy" if buggy else "")
            gallery[key] = (
                lambda b=builder, bg=buggy: b("d", buggy=bg)
            )
    return gallery


def add_target_args(parser: argparse.ArgumentParser, verb: str) -> None:
    """The target and output arguments of ``python -m repro.lint`` and
    ``python -m repro.absint``; ``verb`` says what each does to a target."""
    parser.add_argument(
        "targets",
        nargs="*",
        help=f"BTOR2 files to parse and {verb}",
    )
    parser.add_argument(
        "--design",
        action="append",
        default=[],
        metavar="NAME",
        help=f"{verb} a built-in design ('all' for the whole gallery; "
        "repeatable)",
    )
    parser.add_argument(
        "--zoo-sample",
        type=int,
        default=0,
        metavar="N",
        help=f"{verb} N generated bug-zoo instances",
    )
    parser.add_argument(
        "--zoo-seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed for --zoo-sample (default 0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit a JSON report instead of text",
    )


def load_targets(
    args: argparse.Namespace, verb: str
) -> Optional[list[tuple[str, TransitionSystem]]]:
    """The named transition systems :func:`add_target_args` selected.

    Returns ``None`` after printing a usage error (an unknown design, or no
    target at all), for which the caller exits 2.  Parse and I/O errors
    propagate.
    """
    from repro.btor.parser import parse_btor2
    from repro.qed.module import reserve_model_prefixes

    gallery = _gallery()
    targets: list[tuple[str, TransitionSystem]] = []
    for path_text in args.targets:
        path = Path(path_text)
        ts = parse_btor2(path.read_text(), name=path.stem)
        # A parsed QED model re-interns its m<N>_* symbols; keep later
        # in-process builds (--zoo-sample) off those prefixes.
        reserve_model_prefixes(
            [s.name for s in ts.states] + [i.name for i in ts.inputs]
        )
        targets.append((path_text, ts))
    design_names = list(args.design)
    if "all" in design_names:
        design_names = sorted(gallery)
    for name in design_names:
        if name not in gallery:
            print(
                f"unknown design {name!r}; available: "
                + ", ".join(sorted(gallery)),
                file=sys.stderr,
            )
            return None
        targets.append((f"design:{name}", gallery[name]()))
    if args.zoo_sample:
        targets.extend(_zoo_targets(args.zoo_sample, args.zoo_seed))
    if not targets:
        print(
            f"nothing to {verb} (pass files, --design or --zoo-sample)",
            file=sys.stderr,
        )
        return None
    return targets


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis over transition systems and encodings.",
    )
    add_target_args(parser, "lint")
    parser.add_argument(
        "--encode-bound",
        type=int,
        default=None,
        metavar="K",
        help="also unroll each target to bound K and lint the encoding",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that makes the exit status 1 (default: error)",
    )
    return parser


def _lint_encoding(
    ts: TransitionSystem, bound: int, report: LintReport
) -> None:
    """Unroll ``ts`` to ``bound`` for every property and lint the encoding."""
    from repro.bmc.engine import BmcSession

    for prop_name in ts.properties:
        session = BmcSession(ts, prop_name)
        stats = session.encode_to(bound)
        blaster = session.context.blaster
        report.extend(lint_cnf(blaster.cnf))
        if blaster.aig is not None:
            report.extend(lint_aig(blaster.aig))
        report.extend(lint_encoding_stats(stats))


def _zoo_targets(count: int, seed: int) -> list[tuple[str, TransitionSystem]]:
    from repro.zoo.families import FAMILIES, instantiate, sample_recipe
    from repro.zoo.oracle import make_flow

    families = sorted(FAMILIES)
    targets: list[tuple[str, TransitionSystem]] = []
    for index in range(count):
        family = families[index % len(families)]
        recipe = sample_recipe(family, seed + index)
        instance = instantiate(recipe)
        model = make_flow(instance).build_model(instance.bug)
        targets.append((f"zoo:{family}[seed={seed + index}]", model.ts))
    return targets


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        targets = load_targets(args, "lint")
        if targets is None:
            return 2
        results: list[tuple[str, LintReport]] = []
        for name, ts in targets:
            report = lint_transition_system(ts)
            if args.encode_bound is not None:
                _lint_encoding(ts, args.encode_bound, report)
            results.append((name, report))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    total_errors = sum(len(r.errors) for _, r in results)
    total_warnings = sum(len(r.warnings) for _, r in results)

    if args.as_json:
        payload = {
            "targets": {name: report.as_dict() for name, report in results},
            "total_errors": total_errors,
            "total_warnings": total_warnings,
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, report in results:
            if report.findings:
                print(f"== {name}")
                print(report.render())
            else:
                print(f"== {name}: clean")
        print(
            f"-- {len(results)} target(s): {total_errors} error(s), "
            f"{total_warnings} warning(s)"
        )

    if args.fail_on == "never":
        return 0
    failing = total_errors
    if args.fail_on == "warning":
        failing += total_warnings
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
