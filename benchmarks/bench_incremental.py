#!/usr/bin/env python
"""Oneshot vs incremental solving on BMC and CEGIS workloads (JSON output).

For each workload the script solves the *same* queries twice:

* ``oneshot`` — a fresh solver per query: every BMC frame re-blasts the
  whole unrolling, every CEGIS iteration re-blasts the whole constraint
  set (the pre-``repro.solve`` behaviour),
* ``incremental`` — one shared :class:`~repro.solve.context.SolverContext`
  per loop, the way the engines now work.

Both paths must produce identical verdicts; the script reports wall-time
and total CDCL conflicts for each, plus a per-workload ``incremental_wins``
flag (fewer conflicts or lower wall-time, verdicts equal).

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--out results.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bmc.engine import BmcEngine
from repro.isa.config import IsaConfig
from repro.proc.bugs import get_bug
from repro.proc.config import ProcessorConfig
from repro.core.flow import SepeSqedFlow, pool_for_bug
from repro.qed.equivalents import default_equivalent_programs
from repro.smt import terms as T
from repro.solve.context import SolverContext
from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.components import build_default_library
from repro.synth.spec import spec_from_instruction
from repro.ts.unroll import Unroller


# --------------------------------------------------------------------- BMC


def _pipeline_model(bound_bug: str = "single_add_off_by_one"):
    isa = IsaConfig.small()
    equivalents = default_equivalent_programs(isa)
    bug = get_bug(bound_bug)
    pool = pool_for_bug(bug, equivalents)
    config = ProcessorConfig(isa=isa, supported_ops=pool)
    flow = SepeSqedFlow(config, equivalents={op: equivalents[op] for op in pool if op in equivalents})
    return flow.build_model(bug)


def _bmc_oneshot(model, bound: int):
    """Per-frame fresh solving: frame k re-blasts constraints 0..k."""
    unroller = Unroller(model.ts)
    conflicts = 0
    verdict: str = "holds"
    for frame in range(bound + 1):
        solver = SolverContext()
        for k in range(frame + 1):
            for constraint in unroller.constraints_at(k):
                if constraint.is_const:
                    continue
                solver.add(constraint)
        violation = T.bv_not(unroller.property_at(model.property_name, frame))
        if violation.is_const and violation.const_value() == 0:
            continue
        result = solver.check(assumptions=[violation])
        conflicts += result.stats.conflicts
        if result.satisfiable:
            verdict = f"violated@{frame}"
            break
    return verdict, conflicts


def _bmc_incremental(model, bound: int):
    result = BmcEngine(model.ts).check(model.property_name, bound=bound)
    verdict = "holds" if result.holds else f"violated@{result.bound}"
    return verdict, result.stats.solver_stats.conflicts


def bench_bmc(bound: int) -> dict:
    model = _pipeline_model()
    start = time.perf_counter()
    oneshot_verdict, oneshot_conflicts = _bmc_oneshot(model, bound)
    oneshot_seconds = time.perf_counter() - start
    start = time.perf_counter()
    incr_verdict, incr_conflicts = _bmc_incremental(model, bound)
    incr_seconds = time.perf_counter() - start
    return _workload(
        name=f"pipeline-bmc-bound{bound}",
        oneshot=(oneshot_verdict, oneshot_seconds, oneshot_conflicts),
        incremental=(incr_verdict, incr_seconds, incr_conflicts),
    )


# -------------------------------------------------------------------- CEGIS


def bench_cegis(op: str, component_names: list[str]) -> dict:
    isa = IsaConfig.small()
    library = build_default_library(isa)
    components = [library.by_name(name) for name in component_names]

    def run(incremental: bool):
        spec = spec_from_instruction(op, isa)
        config = CegisConfig(incremental=incremental, initial_examples=1)
        start = time.perf_counter()
        outcome = CegisEngine(config).synthesize(spec, components)
        seconds = time.perf_counter() - start
        stats = outcome.stats
        conflicts = (
            stats.synthesis_solver_stats.conflicts
            + stats.verification_solver_stats.conflicts
        )
        verdict = "synthesized" if outcome.succeeded else "failed"
        return verdict, seconds, conflicts, stats.iterations

    oneshot_verdict, oneshot_seconds, oneshot_conflicts, iters = run(False)
    incr_verdict, incr_seconds, incr_conflicts, incr_iters = run(True)
    payload = _workload(
        name=f"cegis-{op.lower()}",
        oneshot=(oneshot_verdict, oneshot_seconds, oneshot_conflicts),
        incremental=(incr_verdict, incr_seconds, incr_conflicts),
    )
    payload["iterations"] = {"oneshot": iters, "incremental": incr_iters}
    return payload


# ------------------------------------------------------------------ harness


def _workload(name, oneshot, incremental) -> dict:
    o_verdict, o_seconds, o_conflicts = oneshot
    i_verdict, i_seconds, i_conflicts = incremental
    return {
        "name": name,
        "oneshot": {
            "verdict": o_verdict,
            "seconds": round(o_seconds, 4),
            "conflicts": o_conflicts,
        },
        "incremental": {
            "verdict": i_verdict,
            "seconds": round(i_seconds, 4),
            "conflicts": i_conflicts,
        },
        "verdicts_match": o_verdict == i_verdict,
        "incremental_wins": o_verdict == i_verdict
        # Conflicts are the primary (deterministic) signal; wall-time is the
        # fallback tiebreaker when conflict counts are equal.
        and (i_conflicts < o_conflicts or i_seconds < o_seconds),  # selflint: allow-wallclock
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write JSON here (default: stdout)")
    parser.add_argument("--bmc-bound", type=int, default=9)
    args = parser.parse_args(argv)

    workloads = [
        bench_bmc(args.bmc_bound),
        bench_cegis("SLTU", ["XORI.D", "XORI.D", "SLTU"]),
        bench_cegis("SUB", ["XORI.D", "ADD", "XORI.D"]),
    ]
    wins = sum(1 for w in workloads if w["incremental_wins"])
    report = {
        "workloads": workloads,
        "wins": wins,
        "total": len(workloads),
        "all_verdicts_match": all(w["verdicts_match"] for w in workloads),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if wins >= 2 and report["all_verdicts_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
