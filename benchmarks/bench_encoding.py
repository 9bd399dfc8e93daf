#!/usr/bin/env python
"""Encoding-pipeline benchmark: clause counts and verdicts per opt level (JSON).

The staged compilation pipeline (terms → AIG → CNF → preprocess, see
``repro.solve.pipeline``) exists to shrink the formulas every engine solves.
This benchmark measures it on the BMC pipeline workload — the SQED
verification model of the scaled-down processor, golden and with an
injected forwarding bug — at every ``opt_level``, with two decoupled gates:

* **clause reduction** (``--size-bound``, default 10): every frame up to
  the bound is *encoded* through the full pipeline via
  ``BmcSession.encode_to`` — blasting, cone-of-influence reduction,
  preprocessing, assumption-variable restoration — without paying for the
  SAT queries, so the bound-10 formula sizes are measurable on any
  hardware.  The gate requires at least ``--min-reduction`` (default 20%)
  fewer backend clauses at ``opt_level=2`` than at ``opt_level=0`` on the
  golden workload.
* **verdict equality** (``--verdict-bound``, default 7, the smallest bound
  that produces the forwarding counterexample): the sweep is actually
  *solved* at every opt level, and verdicts, counterexample frames and
  counterexample lengths must be identical across levels.

Per the single-CPU host rule both gates are on verdicts and CNF size;
wall-clock is reported for information only.  ``--smoke`` is accepted for
CI symmetry with the other benchmarks — the default bounds are already
hardware-independent, so it changes nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_encoding.py [--smoke] [--out results.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bmc.engine import BmcSession
from repro.core.flow import SqedFlow
from repro.isa.config import IsaConfig
from repro.proc.bugs import get_bug
from repro.proc.config import ProcessorConfig

OPT_LEVELS = (0, 1, 2)

#: The 4-bit two-op datapath: the same scaled-down configuration the tier-1
#: forwarding-bug test uses, big enough for meaningful clause counts and
#: small enough that the verdict sweep stays tractable on the naive path.
XLEN = 4
NUM_REGS = 4
POOL = ("ADD", "SUB")
BUG = "multi_no_forward_ex_rs1"


def _build_session(bug, opt_level: int) -> BmcSession:
    isa = IsaConfig.small(xlen=XLEN, num_regs=NUM_REGS)
    config = ProcessorConfig(isa=isa, supported_ops=POOL)
    model = SqedFlow(config, opt_level=opt_level).build_model(bug)
    return BmcSession(model.ts, model.property_name, opt_level=opt_level)


def _encoding_sizes(bug, size_bound: int, opt_level: int) -> dict:
    session = _build_session(bug, opt_level)
    start = time.perf_counter()
    encoding = session.encode_to(size_bound)
    seconds = time.perf_counter() - start
    return {
        "seconds": round(seconds, 2),
        "cnf_clauses_pre": encoding.cnf_clauses_pre,
        "cnf_clauses_post": encoding.cnf_clauses_post,
        "cnf_vars": encoding.cnf_vars,
        "aig_nodes": encoding.aig_nodes,
        "aig_rewrite_hits": encoding.aig_rewrite_hits,
        "vars_eliminated": encoding.vars_eliminated,
        "vars_restored": encoding.vars_restored,
        "units_found": encoding.units_found,
        "coi_states_dropped": encoding.coi_states_dropped,
        "coi_state_bits_dropped": encoding.coi_state_bits_dropped,
    }


def _verdict_sweep(bug, verdict_bound: int, opt_level: int) -> dict:
    session = _build_session(bug, opt_level)
    start = time.perf_counter()
    result = session.extend_to(verdict_bound)
    seconds = time.perf_counter() - start
    return {
        "holds": result.holds,
        "counterexample_frame": None if result.holds else result.bound,
        "counterexample_length": result.counterexample_length,
        "seconds": round(seconds, 2),
        "solver_calls": result.stats.solver_calls,
        "cnf_clauses_post": result.stats.encoding.cnf_clauses_post,
    }


def bench_workloads(size_bound: int, verdict_bound: int) -> list[dict]:
    workloads = []
    for name, bug in (("bmc-pipeline-golden", None), ("bmc-pipeline-bug", get_bug(BUG))):
        sizes = {}
        verdicts = {}
        for opt in OPT_LEVELS:
            print(
                f"[bench_encoding] {name} opt_level={opt}: encoding to bound "
                f"{size_bound} ...",
                file=sys.stderr,
                flush=True,
            )
            sizes[str(opt)] = _encoding_sizes(bug, size_bound, opt)
            print(
                f"[bench_encoding] {name} opt_level={opt}: solving to bound "
                f"{verdict_bound} ...",
                file=sys.stderr,
                flush=True,
            )
            verdicts[str(opt)] = _verdict_sweep(bug, verdict_bound, opt)
            print(
                f"[bench_encoding] {name} opt_level={opt}: "
                f"post={sizes[str(opt)]['cnf_clauses_post']} clauses @ bound "
                f"{size_bound}, holds={verdicts[str(opt)]['holds']} @ bound "
                f"{verdict_bound} ({verdicts[str(opt)]['seconds']}s)",
                file=sys.stderr,
                flush=True,
            )
        workloads.append(
            {
                "name": name,
                "size_bound": size_bound,
                "verdict_bound": verdict_bound,
                "pool": list(POOL),
                "xlen": XLEN,
                "encoding": sizes,
                "verdicts": verdicts,
            }
        )
    return workloads


def evaluate_gates(workloads: list[dict], min_reduction: float) -> dict:
    """Verdict-equality and clause-reduction gates over the finished runs."""
    verdicts_ok = True
    for workload in workloads:
        levels = workload["verdicts"]
        reference = levels[str(OPT_LEVELS[0])]
        for level in levels.values():
            if (
                level["holds"] != reference["holds"]
                or level["counterexample_frame"] != reference["counterexample_frame"]
                or level["counterexample_length"]
                != reference["counterexample_length"]
            ):
                verdicts_ok = False

    golden = workloads[0]["encoding"]
    naive = golden["0"]["cnf_clauses_post"]
    optimised = golden["2"]["cnf_clauses_post"]
    reduction = 0.0 if naive == 0 else 100.0 * (naive - optimised) / naive
    reduction_ok = reduction >= min_reduction
    return {
        "verdict_gate": "passed" if verdicts_ok else "FAILED",
        "clause_reduction_percent": round(reduction, 1),
        "clause_reduction_gate": (
            "passed" if reduction_ok else f"FAILED (< {min_reduction}%)"
        ),
        "passed": verdicts_ok and reduction_ok,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write JSON here (default: stdout)")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="accepted for CI symmetry; the default bounds already gate on "
        "verdicts and CNF size only, so this changes nothing",
    )
    parser.add_argument(
        "--size-bound",
        type=int,
        default=10,
        help="BMC bound for the encode-only clause measurement (default: 10)",
    )
    parser.add_argument(
        "--verdict-bound",
        type=int,
        default=7,
        help="BMC bound actually solved for the verdict-equality gate "
        "(default: 7 — the smallest bound that still produces the "
        "forwarding counterexample)",
    )
    parser.add_argument(
        "--min-reduction",
        type=float,
        default=20.0,
        help="required %% clause reduction at opt 2 vs opt 0 (default: 20)",
    )
    args = parser.parse_args(argv)

    workloads = bench_workloads(args.size_bound, args.verdict_bound)
    gates = evaluate_gates(workloads, args.min_reduction)

    report = {
        "workload": "SQED verification model, 4-bit datapath, ADD/SUB pool",
        "size_bound": args.size_bound,
        "verdict_bound": args.verdict_bound,
        "opt_levels": list(OPT_LEVELS),
        "workloads": workloads,
        **gates,
    }
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if gates["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
