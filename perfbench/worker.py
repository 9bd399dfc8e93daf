"""One pass of one benchmark workload, in a fresh process.

``run.py`` starts this script once per pass.  The pass draws its inputs
from ``--seed`` (the same seed always gives the same inputs; the program
only ever sees the drawn inputs), times every operation and the
:mod:`reference` computation between operations, checks every
operation's output outside the timed section, and prints one JSON line:
set-up time (in seconds and at reference speed), summed operation time
(in seconds and in reference units), peak resident memory, the failed
operations by name and, with ``--trace 1``, the per-layer metrics of
:mod:`tracer`.  A traced pass also writes its spans to
``.perfbench/spans-<workload>.tsv``.

Set-up time runs from ``--t0`` (the parent's ``time.monotonic()`` just
before it started this process; the clock is system-wide) to the first
operation, so it covers interpreter start, imports, configuration,
component libraries, and drawing and instantiating the inputs.

Usage (``run.py`` is the normal entry point)::

    PYTHONPATH=src python3 perfbench/worker.py --workload bug-hunt --seed 1 \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from reference import REFERENCE_S, reference_seconds


@dataclass
class Op:
    """One drawn item: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], Any]
    #: ``None`` when ``run``'s output is correct, else what is wrong with it.
    check: Callable[[Any], Optional[str]]


# ---------------------------------------------------------------------------
# hpf-synth: HPF-CEGIS over a seed-ordered case list on one shared engine
# ---------------------------------------------------------------------------

#: HPF-CEGIS parameters: 8-bit datapath, multisets of three components, k
#: programs per case within a fixed multiset budget.
SYNTH_XLEN = 8
SYNTH_MULTISET_SIZE = 3
SYNTH_K = 1
SYNTH_BUDGET = 32
SYNTH_ITERATIONS = 12


def hpf_synth(seed: int, size: dict) -> list[Op]:
    from repro.isa.config import IsaConfig
    from repro.synth.cegis import CegisConfig, CegisEngine
    from repro.synth.components import build_default_library
    from repro.synth.hpf import HpfCegis
    from repro.synth.spec import spec_from_instruction

    isa = IsaConfig.small(xlen=SYNTH_XLEN, num_regs=8)
    cegis = CegisConfig(max_iterations=SYNTH_ITERATIONS)
    # One engine for every case: Algorithm 1's priority dictionary carries
    # over from case to case, which is what this workload measures.
    engine = HpfCegis(
        build_default_library(isa),
        multiset_size=SYNTH_MULTISET_SIZE,
        target_programs=SYNTH_K,
        cegis_config=cegis,
        max_multisets=SYNTH_BUDGET,
    )
    checker = CegisEngine(cegis)
    # Order decides what HPF finds within the budget.  SUB finds nothing
    # from fresh priorities but takes one multiset after ADD; ADDI, XORI
    # and ORI each take 29 after ADD and SUB; in a random order most cases
    # find no program at all.  So ADD and SUB lead and the seed draws the
    # cases that follow from that pool.
    cases = [*size["lead"], *random.Random(seed).sample(size["pool"], size["draw"])]

    def op(name: str) -> Op:
        spec = spec_from_instruction(name, isa)

        def check(run) -> Optional[str]:
            if len(run.programs) < SYNTH_K:
                return (
                    f"{len(run.programs)} of {SYNTH_K} programs in "
                    f"{run.multisets_tried} multisets"
                )
            for program in run.programs:
                cex = checker.find_counterexample(spec, program)
                if cex is not None:
                    return f"{program.component_names()} differs on input {cex}"
            return None

        return Op(name, lambda: engine.synthesize_for(spec), check)

    return [op(name) for name in cases]


# ---------------------------------------------------------------------------
# bug-hunt: the bug zoo through the BMC leg of the oracle
# ---------------------------------------------------------------------------


#: Distinct SEPE-SQED verification configurations (``control_key()``): one
#: per target op, the seven R-type ops of ``alu_op_swap``,
#: ``alu_result_offset`` and ``operand_swap`` and the three I-type ops of
#: ``imm_sext_flip``.
BUG_HUNT_CONFIGS = 10


def bug_hunt(seed: int, size: dict) -> list[Op]:
    from repro.zoo.campaign import CampaignConfig, generate_recipes
    from repro.zoo.families import FAMILIES, FLOW_SEPE, instantiate
    from repro.zoo.oracle import STATUS_DETECTED, OracleSettings, run_instance

    settings = OracleSettings(engines=("bmc",))
    # One seeded single-instruction bug per target instruction, as in the
    # paper's Table 1: the first instance of each distinct verification
    # configuration (``control_key()``, as campaigns deduplicate controls)
    # in a round-robin draw of the SEPE-SQED families.  The draw grows until
    # it reaches every configuration, so the seed picks the bugs and their
    # order while the set of models, and with it the amount of work, stays
    # the same.  The SQED hazard families stay out: their cost is set by a
    # coin-flip mode (0.2 s or 2.5 s per instance), so no pass-sized draw
    # of them is steady across seeds.
    sepe = tuple(sorted(n for n, f in FAMILIES.items() if f.flow_kind == FLOW_SEPE))
    chosen: dict = {}
    drawn = 0
    while len(chosen) < size["configs"]:
        if drawn >= 8 * size["instances"]:
            raise RuntimeError(
                f"{drawn} recipes reach {len(chosen)} of {size['configs']} configurations"
            )
        recipes = generate_recipes(
            CampaignConfig(count=drawn + size["instances"], seed=seed, families=sepe)
        )
        for instance in map(instantiate, recipes[drawn:]):
            chosen.setdefault(instance.control_key(), instance)
        drawn = len(recipes)

    def op(instance) -> Op:
        def check(report) -> Optional[str]:
            if report.status == STATUS_DETECTED and report.concretized:
                return None
            return f"{report.status}: {report.failure}"

        return Op(
            f"{instance.family}/{instance.recipe.seed}",
            lambda: run_instance(instance, settings),
            check,
        )

    return [op(instance) for instance in chosen.values()]


# ---------------------------------------------------------------------------
# golden-pdr: frame-bounded PDR on the golden QED model + the design gallery
# ---------------------------------------------------------------------------

#: R-type ops the golden model's pair is drawn from.  At three frames every
#: pair of them makes 499-527 consecution queries; a pair with SLT or SLTU
#: makes 332-520, so those stay out to keep the work the same across seeds.
PDR_OPS = ("ADD", "SUB", "XOR", "OR", "AND")


def golden_pdr(seed: int, size: dict) -> list[Op]:
    from repro.core.flow import SqedFlow
    from repro.isa.config import IsaConfig
    from repro.pdr import PdrEngine, check_invariant
    from repro.pdr.designs import (
        lockstep_accumulators,
        pipelined_accumulators,
        saturating_counter,
    )
    from repro.proc.config import ProcessorConfig

    rng = random.Random(seed)
    ops: list[Op] = []
    for _ in range(size["golden"]):
        pair = tuple(rng.sample(PDR_OPS, 2))
        flow = SqedFlow(
            ProcessorConfig(isa=IsaConfig.small(xlen=4, num_regs=4), supported_ops=pair)
        )

        def check_golden(outcome) -> Optional[str]:
            # The model is bug-free: a frame-bounded run may stop short of
            # a proof, but it must never refute.
            return "PDR refuted the bug-free model" if outcome.proven is False else None

        ops.append(
            Op(
                "golden/" + "+".join(pair),
                lambda flow=flow: flow.prove(
                    None, engine="pdr", max_frames=size["golden_frames"]
                ),
                check_golden,
            )
        )

    # (name, factory, kwargs, property, expected verdict)
    gallery = [
        ("counter-good", saturating_counter, {}, "bounded", True),
        ("counter-buggy", saturating_counter, {"buggy": True}, "bounded", False),
        ("lockstep-good", lockstep_accumulators, {}, "consistent", True),
        ("lockstep-buggy", lockstep_accumulators, {"buggy": True}, "consistent", False),
        ("piped-good", pipelined_accumulators, {}, "consistent", True),
        ("piped-buggy", pipelined_accumulators, {"buggy": True}, "consistent", False),
        ("lockstep-good-8bit", lockstep_accumulators, {"xlen": 8}, "consistent", True),
        ("piped-good-8bit", pipelined_accumulators, {"xlen": 8}, "consistent", True),
        (
            "piped-buggy-8bit",
            pipelined_accumulators,
            {"xlen": 8, "buggy": True},
            "consistent",
            False,
        ),
    ]
    for name, factory, kwargs, prop, expected in gallery[: size["designs"]]:
        ts = factory("pb_" + name.replace("-", "_"), **kwargs)

        def check_design(result, ts=ts, prop=prop, expected=expected) -> Optional[str]:
            if result.proven is not expected:
                return f"verdict {result.proven}, expected {expected}"
            if expected and not check_invariant(ts, prop, result.invariant, opt_level=0).valid:
                return "invariant fails the opt_level=0 re-check"
            return None

        ops.append(
            Op(
                f"design/{name}",
                lambda ts=ts, prop=prop: PdrEngine(ts, max_frames=20).prove(prop),
                check_design,
            )
        )
    return ops


WORKLOADS = {
    "hpf-synth": hpf_synth,
    "bug-hunt": bug_hunt,
    "golden-pdr": golden_pdr,
}

#: What one pass draws.  ``full`` is what the benchmark measures; ``tiny``
#: keeps the self-test fast while still reaching every layer.
SIZES = {
    "full": {
        "hpf-synth": {"lead": ("ADD", "SUB"), "pool": ("ADDI", "XORI", "ORI"), "draw": 1},
        "bug-hunt": {"instances": 84, "configs": BUG_HUNT_CONFIGS},
        "golden-pdr": {"golden": 1, "golden_frames": 3, "designs": 9},
    },
    "tiny": {
        "hpf-synth": {"lead": ("ADD", "SUB"), "pool": ("ADDI", "XORI", "ORI"), "draw": 0},
        "bug-hunt": {"instances": 1, "configs": 1},
        "golden-pdr": {"golden": 1, "golden_frames": 1, "designs": 2},
    },
}


def spans_path(workload: str) -> Path:
    """Where a traced pass of ``workload`` writes its spans."""
    return Path(__file__).resolve().parent.parent / ".perfbench" / f"spans-{workload}.tsv"


def run_ops(ops: list[Op], before: float, tracer=None) -> tuple[float, float, list[str]]:
    """Time every operation and check every output.

    ``before`` is the reference time taken just before the first
    operation.  Returns the operations' summed seconds, their summed time
    in units of the reference computation (each operation's seconds over
    the mean of the reference times taken just before and just after it),
    and the failures.
    """
    wall_s = wall_refs = 0.0
    failures: list[str] = []
    for op in ops:
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a raising operation fails; the pass goes on
            traceback.print_exc()
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        after = reference_seconds()
        wall_s += seconds
        wall_refs += 2.0 * seconds / (before + after)
        before = after
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # so does one whose output cannot be checked
                traceback.print_exc()
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.name}: {error}")
    return wall_s, wall_refs, failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = WORKLOADS[args.workload](args.seed, SIZES[args.scale][args.workload])
    setup_s = time.monotonic() - args.t0
    reference_s = reference_seconds()
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    wall_s, wall_refs, failures = run_ops(ops, reference_s, tracer)
    report = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * REFERENCE_S / reference_s,
        "wall_s": wall_s,
        "wall_refs": wall_refs,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": [op.name for op in ops],
        "failures": failures,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(wall_s)
        tracer.write_spans(spans_path(args.workload))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
