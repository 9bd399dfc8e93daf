#!/usr/bin/env python3
"""Quickstart: detect a single-instruction bug that classic SQED cannot see.

This example reproduces the core claim of the paper on a scaled-down DUV:

1. build a pipelined processor with an injected single-instruction bug
   (ADD computes ``a + b + 1``),
2. run classic SQED (EDDI-V duplication) — the self-consistency property
   holds, the bug is invisible,
3. run SEPE-SQED (EDSEP-V with a semantically equivalent program for ADD) —
   the consistency property fails and we get a concrete bug trace.

Run with:  python examples/quickstart.py
It takes about ten seconds and exits 1 when a verdict is not the expected
one.
"""

from __future__ import annotations

import sys

from repro import (
    IsaConfig,
    ProcessorConfig,
    SepeSqedFlow,
    SqedFlow,
    default_equivalent_programs,
    get_bug,
    pool_for_bug,
)

#: BMC bounds.  SQED's bug-free-looking run must finish the whole bound,
#: which costs seconds per frame from bound 5 on; SEPE-SQED finds the bug
#: at a trace of 7 cycles.
SQED_BOUND = 5
SEPE_BOUND = 9


def main() -> int:
    # A narrow datapath keeps the pure-Python SAT backend fast; the flow is
    # identical at XLEN=32.
    isa = IsaConfig.small(xlen=4, num_regs=8)

    # The equivalent programs SEPE-SQED dispatches instead of duplicates.
    equivalents = default_equivalent_programs(isa)
    print("equivalent program used for ADD:")
    print(equivalents["ADD"].describe())
    print()

    bug = get_bug("single_add_off_by_one")
    pool = pool_for_bug(bug, equivalents)
    config = ProcessorConfig(isa=isa, supported_ops=pool)
    print(f"injected bug: {bug.description}")
    print(f"DUV instruction pool: {', '.join(pool)}")
    print()

    print(f"running classic SQED (EDDI-V) to bound {SQED_BOUND}...")
    sqed_outcome = SqedFlow(config).run(bug, bound=SQED_BOUND)
    print(f"  property violated: {sqed_outcome.detected} "
          f"(expected False - the bug hits original and duplicate identically)")

    print(f"running SEPE-SQED (EDSEP-V) to bound {SEPE_BOUND}...")
    sepe_outcome = SepeSqedFlow(config).run(bug, bound=SEPE_BOUND)
    print(f"  property violated: {sepe_outcome.detected} "
          f"(expected True), counterexample length: {sepe_outcome.counterexample_length} cycles, "
          f"runtime {sepe_outcome.runtime_seconds:.1f}s")

    if sepe_outcome.trace is not None:
        print()
        print("bug trace (QED module inputs per cycle):")
        signals = [name for name in sorted(sepe_outcome.trace.steps[0].inputs)]
        print(sepe_outcome.trace.render(signals))

    if sqed_outcome.detected is not False or sepe_outcome.detected is not True:
        print("unexpected verdict", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
