"""Table 1 — injected single-instruction bugs.

For every single-instruction mutation the paper reports the SEPE-SQED
detection time and a dash for SQED (which, by construction, cannot observe
a bug that corrupts the original instruction and its duplicate identically).
This harness reproduces exactly that: for each bug it runs SEPE-SQED
(expecting a counterexample) and SQED (expecting the property to hold up to
the bound) and prints the table.  A dash means SQED finished its bound (or
proof) without a detection; a run that exhausted its conflict budget reads
"inconclusive".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.core.flow import SepeSqedFlow, SqedFlow, pool_for_bug
from repro.core.results import ProofOutcome, VerificationOutcome
from repro.errors import UnknownBugError
from repro.isa.config import IsaConfig
from repro.proc.bugs import Bug, select_bugs, single_instruction_bugs
from repro.proc.config import ProcessorConfig
from repro.qed.equivalents import default_equivalent_programs
from repro.utils.tables import TextTable

#: The bugs the CLI runs by default (every Table 1 bug with --full).
QUICK_BUGS = [
    "single_add_off_by_one",
    "single_xor_as_or",
    "single_and_as_or",
]

NUM_REGS = 8
FIFO_DEPTH = 2
SEPE_BOUND = 10
#: Conflict budget for the SQED runs.  SQED provably cannot detect these
#: bugs, so its BMC queries are all UNSAT; bounding the proof effort keeps
#: the harness fast.  A run that exhausts the budget did not finish its
#: bound, so its cell reads "inconclusive", not the paper's "-".
SQED_CONFLICT_BUDGET = 20_000
#: Depth limits for the unbounded SQED engines.
SQED_MAX_K = 4
SQED_MAX_FRAMES = 10


@dataclass
class Table1Config:
    """What a Table 1 run varies: the bugs, the datapath width, the SQED
    bound and the SQED engine.

    The rest of the setup is the module constants above; the encoder level
    is the process default (``$REPRO_OPT_LEVEL``, see
    :mod:`repro.solve.pipeline`).
    """

    bug_names: Optional[list[str]] = None
    xlen: int = 8
    sqed_bound: int = 5
    #: Engine for the SQED column: ``"bmc"`` (the paper's bounded check, the
    #: default) or an unbounded prover (``"kinduction"`` / ``"pdr"``) that
    #: upgrades the dash to a *proof* that SQED cannot detect the bug at any
    #: depth.  The unbounded engines can be slow on full-size processor
    #: configurations; they are opt-in.
    engine: str = "bmc"


@dataclass
class Table1Row:
    bug: Bug
    sepe: VerificationOutcome
    sqed: VerificationOutcome
    #: Populated when the SQED column ran an unbounded engine
    #: (``Table1Config.engine != "bmc"``).
    sqed_proof: Optional[ProofOutcome] = None


@dataclass
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)

    def render(self) -> str:
        table = TextTable(
            ["Type", "Function", "SEPE-SQED", "SQED"]
        )
        for row in self.rows:
            sepe_cell = (
                f"{row.sepe.runtime_seconds:.2f}s"
                if row.sepe.detected
                else ("inconclusive" if row.sepe.detected is None else "MISSED")
            )
            if row.sqed.detected:
                sqed_cell = f"FALSE DETECTION {row.sqed.runtime_seconds:.2f}s"
            elif row.sqed.detected is None:
                sqed_cell = "inconclusive"
            elif row.sqed_proof is not None and row.sqed_proof.proven:
                # The unbounded engine upgraded the dash to a proof.
                sqed_cell = (
                    f"- (proven absent, {row.sqed_proof.engine} "
                    f"depth {row.sqed_proof.depth})"
                )
            else:
                sqed_cell = "-"
            table.add_row(
                [row.bug.target_ops[0], row.bug.description, sepe_cell, sqed_cell]
            )
        return table.render()

    @property
    def all_detected_by_sepe(self) -> bool:
        return all(row.sepe.detected for row in self.rows)

    @property
    def none_detected_by_sqed(self) -> bool:
        """Every SQED run finished its bound or proof without a detection."""
        return all(row.sqed.detected is False for row in self.rows)

    def summary(self) -> str:
        """The CLI's closing line, with SQED's rows counted by outcome."""
        sqed = Counter(row.sqed.detected for row in self.rows)
        return (
            f"SEPE-SQED detected all: {self.all_detected_by_sepe}; "
            f"SQED detected {sqed[True]}, finished without detection "
            f"{sqed[False]}, inconclusive {sqed[None]}"
        )


def run_table1(config: Table1Config | None = None) -> Table1Result:
    """Run the single-instruction-bug comparison.

    Raises :class:`~repro.errors.UnknownBugError` when ``bug_names`` names
    a bug outside the Table 1 set.
    """
    config = config or Table1Config()
    bugs = select_bugs(single_instruction_bugs(), config.bug_names)
    isa = IsaConfig.small(xlen=config.xlen, num_regs=NUM_REGS)
    equivalents_all = default_equivalent_programs(isa)

    def run_row(bug: Bug) -> Table1Row:
        pool = pool_for_bug(bug, equivalents_all)
        proc_config = ProcessorConfig(isa=isa, supported_ops=pool)
        equivalents = {
            op: program for op, program in equivalents_all.items() if op in pool
        }
        sepe = SepeSqedFlow(
            proc_config, equivalents=equivalents, fifo_depth=FIFO_DEPTH
        )
        sqed = SqedFlow(proc_config, fifo_depth=FIFO_DEPTH)
        sepe_outcome = sepe.run(bug, bound=SEPE_BOUND)
        if config.engine == "bmc":
            sqed_outcome = sqed.run(
                bug,
                bound=config.sqed_bound,
                conflict_budget=SQED_CONFLICT_BUDGET,
            )
            return Table1Row(bug=bug, sepe=sepe_outcome, sqed=sqed_outcome)
        # Unbounded SQED column: prove (rather than bound-check) that the
        # self-consistency property survives the bug.
        sqed_proof = sqed.prove(
            bug,
            engine=config.engine,
            max_k=SQED_MAX_K,
            max_frames=SQED_MAX_FRAMES,
            conflict_budget=SQED_CONFLICT_BUDGET,
        )
        detected: Optional[bool]
        if sqed_proof.proven is None:
            detected = None
        else:
            detected = not sqed_proof.proven
        sqed_outcome = VerificationOutcome(
            method="SQED",
            bug_name=bug.name,
            detected=detected,
            runtime_seconds=sqed_proof.runtime_seconds,
            bound=sqed_proof.depth,
        )
        return Table1Row(
            bug=bug, sepe=sepe_outcome, sqed=sqed_outcome, sqed_proof=sqed_proof
        )

    return Table1Result(rows=[run_row(bug) for bug in bugs])


def main() -> None:  # pragma: no cover - CLI entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run every Table 1 bug")
    parser.add_argument("--bugs", nargs="*", default=None)
    parser.add_argument(
        "--engine",
        choices=("bmc", "kinduction", "pdr"),
        default="bmc",
        help=(
            "SQED-column engine: bounded 'bmc' (paper-faithful, default) or "
            "an unbounded prover ('kinduction'/'pdr') that turns the dash "
            "into a proof of non-detection"
        ),
    )
    args = parser.parse_args()

    config = Table1Config(bug_names=list(QUICK_BUGS), engine=args.engine)
    if args.full:
        config.bug_names = None
    if args.bugs:
        config.bug_names = args.bugs
    try:
        result = run_table1(config)
    except UnknownBugError as exc:
        parser.error(str(exc))
    print(result.render())
    print(result.summary())


if __name__ == "__main__":  # pragma: no cover
    main()
