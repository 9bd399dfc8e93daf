"""Figure 4 — multiple-instruction bugs: runtime and counterexample length.

Both methods detect sequence-dependent bugs; the paper plots, per bug, the
detection time of each method together with the SQED / SEPE-SQED ratios of
runtime and counterexample length, observing that EDSEP-V's extra machinery
does not cost much and sometimes yields *shorter* traces.  This harness runs
both flows on each multiple-instruction mutation and prints the same series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.flow import SepeSqedFlow, SqedFlow, pool_for_bug
from repro.core.results import VerificationOutcome
from repro.errors import UnknownBugError
from repro.isa.config import IsaConfig
from repro.proc.bugs import Bug, multiple_instruction_bugs, select_bugs
from repro.proc.config import ProcessorConfig
from repro.qed.equivalents import default_equivalent_programs
from repro.utils.tables import TextTable

#: The bugs the CLI runs by default (every Figure 4 bug with --full).
QUICK_BUGS = [
    "multi_no_forward_ex_rs1",
    "multi_wb_dropped_on_double_write",
]


@dataclass
class Figure4Config:
    """Knobs of the Figure 4 experiment."""

    bug_names: Optional[list[str]] = None
    xlen: int = 8
    num_regs: int = 8
    bound: int = 10
    fifo_depth: int = 2
    #: Compilation-pipeline level for every solver in the experiment
    #: (``None`` = process default, see :mod:`repro.solve.pipeline`).
    opt_level: Optional[int] = None


@dataclass
class Figure4Row:
    bug: Bug
    sepe: VerificationOutcome
    sqed: VerificationOutcome

    @property
    def runtime_ratio(self) -> Optional[float]:
        """SQED / SEPE-SQED detection-time ratio (the paper's blue curve)."""
        if not (self.sepe.detected and self.sqed.detected):
            return None
        if self.sepe.runtime_seconds == 0:
            return None
        return self.sqed.runtime_seconds / self.sepe.runtime_seconds

    @property
    def length_ratio(self) -> Optional[float]:
        """SQED / SEPE-SQED counterexample-length ratio (the yellow curve)."""
        if self.sepe.counterexample_length and self.sqed.counterexample_length:
            return self.sqed.counterexample_length / self.sepe.counterexample_length
        return None


@dataclass
class Figure4Result:
    rows: list[Figure4Row] = field(default_factory=list)

    def render(self) -> str:
        table = TextTable(
            [
                "No.", "bug", "SQED (s)", "SEPE-SQED (s)",
                "SQED len", "SEPE len", "runtime ratio", "length ratio",
            ]
        )
        for index, row in enumerate(self.rows, start=1):
            table.add_row(
                [
                    index,
                    row.bug.name,
                    f"{row.sqed.runtime_seconds:.2f}" if row.sqed.detected else "miss",
                    f"{row.sepe.runtime_seconds:.2f}" if row.sepe.detected else "miss",
                    row.sqed.counterexample_length or "-",
                    row.sepe.counterexample_length or "-",
                    f"{row.runtime_ratio:.2f}" if row.runtime_ratio else "-",
                    f"{row.length_ratio:.2f}" if row.length_ratio else "-",
                ]
            )
        return table.render()

    @property
    def both_detect_all(self) -> bool:
        return all(row.sepe.detected and row.sqed.detected for row in self.rows)


def run_figure4(config: Figure4Config | None = None) -> Figure4Result:
    """Run the multiple-instruction-bug comparison.

    Raises :class:`~repro.errors.UnknownBugError` when ``bug_names`` names
    a bug outside the Figure 4 set.
    """
    config = config or Figure4Config()
    bugs = select_bugs(multiple_instruction_bugs(), config.bug_names)
    isa = IsaConfig.small(xlen=config.xlen, num_regs=config.num_regs)
    equivalents_all = default_equivalent_programs(isa)

    result = Figure4Result()
    for bug in bugs:
        pool = pool_for_bug(bug, equivalents_all, extra_ops=bug.recommended_pool)
        proc_config = ProcessorConfig(isa=isa, supported_ops=pool)
        equivalents = {
            op: program for op, program in equivalents_all.items() if op in pool
        }
        sepe = SepeSqedFlow(
            proc_config,
            equivalents=equivalents,
            fifo_depth=config.fifo_depth,
            opt_level=config.opt_level,
        )
        sqed = SqedFlow(
            proc_config, fifo_depth=config.fifo_depth, opt_level=config.opt_level
        )
        sepe_outcome = sepe.run(bug, bound=config.bound)
        sqed_outcome = sqed.run(bug, bound=config.bound)
        result.rows.append(Figure4Row(bug=bug, sepe=sepe_outcome, sqed=sqed_outcome))
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run every Figure 4 bug")
    parser.add_argument("--bugs", nargs="*", default=None)
    parser.add_argument(
        "--opt-level",
        type=int,
        choices=(0, 1, 2),
        default=None,
        help="compilation pipeline level (default: $REPRO_OPT_LEVEL or 2)",
    )
    args = parser.parse_args()

    config = Figure4Config(bug_names=list(QUICK_BUGS), opt_level=args.opt_level)
    if args.full:
        config.bug_names = None
    if args.bugs:
        config.bug_names = args.bugs
    try:
        result = run_figure4(config)
    except UnknownBugError as exc:
        parser.error(str(exc))
    print(result.render())
    print(f"both methods detect every bug: {result.both_detect_all}")


if __name__ == "__main__":  # pragma: no cover
    main()
