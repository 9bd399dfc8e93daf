"""Figure 3 — synthesis time: HPF-CEGIS vs. iterative CEGIS.

The paper synthesizes equivalent programs for 26 cases with a library of 29
components and reports the per-case time of HPF-CEGIS against the shuffled
iterative CEGIS baseline, observing an average ~50% reduction (up to 90% in
some cases).  This harness runs both algorithms over a configurable set of
cases and prints the per-case times plus the aggregate reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.config import IsaConfig
from repro.synth.cegis import CegisConfig
from repro.synth.components import build_default_library
from repro.synth.hpf import HpfCegis
from repro.synth.iterative import IterativeCegis
from repro.synth.search import SynthesisRun
from repro.synth.spec import spec_from_instruction, synthesis_case_names
from repro.utils.tables import TextTable

#: Default case list: all 26 supported instructions, as in the paper.
ALL_CASES = synthesis_case_names()

#: The default case list, which the CLI runs unless given --full or --cases.
QUICK_CASES = ["ADD", "SLT"]

XLEN = 8
NUM_REGS = 8
MULTISET_SIZE = 3
SHUFFLE_SEED = 2024
MAX_CEGIS_ITERATIONS = 12


@dataclass
class Figure3Config:
    """What a Figure 3 run varies: the cases, the programs to find per case
    and the multiset budget.

    The rest of the setup is the module constants above; the encoder level
    is the process default (``$REPRO_OPT_LEVEL``, see
    :mod:`repro.solve.pipeline`).
    """

    cases: list[str] = field(default_factory=lambda: list(QUICK_CASES))
    target_programs: int = 2
    max_multisets: Optional[int] = 60


@dataclass
class Figure3Result:
    """Per-case synthesis times for both algorithms."""

    hpf: dict[str, SynthesisRun]
    iterative: dict[str, SynthesisRun]

    def reduction_percent(self) -> float:
        """Average per-case reduction of HPF vs iterative (positive = faster)."""
        reductions = []
        for name, hpf_run in self.hpf.items():
            base = self.iterative[name].elapsed_seconds
            if base > 0:
                reductions.append(100.0 * (base - hpf_run.elapsed_seconds) / base)
        return sum(reductions) / len(reductions) if reductions else 0.0

    def render(self) -> str:
        table = TextTable(
            ["case", "HPF-CEGIS (s)", "iterative CEGIS (s)", "HPF programs", "iter programs", "reduction"]
        )
        for name in self.hpf:
            hpf_run = self.hpf[name]
            it_run = self.iterative[name]
            base = it_run.elapsed_seconds
            reduction = "-" if base == 0 else f"{100.0 * (base - hpf_run.elapsed_seconds) / base:.0f}%"
            table.add_row(
                [
                    name,
                    f"{hpf_run.elapsed_seconds:.2f}",
                    f"{it_run.elapsed_seconds:.2f}",
                    len(hpf_run.programs),
                    len(it_run.programs),
                    reduction,
                ]
            )
        lines = [table.render()]
        lines.append(f"average reduction: {self.reduction_percent():.0f}% (paper reports ~50%)")
        return "\n".join(lines)


def run_figure3(config: Figure3Config | None = None) -> Figure3Result:
    """Run the HPF vs iterative comparison and return the per-case runs.

    Each algorithm runs every case on one shared engine, so HPF's priority
    weights carry over from case to case, as in Algorithm 1.
    """
    config = config or Figure3Config()
    isa = IsaConfig.small(xlen=XLEN, num_regs=NUM_REGS)
    library = build_default_library(isa)
    cegis_cfg = CegisConfig(max_iterations=MAX_CEGIS_ITERATIONS)

    hpf = HpfCegis(
        library,
        multiset_size=MULTISET_SIZE,
        target_programs=config.target_programs,
        cegis_config=cegis_cfg,
        max_multisets=config.max_multisets,
    )
    iterative = IterativeCegis(
        library,
        multiset_size=MULTISET_SIZE,
        target_programs=config.target_programs,
        cegis_config=cegis_cfg,
        shuffle_seed=SHUFFLE_SEED,
        max_multisets=config.max_multisets,
    )
    specs = [spec_from_instruction(name, isa) for name in config.cases]
    return Figure3Result(
        hpf=hpf.synthesize_all(specs),
        iterative=iterative.synthesize_all(specs),
    )


def main() -> None:  # pragma: no cover - CLI entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run all 26 cases")
    parser.add_argument("--cases", nargs="*", default=None, help="explicit case list")
    parser.add_argument("--max-multisets", type=int, default=60)
    args = parser.parse_args()

    config = Figure3Config(max_multisets=args.max_multisets)
    if args.full:
        config.cases = list(ALL_CASES)
    if args.cases:
        config.cases = [c.upper() for c in args.cases]
    result = run_figure3(config)
    print(result.render())


if __name__ == "__main__":  # pragma: no cover
    main()
