"""The SQED and SEPE-SQED verification drivers."""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Optional

from repro.bmc.engine import BmcEngine
from repro.bmc.kinduction import KInductionEngine
from repro.core.results import ProofOutcome, VerificationOutcome
from repro.errors import VerificationError
from repro.pdr.engine import PdrEngine
from repro.isa.instructions import get_instruction
from repro.proc.bugs import Bug
from repro.proc.config import ProcessorConfig
from repro.qed.equivalents import default_equivalent_programs
from repro.qed.mapping import MemoryPartition, RegisterPartition
from repro.qed.module import QedVerificationModel, build_verification_model
from repro.qed.scheme import EddivScheme, EdsepvScheme
from repro.synth.program import SynthesizedProgram


def pool_for_bug(
    bug: Bug,
    equivalents: Optional[Mapping[str, SynthesizedProgram]] = None,
    extra_ops: Iterable[str] = (),
) -> tuple[str, ...]:
    """A compact instruction pool that can trigger and expose ``bug``.

    The pool contains the bug's target opcodes, any opcodes it recommends
    (e.g. the producer of a forwarding hazard), and — when equivalent
    programs are supplied — every opcode those programs expand to, so the
    EDSEP-V transformation stays inside the DUV's supported set.
    """
    pool: list[str] = []

    def add(op: str) -> None:
        op = op.upper()
        if op not in pool:
            pool.append(op)

    for op in bug.target_ops:
        add(op)
    for op in bug.recommended_pool:
        add(op)
    for op in extra_ops:
        add(op)
    if equivalents is not None:
        for target in list(bug.target_ops) + list(extra_ops):
            program = equivalents.get(target.upper())
            if program is None:
                continue
            for template in program.expand():
                add(template.mnemonic)
            defn = get_instruction(target)
            if defn.is_load or defn.is_store:
                add("SW" if defn.is_store else "LW")
    return tuple(pool)


class _BaseFlow:
    """Shared machinery of the two flows."""

    method = "base"

    def __init__(self, config: ProcessorConfig, fifo_depth: int = 2):
        self.config = config
        self.fifo_depth = fifo_depth

    def build_model(self, bug: Optional[Bug] = None) -> QedVerificationModel:
        raise NotImplementedError

    def run(
        self,
        bug: Optional[Bug] = None,
        bound: int = 12,
        conflict_budget: Optional[int] = None,
    ) -> VerificationOutcome:
        """Build the verification model, run BMC and summarise the outcome.

        ``conflict_budget`` caps the conflicts of the whole run, summed over
        its frames.
        """
        start = time.perf_counter()
        model = self.build_model(bug)
        engine = BmcEngine(model.ts)
        result = engine.check(
            model.property_name, bound=bound, conflict_budget=conflict_budget
        )
        elapsed = time.perf_counter() - start
        detected: Optional[bool]
        if result.holds is None:
            detected = None
        else:
            detected = not result.holds
        return VerificationOutcome(
            method=self.method,
            bug_name=None if bug is None else bug.name,
            detected=detected,
            runtime_seconds=elapsed,
            bound=bound,
            counterexample_length=result.counterexample_length,
            bmc_result=result,
            model=model,
        )

    #: Engines accepted by :meth:`prove`.
    PROVE_ENGINES = ("pdr", "kinduction")

    def prove(
        self,
        bug: Optional[Bug] = None,
        engine: str = "pdr",
        max_k: int = 4,
        max_frames: int = 20,
        conflict_budget: Optional[int] = None,
        total_conflict_budget: Optional[int] = None,
    ) -> ProofOutcome:
        """Attempt an *unbounded* proof of the QED consistency property.

        Unlike :meth:`run`, which only searches for counterexamples up to a
        bound, a ``True`` outcome here means the property holds at **every**
        depth.  ``engine`` selects the prover: ``"pdr"`` (IC3/PDR, emits an
        inductive invariant via ``pdr_result.invariant``) or
        ``"kinduction"``.  ``max_frames`` bounds PDR's frame exploration,
        ``max_k`` bounds the induction depth, and ``conflict_budget`` caps
        each SAT query; exhausting any of them yields ``proven=None``.
        ``total_conflict_budget`` (PDR only) caps the whole run's
        cumulative effort — the knob campaign drivers use to keep
        obligation storms on buggy models from running away.

        The returned outcome carries the verification ``model`` the engine
        ran on: re-check a PDR invariant against ``outcome.model.ts`` (a
        fresh ``build_model`` call mints new symbol names, so the check
        must use this exact system).
        """
        if engine not in self.PROVE_ENGINES:
            raise VerificationError(
                f"unknown proof engine {engine!r}; expected one of {self.PROVE_ENGINES}"
            )
        start = time.perf_counter()
        model = self.build_model(bug)
        bug_name = None if bug is None else bug.name
        if engine == "pdr":
            pdr = PdrEngine(model.ts, max_frames=max_frames).prove(
                model.property_name,
                conflict_budget=conflict_budget,
                total_conflict_budget=total_conflict_budget,
            )
            return ProofOutcome(
                method=self.method,
                bug_name=bug_name,
                engine=engine,
                proven=pdr.proven,
                runtime_seconds=time.perf_counter() - start,
                depth=pdr.frames_explored,
                pdr_result=pdr,
                model=model,
            )
        kind = KInductionEngine(model.ts).prove(
            model.property_name, max_k=max_k, conflict_budget=conflict_budget
        )
        return ProofOutcome(
            method=self.method,
            bug_name=bug_name,
            engine=engine,
            proven=kind.proven,
            runtime_seconds=time.perf_counter() - start,
            depth=kind.k,
            kinduction_result=kind,
            model=model,
        )


class SqedFlow(_BaseFlow):
    """Classic SQED: EDDI-V duplication plus the self-consistency property."""

    method = "SQED"

    def build_model(self, bug: Optional[Bug] = None) -> QedVerificationModel:
        isa = self.config.isa
        partition = RegisterPartition.eddiv(isa.num_regs)
        memory = MemoryPartition(isa.mem_words)
        scheme = EddivScheme(partition, memory)
        return build_verification_model(
            self.config, scheme, bug=bug, fifo_depth=self.fifo_depth
        )


class SepeSqedFlow(_BaseFlow):
    """SEPE-SQED: EDSEP-V transformation with semantically equivalent programs."""

    method = "SEPE-SQED"

    def __init__(
        self,
        config: ProcessorConfig,
        equivalents: Optional[Mapping[str, SynthesizedProgram]] = None,
        fifo_depth: int = 2,
    ):
        super().__init__(config, fifo_depth=fifo_depth)
        if equivalents is None:
            available = default_equivalent_programs(config.isa)
            equivalents = {
                op: program
                for op, program in available.items()
                if op in config.supported_ops
            }
        if not equivalents:
            raise VerificationError(
                "SEPE-SQED needs at least one equivalent program for the pool"
            )
        self.equivalents = dict(equivalents)

    def build_model(self, bug: Optional[Bug] = None) -> QedVerificationModel:
        isa = self.config.isa
        partition = RegisterPartition.edsepv(isa.num_regs)
        memory = MemoryPartition(isa.mem_words)
        scheme = EdsepvScheme(partition, memory, self.equivalents)
        return build_verification_model(
            self.config, scheme, bug=bug, fifo_depth=self.fifo_depth
        )
