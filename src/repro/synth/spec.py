"""Synthesis specifications built from original instructions.

A :class:`SynthesisSpec` is the φ_spec of formula (2): it fixes the program
inputs (register operands and, for immediate-type instructions, the
immediate itself, which stays universally quantified) and provides the
symbolic output the synthesized program must match for *every* input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SynthesisError
from repro.isa.config import IsaConfig
from repro.isa.instructions import get_instruction, instruction_names
from repro.smt import terms as T
from repro.smt.terms import BV


@dataclass(frozen=True)
class SpecInput:
    """One universally quantified program input of a specification."""

    name: str
    width: int
    is_immediate: bool = False


@dataclass(frozen=True)
class SynthesisSpec:
    """The specification an equivalent program must satisfy.

    Attributes:
        name: name of the original instruction ``g`` (used by the
            "not identical to itself" constraint and the HPF priority).
        inputs: the program inputs (registers first, then the immediate when
            the original instruction has one).
        output_width: width of the program output (always XLEN here).
        formula: builds the specification output term from input terms.
    """

    name: str
    inputs: tuple[SpecInput, ...]
    output_width: int
    formula: Callable[[IsaConfig, Sequence[BV]], BV]
    config: IsaConfig

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def output_term(self, input_terms: Sequence[BV]) -> BV:
        """Symbolic specification output for the given input terms."""
        if len(input_terms) != self.arity:
            raise SynthesisError(
                f"spec {self.name}: expected {self.arity} inputs, got {len(input_terms)}"
            )
        for term, spec_input in zip(input_terms, self.inputs):
            if term.width != spec_input.width:
                raise SynthesisError(
                    f"spec {self.name}: input {spec_input.name} expects width "
                    f"{spec_input.width}, got {term.width}"
                )
        return self.formula(self.config, input_terms)

    def fresh_input_terms(self, prefix: str = "spec") -> list[BV]:
        """Fresh variables matching the spec inputs (used by verification)."""
        return [
            T.fresh_var(f"{prefix}_{self.name}_{inp.name}", inp.width)
            for inp in self.inputs
        ]


def spec_from_instruction(name: str, cfg: IsaConfig) -> SynthesisSpec:
    """Build the specification for original instruction ``name``.

    Register source operands and the immediate (if any) become program
    inputs.  The output is the value the instruction writes to ``rd`` — for
    stores and loads, the effective address (see :mod:`repro.isa.instructions`).
    """
    defn = get_instruction(name)
    inputs: list[SpecInput] = []
    if defn.uses_rs1:
        inputs.append(SpecInput("rs1", cfg.xlen))
    if defn.uses_rs2:
        inputs.append(SpecInput("rs2", cfg.xlen))
    if defn.uses_imm:
        inputs.append(SpecInput("imm", cfg.imm_width, is_immediate=True))
    if not inputs:
        raise SynthesisError(f"instruction {name} has no operands to synthesize over")

    def formula(config: IsaConfig, terms: Sequence[BV]) -> BV:
        index = 0
        rs1 = T.bv_const(0, config.xlen)
        rs2 = T.bv_const(0, config.xlen)
        imm = T.bv_const(0, config.imm_width)
        if defn.uses_rs1:
            rs1 = terms[index]
            index += 1
        if defn.uses_rs2:
            rs2 = terms[index]
            index += 1
        if defn.uses_imm:
            imm = terms[index]
            index += 1
        return defn.symbolic(config, rs1, rs2, imm)

    return SynthesisSpec(
        name=defn.name,
        inputs=tuple(inputs),
        output_width=cfg.xlen,
        formula=formula,
        config=cfg,
    )


def synthesis_case_names() -> list[str]:
    """The instruction cases used for the Figure 3 synthesis comparison.

    Every supported instruction is a case (26 in total), mirroring the 26
    cases of the paper's Figure 3.
    """
    return instruction_names()
