"""Known-good equivalent programs and equivalence checking.

SEPE-SQED needs one semantically equivalent program per original
instruction.  They normally come out of HPF-CEGIS (:mod:`repro.synth.hpf`);
that path is exercised by the Figure 3 experiment, the examples and the
tests.  For the RTL experiments (Table 1, Figure 4) re-running synthesis for
every bug would dominate the runtime without adding information, so this
module also provides :func:`default_equivalent_programs`: a curated set of
equivalent programs built directly from the component library.  Every
program — synthesized or curated — can be checked against its specification
with :func:`verify_equivalence`, and the test suite does exactly that.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import QedError
from repro.isa.config import IsaConfig
from repro.smt import terms as T
from repro.solve.context import SolverContext
from repro.synth.components import ComponentLibrary, build_default_library
from repro.synth.program import ProgramSlot, SynthesizedProgram
from repro.synth.spec import spec_from_instruction
from repro.utils.bitops import mask


def verify_equivalence(program: SynthesizedProgram) -> bool:
    """Prove (by exhaustive bit-vector reasoning) that a program matches its spec."""
    spec = program.spec
    inputs = spec.fresh_input_terms(prefix="eqcheck")
    ctx = SolverContext()
    ctx.add(T.bv_ne(spec.output_term(inputs), program.output_term(inputs)))
    return not ctx.check().satisfiable


def _slot(library: ComponentLibrary, name: str, sources, attrs=()) -> ProgramSlot:
    return ProgramSlot(
        component=library.by_name(name),
        input_sources=tuple(sources),
        attributes=tuple(attrs),
    )


def _extra_nic(cfg: IsaConfig, mnemonic: str) -> "ProgramSlot.__class__":
    """A register-register component outside the default 29-component library.

    The curated MUL recipe needs a plain MUL building block; the synthesis
    library intentionally only carries multiply-by-constant (MUL.C), so we
    construct the component ad hoc here.
    """
    from repro.isa.instructions import get_instruction
    from repro.synth.components import Component, ComponentClass, ExpansionStep, OperandSource

    defn = get_instruction(mnemonic)

    def semantics(config, inputs, attrs):
        return defn.symbolic(config, inputs[0], inputs[1], T.bv_const(0, config.imm_width))

    return Component(
        name=f"{mnemonic}.X",
        component_class=ComponentClass.NIC,
        input_widths=(cfg.xlen, cfg.xlen),
        attribute_widths=(),
        semantics=semantics,
        expansion=(
            ExpansionStep(mnemonic, rs1=OperandSource("input", 0), rs2=OperandSource("input", 1)),
        ),
        base_instruction=mnemonic,
        description=f"{defn.description} (curated-recipe building block)",
    )


def default_equivalent_programs(
    cfg: IsaConfig,
    ops: Optional[Iterable[str]] = None,
) -> dict[str, SynthesizedProgram]:
    """Curated equivalent programs for (most of) the supported instructions.

    The programs deliberately avoid the data path of the instruction they
    replace wherever the component library allows it, which is what makes
    the single-instruction bugs of Table 1 observable.  ``MULHU`` and
    ``MULHSU`` have no entry (the library has no component covering them
    without using the same data path), matching the paper's point that CIC
    components are added exactly where needed.
    """
    library = build_default_library(cfg)
    imm_all_ones = mask(cfg.imm_width)
    zero_shift_up = cfg.xlen - cfg.imm_width
    zero_shift_down = max(0, cfg.xlen - cfg.imm_width - cfg.lui_shift)

    IN = "input"
    SL = "slot"

    recipes: dict[str, list[ProgramSlot]] = {
        # a + b  ==  a - (0 - b)
        "ADD": [
            _slot(library, "SUB", [(IN, 1), (IN, 1)]),
            _slot(library, "SUB", [(SL, 0), (IN, 1)]),
            _slot(library, "SUB", [(IN, 0), (SL, 1)]),
        ],
        # a - b  ==  ~(~a + b)
        "SUB": [
            _slot(library, "XORI.D", [(IN, 0)], [imm_all_ones]),
            _slot(library, "ADD", [(SL, 0), (IN, 1)]),
            _slot(library, "XORI.D", [(SL, 1)], [imm_all_ones]),
        ],
        # a ^ b  ==  (a | b) - (a & b)
        "XOR": [
            _slot(library, "OR", [(IN, 0), (IN, 1)]),
            _slot(library, "AND", [(IN, 0), (IN, 1)]),
            _slot(library, "SUB", [(SL, 0), (SL, 1)]),
        ],
        # a | b  ==  (a ^ b) + (a & b)
        "OR": [
            _slot(library, "XOR", [(IN, 0), (IN, 1)]),
            _slot(library, "AND", [(IN, 0), (IN, 1)]),
            _slot(library, "ADD", [(SL, 0), (SL, 1)]),
        ],
        # a & b  ==  (a | b) - (a ^ b)
        "AND": [
            _slot(library, "OR", [(IN, 0), (IN, 1)]),
            _slot(library, "XOR", [(IN, 0), (IN, 1)]),
            _slot(library, "SUB", [(SL, 0), (SL, 1)]),
        ],
        # signed compare via sign-flipped unsigned compare (CIC)
        "SLT": [
            _slot(library, "SLT.C", [(IN, 0), (IN, 1)]),
        ],
        # a <u b  ==  signed compare after flipping the sign bits (when the
        # sign bit fits an immediate), otherwise via ~b <u ~a.
        "SLTU": (
            [
                _slot(library, "XORI.D", [(IN, 0)], [1 << (cfg.imm_width - 1)]),
                _slot(library, "XORI.D", [(IN, 1)], [1 << (cfg.imm_width - 1)]),
                _slot(library, "SLT", [(SL, 0), (SL, 1)]),
            ]
            if cfg.imm_width == cfg.xlen
            else [
                _slot(library, "XORI.D", [(IN, 0)], [imm_all_ones]),
                _slot(library, "XORI.D", [(IN, 1)], [imm_all_ones]),
                _slot(library, "SLTU", [(SL, 1), (SL, 0)]),
            ]
        ),
        # a >>s b  ==  ~(~a >>s b)
        "SRA": [
            _slot(library, "XORI.D", [(IN, 0)], [imm_all_ones]),
            _slot(library, "SRA", [(SL, 0), (IN, 1)]),
            _slot(library, "XORI.D", [(SL, 1)], [imm_all_ones]),
        ],
        # copy the operand, then shift (structurally different from SRL alone)
        "SRL": [
            _slot(library, "ADDI.D", [(IN, 1)], [0]),
            _slot(library, "SRL", [(IN, 0), (SL, 0)]),
        ],
        "SLL": [
            _slot(library, "ADDI.D", [(IN, 1)], [0]),
            _slot(library, "SLL", [(IN, 0), (SL, 0)]),
        ],
        "MUL": [
            _slot(library, "ADDI.D", [(IN, 0)], [0]),
            ProgramSlot(
                component=_extra_nic(cfg, "MUL"),
                input_sources=((SL, 0), (IN, 1)),
                attributes=(),
            ),
        ],
        # signed multiply-high from MULHU with sign corrections (CIC)
        "MULH": [
            _slot(library, "MULH.C", [(IN, 0), (IN, 1)]),
        ],
        # a + sext(imm): materialise sext(imm) in a register, then ADD
        "ADDI": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "ADD", [(IN, 0), (SL, 1)]),
        ],
        # a ^ sext(imm) == (a | sext(imm)) - (a & sext(imm))
        "XORI": [
            _slot(library, "ORI.C", [(IN, 0), (IN, 1)]),
            _slot(library, "ANDI.C", [(IN, 0), (IN, 1)]),
            _slot(library, "SUB", [(SL, 0), (SL, 1)]),
        ],
        # a | sext(imm) == (a ^ sext(imm)) + (a & sext(imm))
        "ORI": [
            _slot(library, "XORI.C", [(IN, 0), (IN, 1)]),
            _slot(library, "ANDI.C", [(IN, 0), (IN, 1)]),
            _slot(library, "ADD", [(SL, 0), (SL, 1)]),
        ],
        # a & sext(imm) == (a | sext(imm)) - (a ^ sext(imm))
        "ANDI": [
            _slot(library, "ORI.C", [(IN, 0), (IN, 1)]),
            _slot(library, "XORI.C", [(IN, 0), (IN, 1)]),
            _slot(library, "SUB", [(SL, 0), (SL, 1)]),
        ],
        "SLTI": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "SLT", [(IN, 0), (SL, 1)]),
        ],
        "SLTIU": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "SLTU", [(IN, 0), (SL, 1)]),
        ],
        # materialise the shift amount, then use the register-shift form
        "SLLI": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "SLL", [(IN, 0), (SL, 1)]),
        ],
        "SRLI": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "SRL", [(IN, 0), (SL, 1)]),
        ],
        "SRAI": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "SRA", [(IN, 0), (SL, 1)]),
        ],
        # zext(imm) << lui_shift, built without using LUI's own data path
        # for the dynamic part: sext(imm) << (xlen-imm_width) >>u correction.
        "LUI": [
            _slot(library, "CONST.C", [], [0, 0]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 0)]),
            _slot(library, "SLLI.D", [(SL, 1)], [zero_shift_up]),
            _slot(library, "SRLI.D", [(SL, 2)], [zero_shift_down]),
        ],
        # effective address rs1 + sext(imm), computed without LW/SW
        "LW": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 1)]),
            _slot(library, "ADD", [(IN, 0), (SL, 1)]),
        ],
        "SW": [
            _slot(library, "SUB", [(IN, 0), (IN, 0)]),
            _slot(library, "ADDI.C", [(SL, 0), (IN, 2)]),
            _slot(library, "ADD", [(IN, 0), (SL, 1)]),
        ],
    }

    requested = list(ops) if ops is not None else list(recipes)
    programs: dict[str, SynthesizedProgram] = {}
    for op in requested:
        if op not in recipes:
            raise QedError(f"no curated equivalent program for {op!r}")
        spec = spec_from_instruction(op, cfg)
        programs[op] = SynthesizedProgram(spec, recipes[op])
    return programs
