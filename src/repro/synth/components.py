"""Component library for component-based CEGIS.

A component is a small, loop-free building block with typed inputs, optional
*internal attributes* (constants the synthesizer is free to choose, e.g. the
immediate of a derived ADDI) and a single output.  A component is defined by
its expansion into real instructions alone: the EDSEP-V transformation
dispatches that sequence into the DUV, and the CEGIS queries reason about
the same sequence run through the ISA's symbolic semantics, so the program
CEGIS proves equivalent is, by construction, the program the DUV runs.

The three classes follow Section 4.1 of the paper:

* **NIC** — native instruction class: the component is one register-register
  instruction.
* **DIC** — derived instruction class: an immediate-type instruction whose
  immediate operand is an internal attribute.
* **CIC** — composite instruction class: a fixed sequence of instructions
  (possibly with attributes) exposed as a single component, used to cover
  semantics that are hard to reach otherwise (the paper's example is
  multiplication by a constant).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SynthesisError
from repro.isa.config import IsaConfig
from repro.isa.instructions import get_instruction
from repro.smt import terms as T
from repro.smt.terms import BV


class ComponentClass(enum.Enum):
    """The three component classes of Section 4.1."""

    NIC = "NIC"
    DIC = "DIC"
    CIC = "CIC"


@dataclass(frozen=True)
class OperandSource:
    """Where an expanded instruction operand comes from.

    ``kind`` is one of:

    * ``"input"`` — the k-th component input,
    * ``"temp"`` — the output of the k-th earlier instruction in the
      component's own expansion,
    * ``"attr"`` — the k-th internal attribute (used for immediates),
    * ``"const"`` — a fixed constant (``index`` holds the value),
    * ``"zero"`` — the hard-wired zero register.
    """

    kind: str
    index: int = 0


@dataclass(frozen=True)
class ExpansionStep:
    """One instruction of a component's expansion into real instructions."""

    mnemonic: str
    rs1: OperandSource | None = None
    rs2: OperandSource | None = None
    imm: OperandSource | None = None


@dataclass(frozen=True)
class Component:
    """A synthesis component (NIC / DIC / CIC).

    Attributes:
        name: unique component name; for NIC/DIC this equals the mnemonic of
            the underlying instruction, which is what the HPF priority
            function compares against the original instruction's name.
        component_class: NIC, DIC or CIC.
        input_widths: widths of the formal inputs (register inputs use
            ``xlen``; dynamic-immediate inputs use the immediate width).
        attribute_widths: widths of the internal attributes.
        expansion: instruction sequence this component expands to in the
            EDSEP-V transformation; the output of the last step is the
            component's output, and the sequence is also its semantics.
        base_instruction: mnemonic whose data path this component primarily
            exercises (used for the name-overlap penalty χ).
        immediate_inputs: indices of inputs that are immediate operands; the
            well-formedness constraint only lets these connect to the
            specification's immediate input (never to register values).
    """

    name: str
    component_class: ComponentClass
    input_widths: tuple[int, ...]
    attribute_widths: tuple[int, ...]
    expansion: tuple[ExpansionStep, ...]
    base_instruction: str
    description: str = ""
    immediate_inputs: tuple[int, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.input_widths)

    @property
    def num_attributes(self) -> int:
        return len(self.attribute_widths)

    def output_term(
        self, cfg: IsaConfig, inputs: Sequence[BV], attrs: Sequence[BV]
    ) -> BV:
        """Symbolic output of the component for the given operand terms.

        Runs :attr:`expansion` step by step through each instruction's
        symbolic semantics.  An absent register operand reads zero and an
        absent immediate is zero; a ``const`` immediate is truncated to
        ``imm_width``, as the EDSEP-V transformation and the executor do.
        """
        if len(inputs) != self.arity:
            raise SynthesisError(
                f"component {self.name}: expected {self.arity} inputs, got {len(inputs)}"
            )
        if len(attrs) != self.num_attributes:
            raise SynthesisError(
                f"component {self.name}: expected {self.num_attributes} attributes, "
                f"got {len(attrs)}"
            )
        zero_reg = T.bv_const(0, cfg.xlen)
        zero_imm = T.bv_const(0, cfg.imm_width)
        temps: list[BV] = []

        def operand(source: OperandSource | None, absent: BV) -> BV:
            if source is None:
                return absent
            if source.kind == "input":
                return inputs[source.index]
            if source.kind == "temp":
                return temps[source.index]
            if source.kind == "attr":
                return attrs[source.index]
            if source.kind == "const":
                return T.bv_const(source.index, cfg.imm_width)
            if source.kind == "zero":
                return zero_reg
            raise SynthesisError(f"unknown operand source {source.kind!r}")

        for step in self.expansion:
            temps.append(
                get_instruction(step.mnemonic).symbolic(
                    cfg,
                    operand(step.rs1, zero_reg),
                    operand(step.rs2, zero_reg),
                    operand(step.imm, zero_imm),
                )
            )
        return temps[-1]

    def __str__(self) -> str:
        return f"{self.name}({self.component_class.value})"


class ComponentLibrary:
    """An ordered collection of uniquely named components."""

    def __init__(self, cfg: IsaConfig, components: Sequence[Component] = ()):
        self.cfg = cfg
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        for comp in components:
            self.add(comp)

    def add(self, component: Component) -> None:
        if component.name in self._by_name:
            raise SynthesisError(f"duplicate component name {component.name!r}")
        self._by_name[component.name] = component
        self._components.append(component)

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self):
        return iter(self._components)

    def __getitem__(self, index: int) -> Component:
        return self._components[index]

    def by_name(self, name: str) -> Component:
        comp = self._by_name.get(name)
        if comp is None:
            raise SynthesisError(f"no component named {name!r}")
        return comp

    def names(self) -> list[str]:
        return [c.name for c in self._components]

    def of_class(self, component_class: ComponentClass) -> list[Component]:
        return [c for c in self._components if c.component_class == component_class]


# ----------------------------------------------------------------------------
# Library construction
# ----------------------------------------------------------------------------


def build_default_library(cfg: IsaConfig) -> ComponentLibrary:
    """The 29-component library used in the paper's evaluation.

    10 NIC + 10 DIC + 9 CIC, collectively covering the RV32IM instruction
    classes exercised by the experiments.
    """
    xlen = cfg.xlen
    imm_w = cfg.imm_width
    components: list[Component] = []

    # --- 10 NIC: register-register instructions --------------------------
    nic_names = ["ADD", "SUB", "SLL", "SRL", "SRA", "AND", "OR", "XOR", "SLT", "SLTU"]
    for name in nic_names:
        components.append(
            Component(
                name=name,
                component_class=ComponentClass.NIC,
                input_widths=(xlen, xlen),
                attribute_widths=(),
                expansion=(
                    ExpansionStep(
                        name,
                        rs1=OperandSource("input", 0),
                        rs2=OperandSource("input", 1),
                    ),
                ),
                base_instruction=name,
                description=get_instruction(name).description,
            )
        )

    # --- 10 DIC: immediate instructions with the immediate as attribute --
    dic_names = [
        "ADDI", "XORI", "ORI", "ANDI", "SLTI", "SLTIU", "SLLI", "SRLI", "SRAI", "LUI",
    ]
    for name in dic_names:
        defn = get_instruction(name)
        input_widths = (xlen,) if defn.uses_rs1 else ()
        expansion_rs1 = OperandSource("input", 0) if defn.uses_rs1 else None
        components.append(
            Component(
                name=f"{name}.D",
                component_class=ComponentClass.DIC,
                input_widths=input_widths,
                attribute_widths=(imm_w,),
                expansion=(
                    ExpansionStep(
                        name, rs1=expansion_rs1, imm=OperandSource("attr", 0)
                    ),
                ),
                base_instruction=name,
                description=f"{defn.description} (immediate chosen by the synthesizer)",
            )
        )

    # --- 9 CIC: composite / dynamic-immediate components -----------------
    components.extend(_build_cic_components(cfg))

    library = ComponentLibrary(cfg, components)
    return library


def _build_cic_components(cfg: IsaConfig) -> list[Component]:
    xlen = cfg.xlen
    imm_w = cfg.imm_width
    shift_msb = xlen - 1

    # SLT.C flips the sign bit of both operands and compares unsigned.  The
    # sign-bit constant is an XORI immediate when it fits one; otherwise it
    # is built as 1 << (xlen - 1) from immediates that fit (LUI's immediate
    # cannot hold it at RV32's 12-bit immediate and shift).
    if imm_w == xlen:
        slt_expansion = (
            ExpansionStep("XORI", rs1=OperandSource("input", 0), imm=OperandSource("const", 1 << (xlen - 1))),
            ExpansionStep("XORI", rs1=OperandSource("input", 1), imm=OperandSource("const", 1 << (xlen - 1))),
            ExpansionStep("SLTU", rs1=OperandSource("temp", 0), rs2=OperandSource("temp", 1)),
        )
    else:
        slt_expansion = (
            ExpansionStep("ADDI", rs1=OperandSource("zero"), imm=OperandSource("const", 1)),
            ExpansionStep("SLLI", rs1=OperandSource("temp", 0), imm=OperandSource("const", shift_msb)),
            ExpansionStep("XOR", rs1=OperandSource("input", 0), rs2=OperandSource("temp", 1)),
            ExpansionStep("XOR", rs1=OperandSource("input", 1), rs2=OperandSource("temp", 1)),
            ExpansionStep("SLTU", rs1=OperandSource("temp", 2), rs2=OperandSource("temp", 3)),
        )

    return [
        Component(
            name="ADDI.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, imm_w),
            attribute_widths=(),
            expansion=(
                ExpansionStep(
                    "ADDI", rs1=OperandSource("input", 0), imm=OperandSource("input", 1)
                ),
            ),
            base_instruction="ADDI",
            description="ADDI with a dynamic immediate input (first form)",
            immediate_inputs=(1,),
        ),
        Component(
            name="XORI.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, imm_w),
            attribute_widths=(),
            expansion=(
                ExpansionStep(
                    "XORI", rs1=OperandSource("input", 0), imm=OperandSource("input", 1)
                ),
            ),
            base_instruction="XORI",
            description="XORI with a dynamic immediate input (first form)",
            immediate_inputs=(1,),
        ),
        Component(
            name="ORI.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, imm_w),
            attribute_widths=(),
            expansion=(
                ExpansionStep(
                    "ORI", rs1=OperandSource("input", 0), imm=OperandSource("input", 1)
                ),
            ),
            base_instruction="ORI",
            description="ORI with a dynamic immediate input (first form)",
            immediate_inputs=(1,),
        ),
        Component(
            name="ANDI.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, imm_w),
            attribute_widths=(),
            expansion=(
                ExpansionStep(
                    "ANDI", rs1=OperandSource("input", 0), imm=OperandSource("input", 1)
                ),
            ),
            base_instruction="ANDI",
            description="ANDI with a dynamic immediate input (first form)",
            immediate_inputs=(1,),
        ),
        Component(
            name="MUL.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen,),
            attribute_widths=(imm_w,),
            expansion=(
                ExpansionStep("ADDI", rs1=OperandSource("zero"), imm=OperandSource("attr", 0)),
                ExpansionStep("MUL", rs1=OperandSource("input", 0), rs2=OperandSource("temp", 0)),
            ),
            base_instruction="MUL",
            description="Multiply by a synthesizer-chosen constant (ADDI; MUL)",
        ),
        Component(
            name="MULH.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, xlen),
            attribute_widths=(),
            expansion=(
                ExpansionStep("MULHU", rs1=OperandSource("input", 0), rs2=OperandSource("input", 1)),
                ExpansionStep("SRAI", rs1=OperandSource("input", 0), imm=OperandSource("const", shift_msb)),
                ExpansionStep("AND", rs1=OperandSource("temp", 1), rs2=OperandSource("input", 1)),
                ExpansionStep("SUB", rs1=OperandSource("temp", 0), rs2=OperandSource("temp", 2)),
                ExpansionStep("SRAI", rs1=OperandSource("input", 1), imm=OperandSource("const", shift_msb)),
                ExpansionStep("AND", rs1=OperandSource("temp", 4), rs2=OperandSource("input", 0)),
                ExpansionStep("SUB", rs1=OperandSource("temp", 3), rs2=OperandSource("temp", 5)),
            ),
            base_instruction="MULHU",
            description="Signed multiply-high from MULHU plus sign corrections",
        ),
        Component(
            name="MULHSU.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, xlen),
            attribute_widths=(),
            expansion=(
                ExpansionStep("MULHU", rs1=OperandSource("input", 0), rs2=OperandSource("input", 1)),
                ExpansionStep("SRAI", rs1=OperandSource("input", 0), imm=OperandSource("const", shift_msb)),
                ExpansionStep("AND", rs1=OperandSource("temp", 1), rs2=OperandSource("input", 1)),
                ExpansionStep("SUB", rs1=OperandSource("temp", 0), rs2=OperandSource("temp", 2)),
            ),
            base_instruction="MULHU",
            description="Signed-unsigned multiply-high from MULHU plus one sign correction",
        ),
        Component(
            name="SLT.C",
            component_class=ComponentClass.CIC,
            input_widths=(xlen, xlen),
            attribute_widths=(),
            expansion=slt_expansion,
            base_instruction="SLTU",
            description="Signed compare built from an unsigned compare with sign-bit flips",
        ),
        Component(
            name="CONST.C",
            component_class=ComponentClass.CIC,
            input_widths=(),
            attribute_widths=(imm_w, imm_w),
            expansion=(
                ExpansionStep("LUI", imm=OperandSource("attr", 0)),
                ExpansionStep("ADDI", rs1=OperandSource("temp", 0), imm=OperandSource("attr", 1)),
            ),
            base_instruction="LUI",
            description="Arbitrary constant materialisation (LUI; ADDI)",
        ),
    ]
