"""Instruction catalog with concrete and symbolic semantics.

Each supported instruction is described by an :class:`InstructionDef` that
bundles:

* its assembly format (which operands it reads/writes),
* concrete semantics — a pure function on Python integers, used by the
  instruction-set simulator and for fast cross-checking,
* symbolic semantics — the same function expressed over
  :class:`repro.smt.terms.BV` terms, used by the CEGIS synthesizer and the
  symbolic processor models.

The "result" of an instruction is the value written to ``rd`` for ALU /
multiply / LUI instructions.  For loads and stores the result is the
*effective address*; the memory side effect is handled by the executor and
by the processor models.  This convention is what the synthesis
specifications use; Table 1's SW entry relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import IsaError
from repro.isa.config import IsaConfig
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.utils.bitops import mask, sext, to_signed

# ----------------------------------------------------------------------------
# Instruction instances (an opcode plus operand fields)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Instruction:
    """A single instruction instance: mnemonic plus operand fields.

    Unused operand fields are ``None``.  ``imm`` is stored as a plain Python
    integer in the *unsigned* representation of the configured immediate
    width (sign extension happens in the semantics).
    """

    name: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None

    def __str__(self) -> str:
        from repro.isa.assembler import format_instruction

        return format_instruction(self)


# ----------------------------------------------------------------------------
# Instruction definitions
# ----------------------------------------------------------------------------

ConcreteFn = Callable[[IsaConfig, int, int, int], int]
SymbolicFn = Callable[[IsaConfig, BV, BV, BV], BV]


@dataclass(frozen=True)
class InstructionDef:
    """Static description of one opcode of the supported RV32IM subset."""

    name: str
    fmt: str  # one of "R", "I", "S", "U"
    uses_rs1: bool
    uses_rs2: bool
    uses_imm: bool
    writes_rd: bool
    is_load: bool
    is_store: bool
    concrete: ConcreteFn
    symbolic: SymbolicFn
    description: str = ""


# ---------------------------------------------------------------- helpers


def _imm_sext(cfg: IsaConfig, imm: int) -> int:
    return sext(imm, cfg.imm_width, cfg.xlen)


def _imm_sext_sym(cfg: IsaConfig, imm: BV) -> BV:
    return T.bv_sext(imm, cfg.xlen)


def _shamt(cfg: IsaConfig, value: int) -> int:
    return value & (cfg.xlen - 1)


def _shamt_sym(cfg: IsaConfig, value: BV) -> BV:
    return T.bv_zext(T.bv_extract(value, cfg.shamt_width - 1, 0), cfg.xlen)


def _bool_to_xlen(cfg: IsaConfig, cond: BV) -> BV:
    return T.bv_zext(cond, cfg.xlen)


def _mulh_signed(cfg: IsaConfig, a: int, b: int) -> int:
    product = to_signed(a, cfg.xlen) * to_signed(b, cfg.xlen)
    return (product >> cfg.xlen) & mask(cfg.xlen)


def _mulh_unsigned(cfg: IsaConfig, a: int, b: int) -> int:
    return ((a * b) >> cfg.xlen) & mask(cfg.xlen)


def _mulh_su(cfg: IsaConfig, a: int, b: int) -> int:
    product = to_signed(a, cfg.xlen) * b
    return (product >> cfg.xlen) & mask(cfg.xlen)


def _mulh_sym(cfg: IsaConfig, a: BV, b: BV, a_signed: bool, b_signed: bool) -> BV:
    double = 2 * cfg.xlen
    wide_a = T.bv_sext(a, double) if a_signed else T.bv_zext(a, double)
    wide_b = T.bv_sext(b, double) if b_signed else T.bv_zext(b, double)
    return T.bv_extract(T.bv_mul(wide_a, wide_b), double - 1, cfg.xlen)


# -------------------------------------------------------------- catalog

_REGISTRY: dict[str, InstructionDef] = {}


def _register(defn: InstructionDef) -> InstructionDef:
    if defn.name in _REGISTRY:
        raise IsaError(f"duplicate instruction definition {defn.name!r}")
    _REGISTRY[defn.name] = defn
    return defn


def _r_type(
    name: str,
    concrete: ConcreteFn,
    symbolic: SymbolicFn,
    description: str,
) -> InstructionDef:
    return _register(
        InstructionDef(
            name=name,
            fmt="R",
            uses_rs1=True,
            uses_rs2=True,
            uses_imm=False,
            writes_rd=True,
            is_load=False,
            is_store=False,
            concrete=concrete,
            symbolic=symbolic,
            description=description,
        )
    )


def _i_type(
    name: str,
    concrete: ConcreteFn,
    symbolic: SymbolicFn,
    description: str,
    is_load: bool = False,
) -> InstructionDef:
    return _register(
        InstructionDef(
            name=name,
            fmt="I",
            uses_rs1=True,
            uses_rs2=False,
            uses_imm=True,
            writes_rd=True,
            is_load=is_load,
            is_store=False,
            concrete=concrete,
            symbolic=symbolic,
            description=description,
        )
    )


# --- R-type ALU -------------------------------------------------------------

ADD = _r_type(
    "ADD",
    lambda cfg, a, b, imm: (a + b) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_add(a, b),
    "Addition of two register operands",
)
SUB = _r_type(
    "SUB",
    lambda cfg, a, b, imm: (a - b) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_sub(a, b),
    "Subtraction of two register operands",
)
SLL = _r_type(
    "SLL",
    lambda cfg, a, b, imm: (a << _shamt(cfg, b)) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_shl(a, _shamt_sym(cfg, b)),
    "Shift left logical",
)
SLT = _r_type(
    "SLT",
    lambda cfg, a, b, imm: 1 if to_signed(a, cfg.xlen) < to_signed(b, cfg.xlen) else 0,
    lambda cfg, a, b, imm: _bool_to_xlen(cfg, T.bv_slt(a, b)),
    "Set if less than (signed)",
)
SLTU = _r_type(
    "SLTU",
    lambda cfg, a, b, imm: 1 if a < b else 0,
    lambda cfg, a, b, imm: _bool_to_xlen(cfg, T.bv_ult(a, b)),
    "Set if less than (unsigned)",
)
XOR = _r_type(
    "XOR",
    lambda cfg, a, b, imm: a ^ b,
    lambda cfg, a, b, imm: T.bv_xor(a, b),
    "Exclusive OR",
)
SRL = _r_type(
    "SRL",
    lambda cfg, a, b, imm: a >> _shamt(cfg, b),
    lambda cfg, a, b, imm: T.bv_lshr(a, _shamt_sym(cfg, b)),
    "Shift right logical",
)
SRA = _r_type(
    "SRA",
    lambda cfg, a, b, imm: (to_signed(a, cfg.xlen) >> _shamt(cfg, b)) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_ashr(a, _shamt_sym(cfg, b)),
    "Shift right arithmetic",
)
OR = _r_type(
    "OR",
    lambda cfg, a, b, imm: a | b,
    lambda cfg, a, b, imm: T.bv_or(a, b),
    "Bitwise OR",
)
AND = _r_type(
    "AND",
    lambda cfg, a, b, imm: a & b,
    lambda cfg, a, b, imm: T.bv_and(a, b),
    "Bitwise AND",
)

# --- RV32M multiplies -------------------------------------------------------

MUL = _r_type(
    "MUL",
    lambda cfg, a, b, imm: (a * b) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_mul(a, b),
    "Multiply (low half)",
)
MULH = _r_type(
    "MULH",
    lambda cfg, a, b, imm: _mulh_signed(cfg, a, b),
    lambda cfg, a, b, imm: _mulh_sym(cfg, a, b, True, True),
    "Multiply high (signed x signed)",
)
MULHSU = _r_type(
    "MULHSU",
    lambda cfg, a, b, imm: _mulh_su(cfg, a, b),
    lambda cfg, a, b, imm: _mulh_sym(cfg, a, b, True, False),
    "Multiply high (signed x unsigned)",
)
MULHU = _r_type(
    "MULHU",
    lambda cfg, a, b, imm: _mulh_unsigned(cfg, a, b),
    lambda cfg, a, b, imm: _mulh_sym(cfg, a, b, False, False),
    "Multiply high (unsigned x unsigned)",
)

# --- I-type ALU -------------------------------------------------------------

ADDI = _i_type(
    "ADDI",
    lambda cfg, a, b, imm: (a + _imm_sext(cfg, imm)) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_add(a, _imm_sext_sym(cfg, imm)),
    "Add immediate",
)
SLTI = _i_type(
    "SLTI",
    lambda cfg, a, b, imm: 1 if to_signed(a, cfg.xlen) < to_signed(_imm_sext(cfg, imm), cfg.xlen) else 0,
    lambda cfg, a, b, imm: _bool_to_xlen(cfg, T.bv_slt(a, _imm_sext_sym(cfg, imm))),
    "Set if less than immediate (signed)",
)
SLTIU = _i_type(
    "SLTIU",
    lambda cfg, a, b, imm: 1 if a < _imm_sext(cfg, imm) else 0,
    lambda cfg, a, b, imm: _bool_to_xlen(cfg, T.bv_ult(a, _imm_sext_sym(cfg, imm))),
    "Set if less than immediate (unsigned compare)",
)
XORI = _i_type(
    "XORI",
    lambda cfg, a, b, imm: a ^ _imm_sext(cfg, imm),
    lambda cfg, a, b, imm: T.bv_xor(a, _imm_sext_sym(cfg, imm)),
    "Exclusive OR immediate",
)
ORI = _i_type(
    "ORI",
    lambda cfg, a, b, imm: a | _imm_sext(cfg, imm),
    lambda cfg, a, b, imm: T.bv_or(a, _imm_sext_sym(cfg, imm)),
    "Bitwise OR immediate",
)
ANDI = _i_type(
    "ANDI",
    lambda cfg, a, b, imm: a & _imm_sext(cfg, imm),
    lambda cfg, a, b, imm: T.bv_and(a, _imm_sext_sym(cfg, imm)),
    "Bitwise AND immediate",
)
SLLI = _i_type(
    "SLLI",
    lambda cfg, a, b, imm: (a << _shamt(cfg, imm)) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_shl(a, _shamt_sym(cfg, T.bv_zext(imm, cfg.xlen))),
    "Shift left logical immediate",
)
SRLI = _i_type(
    "SRLI",
    lambda cfg, a, b, imm: a >> _shamt(cfg, imm),
    lambda cfg, a, b, imm: T.bv_lshr(a, _shamt_sym(cfg, T.bv_zext(imm, cfg.xlen))),
    "Shift right logical immediate",
)
SRAI = _i_type(
    "SRAI",
    lambda cfg, a, b, imm: (to_signed(a, cfg.xlen) >> _shamt(cfg, imm)) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_ashr(a, _shamt_sym(cfg, T.bv_zext(imm, cfg.xlen))),
    "Shift right arithmetic immediate",
)

# --- LUI --------------------------------------------------------------------

LUI = _register(
    InstructionDef(
        name="LUI",
        fmt="U",
        uses_rs1=False,
        uses_rs2=False,
        uses_imm=True,
        writes_rd=True,
        is_load=False,
        is_store=False,
        concrete=lambda cfg, a, b, imm: (imm << cfg.lui_shift) & mask(cfg.xlen),
        symbolic=lambda cfg, a, b, imm: T.bv_shl(
            T.bv_zext(imm, cfg.xlen), T.bv_const(cfg.lui_shift, cfg.xlen)
        ),
        description="Load upper immediate",
    )
)

# --- loads / stores ---------------------------------------------------------

LW = _i_type(
    "LW",
    lambda cfg, a, b, imm: (a + _imm_sext(cfg, imm)) & mask(cfg.xlen),
    lambda cfg, a, b, imm: T.bv_add(a, _imm_sext_sym(cfg, imm)),
    "Load word (result value is the effective address; memory handled by the executor)",
    is_load=True,
)

SW = _register(
    InstructionDef(
        name="SW",
        fmt="S",
        uses_rs1=True,
        uses_rs2=True,
        uses_imm=True,
        writes_rd=False,
        is_load=False,
        is_store=True,
        concrete=lambda cfg, a, b, imm: (a + _imm_sext(cfg, imm)) & mask(cfg.xlen),
        symbolic=lambda cfg, a, b, imm: T.bv_add(a, _imm_sext_sym(cfg, imm)),
        description="Store word (result value is the effective address; data is rs2)",
    )
)


# ----------------------------------------------------------------------------
# Public accessors
# ----------------------------------------------------------------------------

INSTRUCTIONS: dict[str, InstructionDef] = dict(_REGISTRY)

# Names in a stable, documentation-friendly order.
_R_ALU = ["ADD", "SUB", "SLL", "SLT", "SLTU", "XOR", "SRL", "SRA", "OR", "AND"]
_M_EXT = ["MUL", "MULH", "MULHSU", "MULHU"]
_I_ALU = ["ADDI", "SLTI", "SLTIU", "XORI", "ORI", "ANDI", "SLLI", "SRLI", "SRAI"]
_OTHER = ["LUI", "LW", "SW"]

CANONICAL_ORDER: list[str] = _R_ALU + _M_EXT + _I_ALU + _OTHER


def instruction_names() -> list[str]:
    """All supported mnemonics in canonical order."""
    return list(CANONICAL_ORDER)


def get_instruction(name: str) -> InstructionDef:
    """Look up an :class:`InstructionDef` by mnemonic (case-insensitive)."""
    defn = INSTRUCTIONS.get(name.upper())
    if defn is None:
        raise IsaError(f"unknown instruction {name!r}")
    return defn


def result_value(cfg: IsaConfig, instr: Instruction, rs1: int, rs2: int) -> int:
    """Concrete result of ``instr`` given its source register values."""
    defn = get_instruction(instr.name)
    imm = instr.imm if instr.imm is not None else 0
    return defn.concrete(cfg, rs1 & mask(cfg.xlen), rs2 & mask(cfg.xlen), imm & mask(cfg.imm_width))


def symbolic_result(cfg: IsaConfig, name: str, rs1: BV, rs2: BV, imm: BV) -> BV:
    """Symbolic result of instruction ``name`` over bit-vector operands."""
    defn = get_instruction(name)
    return defn.symbolic(cfg, rs1, rs2, imm)
