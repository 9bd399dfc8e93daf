"""RV32IM instruction-set layer.

The paper runs SQED / SEPE-SQED on a RISC-V core and synthesizes equivalent
programs over a portion of RV32IM.  This package provides that substrate:

* :mod:`repro.isa.config` — datapath configuration (XLEN, register count,
  immediate width).  The paper uses XLEN=32 with 32 registers; the
  experiments in this repo default to narrower datapaths so the pure-Python
  SAT backend stays fast, and the semantics are width-generic.
* :mod:`repro.isa.instructions` — the instruction catalog with concrete
  (integer) and symbolic (bit-vector term) semantics.
* :mod:`repro.isa.executor` — an architectural-state instruction-set
  simulator used for trace replay and cross-checking.
* :mod:`repro.isa.assembler` — a small text assembler for examples/tests.
"""

from repro.isa.config import IsaConfig
from repro.isa.instructions import (
    Instruction,
    InstructionDef,
    INSTRUCTIONS,
    instruction_names,
    get_instruction,
)
from repro.isa.executor import ArchState, execute_instruction, execute_program
from repro.isa.assembler import assemble, assemble_line, format_instruction

__all__ = [
    "IsaConfig",
    "Instruction",
    "InstructionDef",
    "INSTRUCTIONS",
    "instruction_names",
    "get_instruction",
    "ArchState",
    "execute_instruction",
    "execute_program",
    "assemble",
    "assemble_line",
    "format_instruction",
]
