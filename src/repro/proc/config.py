"""Processor configuration: ISA parameters plus micro-architecture knobs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProcessorError
from repro.isa.config import IsaConfig
from repro.isa.instructions import instruction_names
from repro.utils.bitops import clog2

#: The instruction pool used by default.  Keeping the pool explicit lets
#: experiments verify against a DUV that implements exactly the opcodes a
#: given bug involves, which keeps the bit-blasted BMC queries small without
#: changing the methodology (the property is still universal).
DEFAULT_POOL = [
    "ADD", "SUB", "XOR", "OR", "AND", "SLT", "SLTU", "SLL", "SRL", "SRA",
    "ADDI", "XORI", "ORI", "ANDI", "SLLI", "SRLI", "SRAI",
    "MUL", "MULH", "MULHU",
    "LUI", "LW", "SW",
]


@dataclass(frozen=True)
class ProcessorConfig:
    """Static parameters of the pipelined DUV.

    Attributes:
        isa: datapath widths and register/memory sizes.
        supported_ops: the opcodes the core implements (a subset of the ISA
            catalog); the symbolic instruction input is constrained to this
            pool.
        forwarding: whether the decode stage forwards results from the
            execute and write-back stages (the bug-free reference design has
            forwarding on; several Figure 4 bugs corrupt it).
    """

    isa: IsaConfig = field(default_factory=IsaConfig.small)
    supported_ops: tuple[str, ...] = tuple(DEFAULT_POOL)
    forwarding: bool = True

    def __post_init__(self) -> None:
        known = set(instruction_names())
        for op in self.supported_ops:
            if op not in known:
                raise ProcessorError(f"unsupported opcode in pool: {op!r}")
        if len(set(self.supported_ops)) != len(self.supported_ops):
            raise ProcessorError("supported_ops contains duplicates")
        if not self.supported_ops:
            raise ProcessorError("supported_ops must not be empty")

    @property
    def op_width(self) -> int:
        """Width of the micro-encoded opcode field."""
        return max(1, clog2(len(self.supported_ops)))

    def op_index(self, name: str) -> int:
        """Index of an opcode in the pool (the micro-encoding of the opcode)."""
        try:
            return self.supported_ops.index(name.upper())
        except ValueError as exc:
            raise ProcessorError(
                f"opcode {name!r} is not in the processor's instruction pool"
            ) from exc

    @classmethod
    def small(cls, ops: list[str] | None = None, xlen: int = 8, num_regs: int = 8) -> "ProcessorConfig":
        """The scaled-down configuration used by tests and experiments."""
        pool = tuple(ops) if ops is not None else tuple(DEFAULT_POOL)
        return cls(isa=IsaConfig.small(xlen=xlen, num_regs=num_regs), supported_ops=pool)
