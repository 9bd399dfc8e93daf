"""Register-file and memory partitioning for the QED transformations.

EDDI-V splits the register file into two halves (originals and duplicates)
related by a bijective map; EDSEP-V splits it into three parts (Section 5):

* ``O`` — registers the original instructions may use,
* ``E`` — registers of the semantically equivalent program, paired
  one-to-one with ``O``,
* ``T`` — scratch registers for the equivalent program's intermediate
  values.

For the paper's 32-register core this yields O = x0..x12, E = x13..x25,
T = x26..x31; the same construction scales down to the narrow register files
used by the experiments here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QedError


@dataclass(frozen=True)
class RegisterPartition:
    """A partition of the register file into original / shadow / temp sets."""

    num_regs: int
    original: tuple[int, ...]
    shadow: tuple[int, ...]
    temps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.original) != len(self.shadow):
            raise QedError("original and shadow register sets must have equal size")
        all_regs = set(self.original) | set(self.shadow) | set(self.temps)
        if len(all_regs) != len(self.original) + len(self.shadow) + len(self.temps):
            raise QedError("register partition sets overlap")
        if any(r < 0 or r >= self.num_regs for r in all_regs):
            raise QedError("register partition references registers out of range")
        if 0 not in self.original:
            raise QedError("register x0 must belong to the original set")

    @property
    def offset(self) -> int:
        """Distance between an original register and its shadow counterpart."""
        return self.shadow[0] - self.original[0]

    def shadow_of(self, reg: int) -> int:
        """The shadow register paired with original register ``reg``."""
        if reg not in self.original:
            raise QedError(f"register x{reg} is not in the original set")
        return self.shadow[self.original.index(reg)]

    def compare_pairs(self, include_zero: bool = False) -> list[tuple[int, int]]:
        """(original, shadow) pairs the consistency property compares.

        Register x0 is hard-wired to zero and is excluded by default, as in
        the paper's property which starts the conjunction at the first
        writable register.
        """
        pairs = list(zip(self.original, self.shadow))
        if not include_zero:
            pairs = [(o, s) for o, s in pairs if o != 0]
        return pairs

    @classmethod
    def eddiv(cls, num_regs: int) -> "RegisterPartition":
        """EDDI-V: lower half originals, upper half duplicates, no temps."""
        half = num_regs // 2
        return cls(
            num_regs=num_regs,
            original=tuple(range(half)),
            shadow=tuple(range(half, num_regs)),
            temps=(),
        )

    @classmethod
    def edsepv(cls, num_regs: int) -> "RegisterPartition":
        """EDSEP-V: O / E / T split (Section 5 of the paper).

        ``max(2, num_regs * 6 // 32)`` registers are temporaries: for 32
        registers this gives O = x0..x12, E = x13..x25, T = x26..x31,
        exactly as in the paper.
        """
        num_temps = max(2, num_regs * 6 // 32)
        paired = (num_regs - num_temps) // 2
        if paired < 2:
            raise QedError(
                f"register file of {num_regs} registers is too small for EDSEP-V "
                f"with {num_temps} temporaries"
            )
        original = tuple(range(paired))
        shadow = tuple(range(paired, 2 * paired))
        temps = tuple(range(2 * paired, num_regs))
        return cls(num_regs=num_regs, original=original, shadow=shadow, temps=temps)


@dataclass(frozen=True)
class MemoryPartition:
    """Memory split into an original half and a shadow half."""

    num_words: int

    @property
    def half(self) -> int:
        return self.num_words // 2

    def compare_pairs(self) -> list[tuple[int, int]]:
        """(original word, shadow word) pairs compared by the property."""
        return [(w, w + self.half) for w in range(self.half)]
