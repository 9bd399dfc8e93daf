"""Fixed-width two's-complement bit manipulation helpers.

All functions operate on Python ints interpreted as unsigned values of a
given bit ``width`` unless noted otherwise.  They are used both by the
concrete instruction-set simulator and by the bit-vector constant folder,
so correctness here is load-bearing for the whole stack.
"""

from __future__ import annotations


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits (``width`` may be zero)."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def to_unsigned(value: int, width: int) -> int:
    """Interpret ``value`` (possibly negative) as an unsigned ``width``-bit int."""
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret the low ``width`` bits of ``value`` as a two's-complement int."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    value = value & mask(width)
    sign_bit = 1 << (width - 1)
    if value & sign_bit:
        return value - (1 << width)
    return value


def sext(value: int, from_width: int, to_width: int) -> int:
    """Sign-extend the low ``from_width`` bits of ``value`` to ``to_width`` bits."""
    if to_width < from_width:
        raise ValueError(
            f"cannot sign-extend from {from_width} to narrower width {to_width}"
        )
    return to_unsigned(to_signed(value, from_width), to_width)


def zext(value: int, from_width: int, to_width: int) -> int:
    """Zero-extend the low ``from_width`` bits of ``value`` to ``to_width`` bits."""
    if to_width < from_width:
        raise ValueError(
            f"cannot zero-extend from {from_width} to narrower width {to_width}"
        )
    return value & mask(from_width)


def bit(value: int, index: int) -> int:
    """Return bit ``index`` (0 = LSB) of ``value`` as 0 or 1."""
    return (value >> index) & 1


def from_bits(bits: list[int]) -> int:
    """Assemble an unsigned integer from a list of bits, LSB first."""
    value = 0
    for i, b in enumerate(bits):
        if b:
            value |= 1 << i
    return value


def clog2(value: int) -> int:
    """Ceiling of log2 for positive integers; ``clog2(1) == 0``."""
    if value <= 0:
        raise ValueError(f"clog2 requires a positive value, got {value}")
    return (value - 1).bit_length()
