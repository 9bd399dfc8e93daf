"""General-purpose utilities shared by every subsystem.

The helpers here are deliberately tiny and dependency-free: bit-level
arithmetic on arbitrary-width two's-complement integers, and a plain-text
table printer used by the experiment harnesses.
"""

from repro.utils.bitops import (
    mask,
    sext,
    zext,
    to_signed,
    to_unsigned,
    bit,
    from_bits,
    clog2,
)
from repro.utils.tables import TextTable

__all__ = [
    "mask",
    "sext",
    "zext",
    "to_signed",
    "to_unsigned",
    "bit",
    "from_bits",
    "clog2",
    "TextTable",
]
