"""QED modules: the EDDI-V (SQED) and EDSEP-V (SEPE-SQED) transformations.

Following Figure 2 of the paper, a QED module sits between the symbolic
instruction source and the DUV: the bounded model checker freely chooses
original instructions (restricted to the *original* register set); the
module records them and, on demand, dispatches their transformed
counterparts — exact duplicates over the shadow registers for EDDI-V, the
synthesized semantically equivalent program over the E/T register sets for
EDSEP-V.  Once the number of committed originals matches the number of
completed transformed groups and the pipeline has drained, the ``QED-ready``
flag rises and the universal consistency property must hold.
"""

from repro.qed.mapping import RegisterPartition, MemoryPartition
from repro.qed.scheme import TransformScheme, EddivScheme, EdsepvScheme
from repro.qed.module import QedVerificationModel, build_verification_model
from repro.qed.equivalents import default_equivalent_programs, verify_equivalence

__all__ = [
    "RegisterPartition",
    "MemoryPartition",
    "TransformScheme",
    "EddivScheme",
    "EdsepvScheme",
    "QedVerificationModel",
    "build_verification_model",
    "default_equivalent_programs",
    "verify_equivalence",
]
