"""SEPE-SQED: Symbolic Quick Error Detection by Semantically Equivalent Program Execution.

A from-scratch Python reproduction of the DAC 2024 paper, including every
substrate the method depends on: a CDCL SAT solver, a bit-vector SMT layer,
transition systems with a BTOR2 bridge, a bounded model checker, an RV32IM
subset with concrete and symbolic semantics, component-based program
synthesis (iterative and HPF CEGIS), symbolic pipelined processor
models with injectable mutations, and the EDDI-V / EDSEP-V QED modules.

Quickstart::

    from repro import (
        IsaConfig, ProcessorConfig, SepeSqedFlow, SqedFlow, get_bug, pool_for_bug,
        default_equivalent_programs,
    )

    isa = IsaConfig.small()
    equivalents = default_equivalent_programs(isa)
    bug = get_bug("single_add_off_by_one")
    pool = pool_for_bug(bug, equivalents)
    config = ProcessorConfig(isa=isa, supported_ops=pool)
    outcome = SepeSqedFlow(config).run(bug, bound=10)
    assert outcome.detected

See ``examples/`` for runnable scripts and :mod:`repro.experiments` for the
experiment harnesses.
"""

from repro.isa.config import IsaConfig
from repro.isa.instructions import Instruction, instruction_names, get_instruction
from repro.isa.executor import ArchState, execute_instruction, execute_program
from repro.isa.assembler import assemble
from repro.proc.config import ProcessorConfig
from repro.proc.bugs import (
    Bug,
    BugKind,
    BugRecipe,
    bug_catalog,
    get_bug,
    single_instruction_bugs,
    multiple_instruction_bugs,
)
from repro.synth.components import build_default_library, ComponentLibrary
from repro.synth.spec import spec_from_instruction
from repro.synth.cegis import CegisConfig, CegisEngine
from repro.synth.hpf import HpfCegis
from repro.synth.iterative import IterativeCegis
from repro.qed.equivalents import default_equivalent_programs
from repro.qed.mapping import RegisterPartition, MemoryPartition
from repro.par import TaskPool
from repro.core.flow import SqedFlow, SepeSqedFlow, pool_for_bug
from repro.core.results import ProofOutcome, VerificationOutcome
from repro.bmc.engine import BmcEngine, BmcSession
from repro.pdr import InvariantCheck, PdrEngine, PdrResult, check_invariant
from repro.solve import EncodingStats, PipelineConfig, SolverContext, default_opt_level
from repro.ts.system import TransitionSystem
from repro.btor import write_btor2, parse_btor2
from repro.zoo import (
    CampaignConfig,
    OracleReport,
    OracleSettings,
    ZooInstance,
    run_campaign,
    run_instance,
    sample_recipe,
    shrink_recipe,
)

__version__ = "1.0.0"

__all__ = [
    "IsaConfig",
    "Instruction",
    "instruction_names",
    "get_instruction",
    "ArchState",
    "execute_instruction",
    "execute_program",
    "assemble",
    "ProcessorConfig",
    "Bug",
    "BugKind",
    "BugRecipe",
    "bug_catalog",
    "get_bug",
    "single_instruction_bugs",
    "multiple_instruction_bugs",
    "build_default_library",
    "ComponentLibrary",
    "spec_from_instruction",
    "CegisConfig",
    "CegisEngine",
    "HpfCegis",
    "IterativeCegis",
    "default_equivalent_programs",
    "RegisterPartition",
    "MemoryPartition",
    "TaskPool",
    "SqedFlow",
    "SepeSqedFlow",
    "pool_for_bug",
    "ProofOutcome",
    "VerificationOutcome",
    "BmcEngine",
    "BmcSession",
    "InvariantCheck",
    "PdrEngine",
    "PdrResult",
    "check_invariant",
    "EncodingStats",
    "PipelineConfig",
    "SolverContext",
    "default_opt_level",
    "TransitionSystem",
    "write_btor2",
    "parse_btor2",
    "CampaignConfig",
    "OracleReport",
    "OracleSettings",
    "ZooInstance",
    "run_campaign",
    "run_instance",
    "sample_recipe",
    "shrink_recipe",
    "__version__",
]
