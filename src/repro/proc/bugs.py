"""Catalog of injectable design bugs (RTL mutations).

The paper evaluates SQED / SEPE-SQED with mutation testing on RIDECORE:
single-instruction bugs (Table 1) and multiple-instruction bugs (Figure 4).
Here a :class:`Bug` is a set of *hooks* the pipeline builder consults while
constructing the transition system; each hook receives the correct signal
(and its context) and returns the mutated signal.

Hook names used by :class:`~repro.proc.pipeline.PipelineProcessor`:

=====================  =====================================================
``alu_result``          combinational ALU output in the execute stage
``ex_result_seq``       ALU output, with the opcode of the *previous*
                        instruction (write-back stage) in context — used for
                        sequence-dependent mutations
``store_addr``          effective address of a store
``store_data``          data value written by a store
``forward_ex_rs1/rs2``  forwarding condition from the execute stage
``forward_wb_rs1/rs2``  forwarding condition from the write-back stage
``forward_ex_value``    the value forwarded from the execute stage
``wb_write_cond``       register-file write enable in the write-back stage
``wb_value``            register-file write data in the write-back stage
=====================  =====================================================

Every hook has the signature ``hook(cfg, ctx) -> BV`` where ``ctx`` is a
dict of named bit-vector terms that always contains the default (correct)
signal under the key named after the hook's output (``result``, ``cond``,
``addr``, ``data``, ``value``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from repro.errors import ProcessorError, UnknownBugError
from repro.proc.config import ProcessorConfig
from repro.smt import terms as T
from repro.smt.terms import BV

HookFn = Callable[[ProcessorConfig, dict], BV]


class BugKind(enum.Enum):
    """The two bug categories the paper distinguishes."""

    SINGLE_INSTRUCTION = "single"
    MULTIPLE_INSTRUCTION = "multiple"


@dataclass(frozen=True)
class BugRecipe:
    """Provenance of a *generated* bug: ``(family, params, seed)``.

    The static catalog below carries ``recipe=None``; bugs minted by
    :mod:`repro.zoo` carry the exact recipe that rebuilds them, so any
    instance that slips through a campaign can be reproduced from three
    values.  ``params`` is a sorted tuple of ``(key, value)`` pairs so the
    recipe is hashable and its JSON form is canonical.
    """

    family: str
    params: tuple[tuple[str, object], ...] = ()
    seed: int = 0

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {k: v for k, v in self.params},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BugRecipe":
        try:
            family = data["family"]
            params = data.get("params", {})
            seed = data.get("seed", 0)
        except (TypeError, AttributeError) as exc:
            raise ProcessorError(f"malformed bug recipe: {data!r}") from exc
        if not isinstance(family, str) or not isinstance(seed, int):
            raise ProcessorError(f"malformed bug recipe: {data!r}")
        return cls(
            family=family,
            params=tuple(sorted(params.items())),
            seed=seed,
        )


@dataclass(frozen=True)
class Bug:
    """One injectable mutation."""

    name: str
    kind: BugKind
    description: str
    hooks: Mapping[str, HookFn]
    #: The opcode(s) whose behaviour the mutation corrupts (for reporting and
    #: for choosing a compact instruction pool in the experiments).
    target_ops: tuple[str, ...] = ()
    #: Extra opcodes that should be in the DUV pool so the bug can be both
    #: triggered and exposed (e.g. the opcodes of the equivalent program).
    recommended_pool: tuple[str, ...] = ()
    #: Where the bug came from: ``None`` for the hand-written catalog,
    #: the generating :class:`BugRecipe` for :mod:`repro.zoo` instances.
    recipe: Optional[BugRecipe] = None

    def apply(self, hook: str, cfg: ProcessorConfig, ctx: dict, default: BV) -> BV:
        """Return the (possibly mutated) value of ``hook``."""
        fn = self.hooks.get(hook)
        if fn is None:
            return default
        return fn(cfg, ctx)


# ----------------------------------------------------------------------------
# Single-instruction bugs (Table 1)
# ----------------------------------------------------------------------------


def _alu_bug(name: str, op: str, description: str, mutate: Callable[[ProcessorConfig, dict], BV],
             recommended_pool: tuple[str, ...] = ()) -> Bug:
    """A bug that corrupts the ALU result of one opcode only."""

    def hook(cfg: ProcessorConfig, ctx: dict) -> BV:
        is_target = ctx["op_is"][op]
        return T.bv_ite(is_target, mutate(cfg, ctx), ctx["result"])

    return Bug(
        name=name,
        kind=BugKind.SINGLE_INSTRUCTION,
        description=description,
        hooks={"alu_result": hook},
        target_ops=(op,),
        recommended_pool=recommended_pool,
    )


def _single_instruction_bug_list() -> list[Bug]:
    xl = lambda cfg: cfg.isa.xlen  # noqa: E731 - tiny local alias

    bugs = [
        _alu_bug(
            "single_add_off_by_one", "ADD",
            "ADD produces a + b + 1 (carry-in stuck at one)",
            lambda cfg, ctx: T.bv_add(T.bv_add(ctx["a"], ctx["b"]), T.bv_const(1, xl(cfg))),
            recommended_pool=("ADD", "SUB"),
        ),
        _alu_bug(
            "single_sub_off_by_one", "SUB",
            "SUB produces a - b - 1 (borrow stuck)",
            lambda cfg, ctx: T.bv_sub(T.bv_sub(ctx["a"], ctx["b"]), T.bv_const(1, xl(cfg))),
            recommended_pool=("SUB", "ADD", "XORI"),
        ),
        _alu_bug(
            "single_xor_as_or", "XOR",
            "XOR computes OR instead of exclusive OR",
            lambda cfg, ctx: T.bv_or(ctx["a"], ctx["b"]),
            recommended_pool=("XOR", "OR", "AND", "SUB"),
        ),
        _alu_bug(
            "single_or_missing_bit", "OR",
            "OR drops the least-significant result bit",
            lambda cfg, ctx: T.bv_and(
                T.bv_or(ctx["a"], ctx["b"]),
                T.bv_const(~1, xl(cfg)),
            ),
            recommended_pool=("OR", "XOR", "AND", "ADD"),
        ),
        _alu_bug(
            "single_and_as_or", "AND",
            "AND computes OR instead of bitwise AND",
            lambda cfg, ctx: T.bv_or(ctx["a"], ctx["b"]),
            recommended_pool=("AND", "OR", "XOR", "SUB"),
        ),
        _alu_bug(
            "single_slt_unsigned", "SLT",
            "SLT performs an unsigned comparison (sign bit ignored)",
            lambda cfg, ctx: T.bv_zext(T.bv_ult(ctx["a"], ctx["b"]), xl(cfg)),
            recommended_pool=("SLT", "SLTU", "XORI", "XOR", "LUI"),
        ),
        _alu_bug(
            "single_sltu_signed", "SLTU",
            "SLTU performs a signed comparison",
            lambda cfg, ctx: T.bv_zext(T.bv_slt(ctx["a"], ctx["b"]), xl(cfg)),
            recommended_pool=("SLTU", "SLT", "XORI", "XOR", "LUI"),
        ),
        _alu_bug(
            "single_sra_as_srl", "SRA",
            "SRA loses the sign (behaves like SRL)",
            lambda cfg, ctx: T.bv_lshr(
                ctx["a"],
                T.bv_zext(T.bv_extract(ctx["b"], cfg.isa.shamt_width - 1, 0), xl(cfg)),
            ),
            recommended_pool=("SRA", "XORI", "SRL"),
        ),
        _alu_bug(
            "single_mulh_unsigned", "MULH",
            "MULH returns the unsigned high product (MULHU behaviour)",
            lambda cfg, ctx: _mulhu_term(cfg, ctx["a"], ctx["b"]),
            recommended_pool=("MULH", "MULHU", "SRAI", "AND", "SUB"),
        ),
        _alu_bug(
            "single_xori_as_ori", "XORI",
            "XORI ORs the immediate instead of XORing it",
            lambda cfg, ctx: T.bv_or(ctx["a"], T.bv_sext(ctx["imm"], xl(cfg))),
            recommended_pool=("XORI", "ORI", "ANDI", "SUB"),
        ),
        _alu_bug(
            "single_slli_off_by_one", "SLLI",
            "SLLI shifts by one position too many",
            lambda cfg, ctx: T.bv_shl(
                T.bv_shl(ctx["a"], _shamt_from_imm(cfg, ctx["imm"])),
                T.bv_const(1, xl(cfg)),
            ),
            recommended_pool=("SLLI", "ADD", "SLL", "ADDI"),
        ),
        _alu_bug(
            "single_srai_as_srli", "SRAI",
            "SRAI loses the sign (behaves like SRLI)",
            lambda cfg, ctx: T.bv_lshr(ctx["a"], _shamt_from_imm(cfg, ctx["imm"])),
            recommended_pool=("SRAI", "XORI", "SRA", "SRLI"),
        ),
    ]

    # SW: the address generator selects the rs2 operand (the store data's
    # register) as the base instead of rs1 — an operand-mux mutation.
    def sw_addr_hook(cfg: ProcessorConfig, ctx: dict) -> BV:
        return T.bv_add(ctx["b"], T.bv_sext(ctx["imm"], cfg.isa.xlen))

    bugs.append(
        Bug(
            name="single_sw_base_from_rs2",
            kind=BugKind.SINGLE_INSTRUCTION,
            description="SW address generation uses the rs2 operand as the base register",
            hooks={"store_addr": sw_addr_hook},
            target_ops=("SW",),
            recommended_pool=("SW", "ADDI", "ADD", "LW"),
        )
    )
    return bugs


def _mulhu_term(cfg: ProcessorConfig, a: BV, b: BV) -> BV:
    double = 2 * cfg.isa.xlen
    return T.bv_extract(
        T.bv_mul(T.bv_zext(a, double), T.bv_zext(b, double)), double - 1, cfg.isa.xlen
    )


def _shamt_from_imm(cfg: ProcessorConfig, imm: BV) -> BV:
    return T.bv_zext(
        T.bv_extract(T.bv_zext(imm, cfg.isa.xlen), cfg.isa.shamt_width - 1, 0),
        cfg.isa.xlen,
    )


# ----------------------------------------------------------------------------
# Multiple-instruction bugs (Figure 4)
# ----------------------------------------------------------------------------


def _cond_false(_cfg: ProcessorConfig, _ctx: dict) -> BV:
    return T.bv_false()


def _multiple_instruction_bug_list() -> list[Bug]:
    bugs: list[Bug] = []

    bugs.append(Bug(
        name="multi_no_forward_ex_rs1",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="rs1 forwarding from the execute stage is missing (stale value on back-to-back dependency)",
        hooks={"forward_ex_rs1": _cond_false},
        target_ops=("ADD", "SUB"),
        recommended_pool=("ADD", "SUB", "XOR"),
    ))
    bugs.append(Bug(
        name="multi_no_forward_ex_rs2",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="rs2 forwarding from the execute stage is missing",
        hooks={"forward_ex_rs2": _cond_false},
        target_ops=("ADD", "SUB"),
        recommended_pool=("ADD", "SUB", "XOR"),
    ))
    bugs.append(Bug(
        name="multi_no_forward_wb_rs1",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="rs1 forwarding from the write-back stage is missing (distance-two dependency reads stale data)",
        hooks={"forward_wb_rs1": _cond_false},
        target_ops=("ADD", "SUB"),
        recommended_pool=("ADD", "SUB", "XOR"),
    ))
    bugs.append(Bug(
        name="multi_forward_ignores_write_enable",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="execute-stage forwarding triggers even when the producer does not write a register (e.g. a store)",
        hooks={
            "forward_ex_rs1": lambda cfg, ctx: T.bv_and(
                T.bv_and(ctx["ex_valid"], T.bv_eq(ctx["ex_rd"], ctx["rs_idx"])),
                T.bv_ne(ctx["rs_idx"], T.bv_const(0, ctx["rs_idx"].width)),
            ),
        },
        target_ops=("SW", "ADD"),
        recommended_pool=("ADD", "SUB", "SW", "ADDI"),
    ))
    bugs.append(Bug(
        name="multi_forward_wrong_operand",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="the execute stage forwards its first source operand instead of its result",
        hooks={"forward_ex_value": lambda cfg, ctx: ctx["ex_a"]},
        target_ops=("ADD", "SUB"),
        recommended_pool=("ADD", "SUB", "XOR"),
    ))
    bugs.append(Bug(
        name="multi_forward_priority_swapped",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="when both the execute and write-back stages match, the older (write-back) value wins",
        hooks={"forward_priority": lambda cfg, ctx: T.bv_true()},
        target_ops=("ADD",),
        recommended_pool=("ADD", "SUB", "XOR"),
    ))
    bugs.append(Bug(
        name="multi_wb_dropped_on_double_write",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="the register-file write is dropped when the next instruction writes the same register",
        hooks={
            "wb_write_cond": lambda cfg, ctx: T.bv_and(
                ctx["cond"],
                T.bv_not(T.bv_and(ctx["ex_valid"], T.bv_eq(ctx["ex_rd"], ctx["wb_rd"]))),
            ),
        },
        target_ops=("ADD",),
        recommended_pool=("ADD", "SUB", "XOR"),
    ))
    bugs.append(Bug(
        name="multi_wb_dropped_after_store",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="the register-file write is dropped when the following instruction is a store",
        hooks={
            "wb_write_cond": lambda cfg, ctx: T.bv_and(
                ctx["cond"], T.bv_not(T.bv_and(ctx["ex_valid"], ctx["ex_op_is"]["SW"])),
            ),
        },
        target_ops=("SW", "ADD"),
        recommended_pool=("ADD", "SW", "ADDI"),
    ))
    bugs.append(Bug(
        name="multi_add_after_mul_corrupted",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="ADD result is off by one when the previous instruction was a MUL",
        hooks={
            "ex_result_seq": lambda cfg, ctx: T.bv_ite(
                T.bv_and(ctx["op_is"]["ADD"], T.bv_and(ctx["prev_valid"], ctx["prev_op_is"]["MUL"])),
                T.bv_add(ctx["result"], T.bv_const(1, cfg.isa.xlen)),
                ctx["result"],
            ),
        },
        target_ops=("ADD", "MUL"),
        recommended_pool=("ADD", "MUL", "SUB"),
    ))
    bugs.append(Bug(
        name="multi_xor_after_sub_corrupted",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="XOR computes OR when the previous instruction was a SUB",
        hooks={
            "ex_result_seq": lambda cfg, ctx: T.bv_ite(
                T.bv_and(ctx["op_is"]["XOR"], T.bv_and(ctx["prev_valid"], ctx["prev_op_is"]["SUB"])),
                T.bv_or(ctx["a"], ctx["b"]),
                ctx["result"],
            ),
        },
        target_ops=("XOR", "SUB"),
        recommended_pool=("XOR", "SUB", "OR", "AND"),
    ))
    bugs.append(Bug(
        name="multi_store_data_not_forwarded",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="the store data operand ignores execute-stage forwarding (stores a stale value)",
        hooks={"forward_ex_rs2_store": _cond_false},
        target_ops=("SW",),
        recommended_pool=("SW", "ADD", "ADDI", "LW"),
    ))
    bugs.append(Bug(
        name="multi_and_after_and_corrupted",
        kind=BugKind.MULTIPLE_INSTRUCTION,
        description="AND clears its least-significant result bit when the previous instruction was also an AND",
        hooks={
            "ex_result_seq": lambda cfg, ctx: T.bv_ite(
                T.bv_and(ctx["op_is"]["AND"], T.bv_and(ctx["prev_valid"], ctx["prev_op_is"]["AND"])),
                T.bv_and(ctx["result"], T.bv_const(~1, cfg.isa.xlen)),
                ctx["result"],
            ),
        },
        target_ops=("AND",),
        recommended_pool=("AND", "OR", "XOR", "SUB"),
    ))
    return bugs


# ----------------------------------------------------------------------------
# Public catalog
# ----------------------------------------------------------------------------

def _build_catalog(*bug_lists: list[Bug]) -> dict[str, Bug]:
    """Merge bug lists into a name-keyed dict, rejecting duplicate names.

    A plain dict comprehension would let a later entry silently shadow an
    earlier one with the same name — exactly the kind of catalog rot that
    makes "all N bugs detected" claims vacuous.
    """
    catalog: dict[str, Bug] = {}
    for bugs in bug_lists:
        for bug in bugs:
            if bug.name in catalog:
                raise ProcessorError(
                    f"duplicate bug name {bug.name!r} in the catalog"
                )
            catalog[bug.name] = bug
    return catalog


_SINGLE = _build_catalog(_single_instruction_bug_list())
_MULTIPLE = _build_catalog(_multiple_instruction_bug_list())
_ALL = _build_catalog(list(_SINGLE.values()), list(_MULTIPLE.values()))


def bug_catalog() -> dict[str, Bug]:
    """All known bugs keyed by name."""
    return dict(_ALL)


def single_instruction_bugs() -> list[Bug]:
    """The Table 1 mutation set."""
    return list(_SINGLE.values())


def multiple_instruction_bugs() -> list[Bug]:
    """The Figure 4 mutation set."""
    return list(_MULTIPLE.values())


def get_bug(name: str) -> Bug:
    """Look up a bug by name.

    Raises :class:`~repro.errors.UnknownBugError` (a :class:`ProcessorError`
    *and* a :class:`KeyError`) listing the known names on a miss.
    """
    bug = _ALL.get(name)
    if bug is None:
        known = ", ".join(sorted(_ALL))
        raise UnknownBugError(f"unknown bug {name!r}; known bugs: {known}")
    return bug


def select_bugs(bugs: list[Bug], names: Optional[Iterable[str]]) -> list[Bug]:
    """The members of ``bugs`` named in ``names``, in ``bugs`` order.

    ``None`` selects every bug.  A name outside ``bugs`` raises
    :class:`~repro.errors.UnknownBugError` naming it, so a misspelled
    request cannot shrink an experiment to a vacuously passing empty run.
    """
    if names is None:
        return list(bugs)
    requested = set(names)
    unknown = requested - {bug.name for bug in bugs}
    if unknown:
        missing = ", ".join(repr(name) for name in sorted(unknown))
        known = ", ".join(bug.name for bug in bugs)
        raise UnknownBugError(f"not in this bug set: {missing}; the set: {known}")
    return [bug for bug in bugs if bug.name in requested]
