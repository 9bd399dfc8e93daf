"""Bug-zoo oracle: BMC plus executor replay.

For a seeded zoo instance the oracle demands:

* **BMC** finds a counterexample within the family's bound;
* the counterexample **concretises**: the dispatched instruction sequence
  extracted from the trace, replayed on the golden architectural executor
  (:mod:`repro.isa.executor`), ends QED-consistent — while the (buggy) DUV
  states in the trace end inconsistent and diverge from the replay.  This
  is what makes a "detection" a real bug and not an encoding artefact.

For a bug-free control the oracle demands that BMC reports no
counterexample up to :data:`CONTROL_BOUND`.  A BMC run that exhausts its
conflict budget reports ``inconclusive``; any contradiction is a
``disagreement``, the one status that should never occur.  That includes
a trace BMC's own certificate check rejects (:class:`~repro.errors.BmcError`):
it names the instance instead of aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bmc.trace import Trace
from repro.core.flow import SepeSqedFlow, SqedFlow, _BaseFlow
from repro.core.results import VerificationOutcome
from repro.errors import BmcError, ZooError
from repro.isa.executor import ArchState, execute_program
from repro.isa.instructions import Instruction
from repro.lint.model import lint_transition_system
from repro.proc.bugs import Bug
from repro.qed.module import (
    QedVerificationModel,
    SEL_ORIGINAL,
    SEL_TRANSFORMED,
)
from repro.qed.scheme import EntryFields
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.zoo.families import FLOW_SEPE, ZooInstance

#: Overall instance statuses.
STATUS_DETECTED = "detected"
STATUS_CLEAN = "clean"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_DISAGREEMENT = "disagreement"

#: BMC verdicts.
CEX, SAFE, UNKNOWN = "cex", "safe", "inconclusive"

#: Bound cap for control (bug-free) BMC runs.  Golden-model UNSAT cost
#: explodes per frame (measured ~2.6s at bound 7 vs ~330s at bound 9 on
#: the SEPE configuration); a false alarm — an encoding artefact — would
#: surface at small bounds too.  No leg covers controls past this bound.
CONTROL_BOUND = 7


@dataclass
class OracleSettings:
    """Budget for one oracle evaluation."""

    #: The oracle's one leg.  Kept, with ``("bmc",)`` its only legal value,
    #: because the benchmark's bug-hunt workload (``perfbench/worker.py``)
    #: still passes ``engines=("bmc",)``; the next benchmark change drops
    #: the keyword and this field.
    engines: tuple[str, ...] = ("bmc",)
    #: Per-instance budget for the whole BMC run (cumulative over frames).
    bmc_conflict_budget: int = 200_000

    def __post_init__(self) -> None:
        if tuple(self.engines) != ("bmc",):
            raise ZooError(
                f"the oracle runs only the BMC leg; engines must be ('bmc',), "
                f"got {self.engines!r}"
            )
        # Checked here: a negative budget would make every BMC run
        # inconclusive without naming the setting.
        if self.bmc_conflict_budget < 0:
            raise ZooError(
                f"bmc_conflict_budget must be >= 0, got {self.bmc_conflict_budget}"
            )


@dataclass
class OracleReport:
    """Picklable per-instance result (workers return these across forks)."""

    family: str
    recipe: dict
    flow_kind: str
    kind: str  # "seeded" or "control"
    status: str
    bmc_verdict: str = UNKNOWN
    cex_length: Optional[int] = None
    concretized: Optional[bool] = None
    conflicts: int = 0
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_DETECTED, STATUS_CLEAN, STATUS_INCONCLUSIVE)


# ---------------------------------------------------------------------------
# Trace concretization
# ---------------------------------------------------------------------------


def _model_prefix(model: QedVerificationModel) -> str:
    name = model.inputs["qed_sel"].name
    assert name is not None and name.endswith("_qed_sel")
    return name[: -len("_qed_sel")]


def _eval_const(term) -> int:
    """Evaluate a term that must not contain free variables."""
    return evaluate(term, {})


def concretize_trace(
    model: QedVerificationModel, trace: Trace
) -> tuple[ArchState, list[Instruction]]:
    """Extract the initial state and dispatched instruction sequence.

    The returned program replays the trace on the golden architectural
    executor: original instructions come straight from the trace inputs;
    transformed instructions are rebuilt by pushing the concrete FIFO head
    through the scheme's ``transformed_instruction`` and constant-folding
    the result.
    """
    config = model.config
    isa = config.isa
    mp = _model_prefix(model)

    first = trace.steps[0]
    regs = [0] * isa.num_regs
    for i in range(1, isa.num_regs):
        regs[i] = first.states[f"{mp}_duv_reg{i}"]
    mem = [first.states[f"{mp}_duv_mem{w}"] for w in range(isa.mem_words)]
    initial = ArchState(config=isa, regs=regs, mem=mem)

    program: list[Instruction] = []
    # Inputs of the final frame never reach the state the property judges.
    for step in trace.steps[:-1]:
        sel = step.inputs[f"{mp}_qed_sel"]
        if sel == SEL_ORIGINAL:
            op_name = config.supported_ops[step.inputs[f"{mp}_orig_op"]]
            program.append(
                Instruction(
                    name=op_name,
                    rd=step.inputs[f"{mp}_orig_rd"],
                    rs1=step.inputs[f"{mp}_orig_rs1"],
                    rs2=step.inputs[f"{mp}_orig_rs2"],
                    imm=step.inputs[f"{mp}_orig_imm"],
                )
            )
        elif sel == SEL_TRANSFORMED:
            if step.states[f"{mp}_qed_count"] == 0:
                raise ZooError(
                    f"frame {step.frame}: transformed dispatch from an empty "
                    "FIFO (the model constraints forbid this)"
                )
            head_op = config.supported_ops[step.states[f"{mp}_qed_fifo0_op"]]
            entry = EntryFields(
                op=T.bv_const(step.states[f"{mp}_qed_fifo0_op"], config.op_width),
                rd=T.bv_const(step.states[f"{mp}_qed_fifo0_rd"], isa.reg_index_width),
                rs1=T.bv_const(step.states[f"{mp}_qed_fifo0_rs1"], isa.reg_index_width),
                rs2=T.bv_const(step.states[f"{mp}_qed_fifo0_rs2"], isa.reg_index_width),
                imm=T.bv_const(step.states[f"{mp}_qed_fifo0_imm"], isa.imm_width),
            )
            fields = model.scheme.transformed_instruction(
                config, head_op, step.states[f"{mp}_qed_seq_pos"], entry
            )
            program.append(
                Instruction(
                    name=config.supported_ops[_eval_const(fields.op)],
                    rd=_eval_const(fields.rd),
                    rs1=_eval_const(fields.rs1),
                    rs2=_eval_const(fields.rs2),
                    imm=_eval_const(fields.imm),
                )
            )
        # SEL_BUBBLE: nothing dispatched.
    return initial, program


def _compared_memory(model: QedVerificationModel) -> bool:
    from repro.isa.instructions import get_instruction

    return any(
        get_instruction(op).is_load or get_instruction(op).is_store
        for op in model.allowed_ops
    )


def _consistent_state(model: QedVerificationModel, regs, mem) -> bool:
    partition = model.scheme.partition
    for o, s in partition.compare_pairs(include_zero=False):
        if regs[o] != regs[s]:
            return False
    if _compared_memory(model):
        for o, s in model.scheme.memory.compare_pairs():
            if mem[o] != mem[s]:
                return False
    return True


def replay_check(model: QedVerificationModel, trace: Trace) -> Optional[str]:
    """Concretise and replay a BMC counterexample; ``None`` means it is real.

    Three facts must hold for a trace to count as a genuine bug witness:
    the golden executor replay of the dispatched program ends consistent
    (no false alarm — a correct machine running the same program satisfies
    the property), the DUV's final trace state is inconsistent (the
    property really is violated), and the two final states differ (the
    divergence is architectural, not an encoding artefact).
    """
    try:
        initial, program = concretize_trace(model, trace)
    except (KeyError, ZooError) as exc:
        return f"concretization failed: {exc}"
    final = execute_program(initial.copy(), program)

    if not _consistent_state(model, final.regs, final.mem):
        return "golden replay of the dispatched program ends QED-inconsistent"

    isa = model.config.isa
    mp = _model_prefix(model)
    last = trace.steps[-1]
    duv_regs = [0] + [
        last.states[f"{mp}_duv_reg{i}"] for i in range(1, isa.num_regs)
    ]
    duv_mem = [last.states[f"{mp}_duv_mem{w}"] for w in range(isa.mem_words)]
    if _consistent_state(model, duv_regs, duv_mem):
        return "trace's final DUV state does not violate the property"
    if duv_regs == final.regs and duv_mem == final.mem:
        return "DUV final state equals the golden replay (no divergence)"
    return None


# ---------------------------------------------------------------------------
# Running one instance / control through the oracle
# ---------------------------------------------------------------------------


def make_flow(instance: ZooInstance) -> _BaseFlow:
    cls = SepeSqedFlow if instance.flow_kind == FLOW_SEPE else SqedFlow
    return cls(instance.config, fifo_depth=instance.fifo_depth)


def _run_bmc(
    report: OracleReport,
    flow: _BaseFlow,
    bug: Optional[Bug],
    bound: int,
    settings: OracleSettings,
    model: QedVerificationModel,
) -> Optional[VerificationOutcome]:
    """Run BMC and charge its conflicts; ``None`` when its certificate failed.

    BMC re-checks every trace on the original system.  An error from that
    check contradicts BMC's own verdict, so it is this instance's
    disagreement.
    """
    try:
        outcome = flow.run(
            bug,
            bound=bound,
            conflict_budget=settings.bmc_conflict_budget,
            model=model,
        )
    except BmcError as exc:
        report.status = STATUS_DISAGREEMENT
        report.failure = f"BMC leg: {exc}"
        return None
    report.conflicts += outcome.bmc_result.stats.conflicts
    return outcome


def run_instance(
    instance: ZooInstance, settings: Optional[OracleSettings] = None
) -> OracleReport:
    """Evaluate one seeded instance: BMC, then executor replay of its trace."""
    settings = settings or OracleSettings()
    report = OracleReport(
        family=instance.family,
        recipe=instance.recipe.as_dict(),
        flow_kind=instance.flow_kind,
        kind="seeded",
        status=STATUS_INCONCLUSIVE,
    )
    flow = make_flow(instance)

    # Static pre-check: a seeded mutation must still produce a well-formed
    # model.  Error-severity lint findings mean the mutation broke the
    # *encoding*, not the design's behaviour — that is an artefact of the
    # family, not a bug instance, and counts as a disagreement so campaigns
    # surface it instead of crediting a detection.
    # Lint and BMC run on this one model.
    model = flow.build_model(instance.bug)
    lint_report = lint_transition_system(model.ts)
    if lint_report.errors:
        report.status = STATUS_DISAGREEMENT
        report.failure = "seeded model failed lint: " + "; ".join(
            f.render() for f in lint_report.errors[:3]
        )
        return report
    outcome = _run_bmc(
        report, flow, instance.bug, instance.bound, settings, model
    )
    if outcome is None:
        return report
    if outcome.detected is None:
        report.bmc_verdict = UNKNOWN
        report.status = STATUS_INCONCLUSIVE
        return report
    if outcome.detected is False:
        # The family guarantees detectability within its bound: a bounded
        # all-clear on a seeded bug is a real three-way disagreement
        # (mutation, model and engine cannot all be right).
        report.bmc_verdict = SAFE
        report.status = STATUS_DISAGREEMENT
        report.failure = (
            f"seeded {instance.family} bug not detected by BMC at bound "
            f"{instance.bound}"
        )
        return report

    report.bmc_verdict = CEX
    report.cex_length = outcome.counterexample_length
    failure = replay_check_from_run(outcome)
    if failure is not None:
        report.concretized = False
        report.status = STATUS_DISAGREEMENT
        report.failure = failure
        return report
    report.concretized = True
    report.status = STATUS_DETECTED
    return report


def replay_check_from_run(outcome: VerificationOutcome) -> Optional[str]:
    """Replay-check a ``flow.run`` outcome's trace on the model BMC checked."""
    if outcome.trace is None:
        return "BMC reported a counterexample but produced no trace"
    return replay_check(outcome.model, outcome.trace)


def run_control(
    instance: ZooInstance, settings: Optional[OracleSettings] = None
) -> OracleReport:
    """Verify the matching bug-free control produces no false alarm."""
    settings = settings or OracleSettings()
    report = OracleReport(
        family=instance.family,
        recipe={"control_for": instance.recipe.as_dict()},
        flow_kind=instance.flow_kind,
        kind="control",
        status=STATUS_CLEAN,
    )
    flow = make_flow(instance)
    outcome = _run_bmc(
        report,
        flow,
        None,
        min(instance.bound, CONTROL_BOUND),
        settings,
        flow.build_model(None),
    )
    if outcome is None:
        return report
    if outcome.detected is True:
        report.bmc_verdict = CEX
        report.status = STATUS_DISAGREEMENT
        report.failure = "false alarm: BMC refuted a bug-free control"
        return report
    report.bmc_verdict = SAFE if outcome.detected is False else UNKNOWN
    if report.bmc_verdict == UNKNOWN:
        report.status = STATUS_INCONCLUSIVE
    return report
