"""Tests for transition systems, the unroller, BMC and BTOR2."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.bmc import engine as bmc_engine
from repro.bmc.engine import BmcEngine, BmcSession, build_trace
from repro.btor import parse_btor2, write_btor2
from repro.core.flow import SqedFlow
from repro.errors import BmcError, Btor2Error, TransitionSystemError
from repro.isa.config import IsaConfig
from repro.lint.cli import _gallery, _zoo_targets
from repro.proc.config import ProcessorConfig
from repro.smt import terms as T
from repro.smt.evaluator import evaluate, free_variables, substitute
from repro.solve.pipeline import PipelineConfig
from repro.ts.system import TransitionSystem
from repro.ts.unroll import Unroller


def _counter_system(prefix: str, limit: int, buggy: bool = False) -> TransitionSystem:
    """A saturating 4-bit counter with an enable input.

    Property: the counter never exceeds ``limit``.  The buggy variant skips
    the saturation check, so the property fails once the counter passes it.
    """
    ts = TransitionSystem(name=f"{prefix}_counter")
    count = ts.add_state(f"{prefix}_count", 4, init=0)
    enable = ts.add_input(f"{prefix}_enable", 1)
    incremented = T.bv_add(count, T.bv_const(1, 4))
    if buggy:
        next_count = T.bv_ite(T.bv_eq(enable, T.bv_true()), incremented, count)
    else:
        at_limit = T.bv_ule(T.bv_const(limit, 4), count)
        next_count = T.bv_ite(
            T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)), incremented, count
        )
    ts.set_next(count, next_count)
    ts.add_property("bounded", T.bv_ule(count, T.bv_const(limit, 4)))
    return ts


class TestTransitionSystem:
    def test_duplicate_symbol_rejected(self):
        ts = TransitionSystem()
        ts.add_state("tsx_a", 4, init=0)
        with pytest.raises(TransitionSystemError):
            ts.add_input("tsx_a", 4)

    def test_validate_requires_next(self):
        ts = TransitionSystem()
        ts.add_state("tsx_b", 4, init=0)
        with pytest.raises(TransitionSystemError):
            ts.validate()

    def test_width_checks(self):
        ts = TransitionSystem()
        state = ts.add_state("tsx_c", 4, init=0)
        with pytest.raises(TransitionSystemError):
            ts.set_next(state, T.bv_const(0, 8))
        with pytest.raises(TransitionSystemError):
            ts.add_property("p", T.bv_const(0, 4))

    def test_num_state_bits(self):
        ts = _counter_system("tsx_bits", 5)
        assert ts.num_state_bits() == 4


class TestUnroller:
    def test_concrete_init_propagates_constants(self):
        ts = _counter_system("unr_const", 9)
        unroller = Unroller(ts)
        frame0 = unroller.state_term("unr_const_count", 0)
        assert frame0.is_const and frame0.const_value() == 0

    def test_inputs_get_fresh_symbols_per_frame(self):
        ts = _counter_system("unr_inputs", 9)
        unroller = Unroller(ts)
        assert unroller.input_term("unr_inputs_enable", 0) is not unroller.input_term(
            "unr_inputs_enable", 1
        )

    def test_property_at_frame(self):
        ts = _counter_system("unr_prop", 9)
        unroller = Unroller(ts)
        prop0 = unroller.property_at("bounded", 0)
        assert prop0.is_const and prop0.const_value() == 1

    def test_frame_terms_are_the_fresh_substitution_results(self):
        # Frame k's substitution cache serves every term instantiated at
        # frame k and the next-state terms that build frame k + 1; each
        # result must be the very term a fresh substitution builds.
        # Both kinds of frame 0 are covered: the initial state and a free
        # state (every state a fresh variable).
        config = ProcessorConfig(isa=IsaConfig.small(xlen=4, num_regs=4), supported_ops=("ADD", "SUB"))
        ts = SqedFlow(config).build_model(None).ts
        terms = [*ts.constraints, *ts.properties.values()]
        assert terms
        for initial in (True, False):
            unroller = Unroller(ts, initial=initial)
            previous = None
            for frame in range(5):
                mapping = unroller.frame_mapping(frame)
                for term in terms:
                    assert unroller.at_frame(term, frame).tid == substitute(term, mapping).tid
                for state in ts.states:
                    assert unroller.state_term(state.name, frame).tid == mapping[state.symbol].tid
                    if previous is not None:
                        assert mapping[state.symbol].tid == substitute(state.next, previous).tid
                    elif not initial or state.init is None:
                        assert mapping[state.symbol].is_var
                previous = mapping


class TestBmc:
    def test_good_counter_holds(self):
        result = BmcEngine(_counter_system("bmc_good", 5)).check("bounded", bound=8)
        assert result.holds is True
        assert result.trace is None

    def test_buggy_counter_fails_with_minimal_trace(self):
        result = BmcEngine(_counter_system("bmc_bad", 5, buggy=True)).check("bounded", bound=10)
        assert result.holds is False
        # The counter must be enabled six times to reach 6 > 5 (frames 0..6).
        assert result.trace is not None and result.trace.length == 7
        values = result.trace.values_over_time("bmc_bad_count")
        assert values[-1] == 6

    def test_unknown_property_rejected(self):
        with pytest.raises(BmcError):
            BmcEngine(_counter_system("bmc_unknown", 5)).check("nope", bound=2)

    def test_negative_bound_rejected(self):
        with pytest.raises(BmcError, match="bound must be non-negative"):
            BmcEngine(_counter_system("bmc_neg_bound", 5)).check("bounded", bound=-1)

    def test_negative_conflict_budget_rejected(self):
        # A malformed budget is an error, not an inconclusive run.
        engine = BmcEngine(_counter_system("bmc_neg_budget", 5, buggy=True))
        with pytest.raises(BmcError, match="conflict_budget must be non-negative"):
            engine.check("bounded", bound=8, conflict_budget=-1)

    def test_trace_rendering(self):
        result = BmcEngine(_counter_system("bmc_render", 3, buggy=True)).check("bounded", bound=8)
        text = result.trace.render(["bmc_render_count", "bmc_render_enable"])
        assert "bmc_render_count" in text and "frame" in text

    def test_constraints_restrict_inputs(self):
        ts = _counter_system("bmc_constrained", 5, buggy=True)
        ts.add_constraint(T.bv_eq(ts.input_symbol("bmc_constrained_enable"), T.bv_false()))
        result = BmcEngine(ts).check("bounded", bound=8)
        assert result.holds is True

    @pytest.mark.parametrize(
        "constrained, message",
        [(False, "does not violate"), (True, "violates a constraint at frame 0")],
    )
    def test_certificate_rejects_a_corrupted_model(self, monkeypatch, constrained, message):
        # Zeroing every input of the model keeps the simulated counter at
        # 0, so the trace no longer violates the property; with the enable
        # constrained to 1, it breaks the constraint first.
        real = bmc_engine.build_trace

        def corrupted(ts, unroller, property_name, model, last_frame):
            model = dict(model)
            for frame in range(last_frame + 1):
                model[unroller.input_term("cert_bad_enable", frame).name] = 0
            return real(ts, unroller, property_name, model, last_frame)

        monkeypatch.setattr(bmc_engine, "build_trace", corrupted)
        ts = _counter_system("cert_bad", 5, buggy=True)
        if constrained:
            ts.add_constraint(T.bv_eq(ts.input_symbol("cert_bad_enable"), T.bv_true()))
        with pytest.raises(BmcError, match=message):
            BmcEngine(ts).check("bounded", bound=10)


def _model_over_frames(session: BmcSession, last_frame: int, seed: int) -> dict[str, int]:
    """Random values for every variable of the session's frame terms."""
    rng = random.Random(seed)
    model: dict[str, int] = {}
    for frame in range(last_frame + 1):
        for term in session.unroller.frame_mapping(frame).values():
            for var in free_variables(term):
                model.setdefault(var.name, rng.getrandbits(var.width))
    return model


def _assert_trace_matches_reference(ts, session, model, last_frame):
    """``build_trace`` against the plain unrolling of the original system.

    The reference unrolls ``ts`` itself (no cone, no fold) and evaluates
    it under a model of its own: each frame's inputs and each free
    initial value take the session model's value of the session's
    variable for them (0 for one the session does not unroll or the model
    leaves out), and the rigid symbols their session model values (0 when
    missing).
    """
    trace = build_trace(ts, session.unroller, session.property_name, model, last_frame)
    kept_states = {s.name for s in session.unroller.ts.states}
    kept_inputs = {s.name for s in session.unroller.ts.inputs}
    reference = Unroller(ts)
    assignment: dict[str, int] = {}
    expected_inputs = []
    for frame in range(last_frame + 1):
        inputs = {}
        for symbol in ts.inputs:
            value = 0
            if symbol.name in kept_inputs:
                value = model.get(session.unroller.input_term(symbol.name, frame).name, 0)
            inputs[symbol.name] = value
            assignment[reference.input_term(symbol.name, frame).name] = value
        expected_inputs.append(inputs)
    for state in ts.states:
        if state.init is None:
            value = 0
            if state.name in kept_states:
                value = model.get(session.unroller.state_term(state.name, 0).name, 0)
            assignment[reference.state_term(state.name, 0).name] = value

    def value_of(term):
        env = dict(assignment)
        for var in free_variables(term):
            env.setdefault(var.name, model.get(var.name, 0))
        return evaluate(term, env)

    assert len(trace.steps) == last_frame + 1
    for frame, step in enumerate(trace.steps):
        assert step.frame == frame
        assert step.inputs == expected_inputs[frame], frame
        assert list(step.states) == [s.name for s in ts.states]
        for state in ts.states:
            expected = value_of(reference.state_term(state.name, frame))
            assert step.states[state.name] == expected, (frame, state.name)
    return trace


class TestBuildTrace:
    """A trace is the run of the original system that the model's inputs
    and free initial values fix, whatever cone or fold the session
    unrolled."""

    def test_folded_saturating_counter(self):
        ts = _gallery()["saturating_counter"]()
        session = BmcSession(ts, "bounded", opt_level=PipelineConfig(opt_level=2, absint=True))
        assert session.fold is not None and session.fold.bits_folded > 0
        for seed in range(3):
            model = _model_over_frames(session, 8, seed)
            _assert_trace_matches_reference(ts, session, model, 8)

    def test_coi_reduced_zoo_model_with_dropped_states(self):
        for _, ts in _zoo_targets(2, seed=4242):
            session = BmcSession(ts, "qed_consistency", opt_level=PipelineConfig(opt_level=2))
            if session.reduction is not None and session.reduction.dropped_inputs:
                break
        assert session.reduction.dropped_states
        model = _model_over_frames(session, 5, seed=7)
        _assert_trace_matches_reference(ts, session, model, 5)

    def test_variable_missing_from_the_model_reads_zero(self):
        ts = _counter_system("trace_missing", 5, buggy=True)
        session = BmcSession(ts, "bounded", opt_level=PipelineConfig(opt_level=2))
        model = _model_over_frames(session, 6, seed=3)
        enable = session.unroller.input_term("trace_missing_enable", 2).name
        del model[enable]
        trace = _assert_trace_matches_reference(ts, session, model, 6)
        assert trace.steps[2].inputs["trace_missing_enable"] == 0

    def test_init_terms_read_rigid_symbols(self):
        # The initial values of a and b read each other's symbol: those are
        # rigid symbols of their own, not the latches' initial values.
        ts = parse_btor2(
            (Path(__file__).parent / "data" / "lint" / "init_state_ref.btor2").read_text(),
            name="init_state_ref",
        )
        session = BmcSession(ts, "a_saturates", opt_level=PipelineConfig(opt_level=2))
        for seed in range(3):
            model = _model_over_frames(session, 4, seed)
            trace = _assert_trace_matches_reference(ts, session, model, 4)
            assert trace.steps[0].states == {"a": model["b"], "b": model["a"]}


class TestBtor2:
    def test_roundtrip_counter(self):
        ts = _counter_system("btor_rt", 5, buggy=True)
        text = write_btor2(ts)
        assert "sort bitvec 4" in text and "bad" in text and "next" in text
        parsed = parse_btor2(text, name="parsed_counter")
        # The round-tripped system must reproduce the same BMC verdict.
        original = BmcEngine(ts).check("bounded", bound=8)
        again = BmcEngine(parsed).check("bounded", bound=8)
        assert original.holds == again.holds
        assert original.trace.length == again.trace.length

    def test_writer_declares_free_symbols_as_inputs(self):
        ts = TransitionSystem(name="btor_free")
        state = ts.add_state("btor_free_state", 4, init=0)
        ts.set_next(state, T.bv_add(state, T.bv_var("btor_free_sym", 4)))
        text = write_btor2(ts)
        assert "input" in text and "btor_free_sym" in text

    def test_parser_rejects_unknown_operator(self):
        with pytest.raises(Btor2Error):
            parse_btor2("1 sort bitvec 4\n2 frobnicate 1 1 1\n")

    def test_parse_constants_in_all_bases(self):
        text = "\n".join(
            [
                "1 sort bitvec 8",
                "2 state 1 pstate",
                "3 constd 1 10",
                "4 const 1 00000001",
                "5 consth 1 ff",
                "6 add 1 3 4",
                "7 add 1 6 5",
                "8 next 1 2 7",
                "9 sort bitvec 1",
                "10 input 9 pin",
            ]
        )
        ts = parse_btor2(text)
        assert ts.state_symbol("pstate").width == 8

    def test_qed_model_exports_to_btor2(self, tiny_processor_config):
        """The full SQED verification model serialises to BTOR2."""
        from repro.core.flow import SqedFlow

        model = SqedFlow(tiny_processor_config).build_model()
        text = write_btor2(model.ts)
        assert "bad" in text and "constraint" in text
        assert text.count("state") > 10


class TestCoiEdgeCases:
    """Cone-of-influence reduction on degenerate property shapes.

    Each case checks the contract that matters: the reduced system's BMC
    verdict is identical to the original's.
    """

    def test_property_referencing_no_latches(self):
        from repro.ts.coi import reduce_to_property_cone

        ts = _counter_system("coix_nolatch", 5)
        flag = ts.add_input("coix_nolatch_flag", 1)
        ts.add_property("flag_low", T.bv_not(T.bv_eq(flag, T.bv_true())))
        reduction = reduce_to_property_cone(ts, "flag_low")
        # Every latch is invisible to this property...
        assert reduction.kept_states == []
        assert "coix_nolatch_count" in reduction.dropped_states
        # ...and the verdict survives the reduction (falsified by flag=1).
        original = BmcEngine(ts).check("flag_low", bound=2)
        reduced = BmcEngine(reduction.ts).check("flag_low", bound=2)
        assert original.holds is reduced.holds is False
        assert original.counterexample_length == reduced.counterexample_length

    def test_property_over_inputs_only(self):
        from repro.ts.coi import reduce_to_property_cone

        ts = TransitionSystem(name="coix_inputs_only")
        a = ts.add_input("coix_io_a", 4)
        b = ts.add_input("coix_io_b", 4)
        junk = ts.add_state("coix_io_junk", 4, init=0)
        ts.set_next(junk, T.bv_add(junk, T.bv_const(1, 4)))
        # a <= a|b: holds at every frame with no state involved, and does
        # not constant-fold (unlike e.g. a+b == b+a, which hash-consing
        # normalises away).
        ts.add_property(
            "absorb", T.bv_ule(a, T.bv_or(a, b))
        )
        reduction = reduce_to_property_cone(ts, "absorb")
        assert reduction.kept_states == []
        assert sorted(reduction.kept_inputs) == ["coix_io_a", "coix_io_b"]
        original = BmcEngine(ts).check("absorb", bound=3)
        reduced = BmcEngine(reduction.ts).check("absorb", bound=3)
        assert original.holds is reduced.holds is True

    def test_self_looping_latch(self):
        from repro.ts.coi import reduce_to_property_cone

        ts = TransitionSystem(name="coix_selfloop")
        loop = ts.add_state("coix_sl_loop", 4, init=1)
        # The latch depends only on itself: doubles until it wraps to 0.
        ts.set_next(loop, T.bv_add(loop, loop))
        other = ts.add_state("coix_sl_other", 4, init=0)
        ts.set_next(other, T.bv_add(other, T.bv_const(1, 4)))
        ts.add_property(
            "nonzero", T.bv_not(T.bv_eq(loop, T.bv_const(0, 4)))
        )
        reduction = reduce_to_property_cone(ts, "nonzero")
        # The self-loop must keep the latch live, not drop it as dead.
        assert reduction.kept_states == ["coix_sl_loop"]
        assert reduction.dropped_states == ["coix_sl_other"]
        # 1 -> 2 -> 4 -> 8 -> 0: fails at frame 4 in both systems.
        for bound, expected in ((3, True), (4, False)):
            original = BmcEngine(ts).check("nonzero", bound=bound)
            reduced = BmcEngine(reduction.ts).check("nonzero", bound=bound)
            assert original.holds is reduced.holds is expected


class TestParserDiagnostics:
    def test_error_carries_line_number_and_token(self):
        text = "1 sort bitvec 4\n2 state 1 pdx_r\n3 next 1 2 oops\n"
        with pytest.raises(Btor2Error) as exc_info:
            parse_btor2(text)
        message = str(exc_info.value)
        assert "line 3" in message
        assert "'oops'" in message
        assert "3 next 1 2 oops" in message  # the offending line verbatim

    def test_truncated_line_reports_missing_operand(self):
        with pytest.raises(Btor2Error, match="line 2.*missing"):
            parse_btor2("1 sort bitvec 4\n2 state\n")

    def test_forward_reference_names_the_line(self):
        with pytest.raises(Btor2Error, match="line 1.*before definition"):
            parse_btor2("1 state 7 pdx_fwd\n")

    def test_init_of_non_state_names_the_token(self):
        text = (
            "1 sort bitvec 4\n"
            "2 input 1 pdx_inp\n"
            "3 constd 1 0\n"
            "4 init 1 2 3\n"
        )
        with pytest.raises(Btor2Error, match="line 4.*not a state"):
            parse_btor2(text)

    def test_bad_constant_reports_base(self):
        with pytest.raises(Btor2Error, match="line 2.*base-2"):
            parse_btor2("1 sort bitvec 4\n2 const 1 2001\n")
