"""Differential tests for the staged compilation pipeline.

The load-bearing property is *opt-level equivalence*: for any workload the
optimised pipeline (``opt_level=2``: AIG lowering, cone-of-influence
reduction, CNF preprocessing) must return exactly the verdicts — and for
BMC, the same counterexample frame — that the naive reference encoder
(``opt_level=0``) returns, while models keep satisfying the asserted terms.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bmc.engine import BmcEngine, BmcSession
from repro.core.flow import SqedFlow
from repro.errors import SolveError
from repro.isa.config import IsaConfig
from repro.proc.bugs import get_bug
from repro.proc.config import ProcessorConfig
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.solve import PipelineConfig, SolverContext, default_opt_level
from repro.solve.pipeline import ENV_OPT_LEVEL
from repro.ts.coi import reduce_to_property_cone
from repro.ts.system import TransitionSystem

OPT_LEVELS = (0, 1, 2)
W = 5


def _random_term(rng: random.Random, variables, depth: int) -> T.BV:
    """A random bit-vector term of width W over ``variables``."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return T.bv_const(rng.randrange(1 << W), W)
        return rng.choice(variables)
    op = rng.choice(
        ["add", "sub", "mul", "and", "or", "xor", "not", "ite", "shl", "lshr", "ashr"]
    )
    a = _random_term(rng, variables, depth - 1)
    if op == "not":
        return T.bv_not(a)
    b = _random_term(rng, variables, depth - 1)
    if op == "ite":
        cond_kind = rng.choice(["ult", "eq", "slt"])
        c = _random_term(rng, variables, depth - 1)
        d = _random_term(rng, variables, depth - 1)
        cond = {
            "ult": T.bv_ult,
            "eq": T.bv_eq,
            "slt": T.bv_slt,
        }[cond_kind](c, d)
        return T.bv_ite(cond, a, b)
    return {
        "add": T.bv_add,
        "sub": T.bv_sub,
        "mul": T.bv_mul,
        "and": T.bv_and,
        "or": T.bv_or,
        "xor": T.bv_xor,
        "shl": T.bv_shl,
        "lshr": T.bv_lshr,
        "ashr": T.bv_ashr,
    }[op](a, b)


class TestPipelineConfig:
    def test_levels_enable_stages(self):
        assert not PipelineConfig(0).use_aig
        assert not PipelineConfig(0).preprocess
        assert PipelineConfig(1).use_aig and PipelineConfig(1).coi
        assert not PipelineConfig(1).preprocess
        assert PipelineConfig(2).preprocess

    def test_invalid_levels_rejected(self):
        with pytest.raises(SolveError):
            PipelineConfig(3)
        with pytest.raises(SolveError):
            PipelineConfig.resolve("fast")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_OPT_LEVEL, "0")
        assert default_opt_level() == 0
        assert PipelineConfig.resolve(None).opt_level == 0
        monkeypatch.setenv(ENV_OPT_LEVEL, "17")
        with pytest.raises(SolveError):
            default_opt_level()
        monkeypatch.delenv(ENV_OPT_LEVEL)
        assert default_opt_level() == 2


class TestRandomisedDifferential:
    """Evaluator semantics == SAT verdict at opt 0 == opt 1 == opt 2."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_constraint_sets(self, seed):
        rng = random.Random(seed)
        variables = [T.bv_var(f"rd{seed}_{n}", W) for n in "xyz"]
        terms = []
        for _ in range(rng.randint(1, 4)):
            lhs = _random_term(rng, variables, rng.randint(1, 3))
            rhs = _random_term(rng, variables, rng.randint(1, 2))
            kind = rng.choice(["eq", "ult", "ule", "ne"])
            terms.append(
                {
                    "eq": T.bv_eq,
                    "ult": T.bv_ult,
                    "ule": T.bv_ule,
                    "ne": T.bv_ne,
                }[kind](lhs, rhs)
            )
        verdicts = {}
        for opt in OPT_LEVELS:
            ctx = SolverContext(opt_level=opt)
            ctx.add_all(terms)
            result = ctx.check()
            verdicts[opt] = result.satisfiable
            if result.satisfiable:
                model = {
                    var.name: result.model.get(var.name, 0) for var in variables
                }
                for term in terms:
                    assert evaluate(term, model) == 1, (opt, term, model)
        assert verdicts[0] == verdicts[1] == verdicts[2]

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_concrete_evaluation_is_always_sat(self, seed):
        """Asserting term == eval(term, random point) is SAT at every level."""
        rng = random.Random(seed)
        variables = [T.bv_var(f"hd{seed}_{n}", W) for n in "ab"]
        term = _random_term(rng, variables, 3)
        point = {var.name: rng.randrange(1 << W) for var in variables}
        expected = evaluate(term, point)
        pin = [T.bv_eq(var, T.bv_const(point[var.name], W)) for var in variables]
        for opt in OPT_LEVELS:
            ctx = SolverContext(opt_level=opt)
            ctx.add_all(pin)
            ctx.add(T.bv_eq(term, T.bv_const(expected, W)))
            assert ctx.check().satisfiable is True, (opt, seed)
            # ... and pinning the term to any other value is UNSAT.
            other = (expected + 1) & ((1 << W) - 1)
            ctx2 = SolverContext(opt_level=opt)
            ctx2.add_all(pin)
            ctx2.add(T.bv_eq(term, T.bv_const(other, W)))
            assert ctx2.check().satisfiable is False, (opt, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_scoped_and_assumption_queries_agree(self, seed):
        rng = random.Random(seed)
        x = T.bv_var(f"sa{seed}_x", W)
        y = T.bv_var(f"sa{seed}_y", W)
        contexts = {opt: SolverContext(opt_level=opt) for opt in OPT_LEVELS}
        base = T.bv_eq(T.bv_add(x, y), T.bv_const(rng.randrange(1 << W), W))
        for ctx in contexts.values():
            ctx.add(base)
        for _ in range(6):
            constant = rng.randrange(1 << W)
            extra = rng.choice(
                [T.bv_ult(x, T.bv_const(constant, W)), T.bv_eq(y, T.bv_const(constant, W))]
            )
            mode = rng.choice(["scope", "assume"])
            answers = {}
            for opt, ctx in contexts.items():
                if mode == "scope":
                    ctx.push()
                    ctx.add(extra)
                    answers[opt] = ctx.check().satisfiable
                    ctx.pop()
                else:
                    answers[opt] = ctx.check(assumptions=[extra]).satisfiable
            assert answers[0] == answers[1] == answers[2]


class TestModelReconstruction:
    def test_models_evaluate_through_eliminated_variables(self):
        """opt 2 eliminates auxiliary vars; models must stay consistent."""
        x = T.bv_var("mr_x", W)
        y = T.bv_var("mr_y", W)
        terms = [
            T.bv_eq(T.bv_mul(x, y), T.bv_const(12, W)),
            T.bv_ult(x, y),
        ]
        ctx = SolverContext(opt_level=2)
        ctx.add_all(terms)
        result = ctx.check(full_model=True)
        assert result.satisfiable
        assert ctx.encoding_stats().vars_eliminated > 0
        model = {x.name: result.model[x.name], y.name: result.model[y.name]}
        for term in terms:
            assert evaluate(term, model) == 1

    def test_backend_model_extended_over_aux_vars(self):
        """Every emitted clause is satisfied by the extended backend model."""
        x = T.bv_var("ext_x", W)
        y = T.bv_var("ext_y", W)
        ctx = SolverContext(opt_level=2)
        ctx.add(T.bv_eq(T.bv_add(T.bv_mul(x, y), x), T.bv_const(9, W)))
        result = ctx.check()
        assert result.satisfiable
        raw = ctx.backend._solver.solve()  # re-query: state is persistent
        assert raw.satisfiable
        extended = ctx._pre.extend_model(raw.model)
        # The *original* blaster clauses (pre-preprocessing) must all hold
        # under the extended model — that is exactly what reconstruction
        # guarantees and what a naive encoding would have enforced.
        for clause in ctx.blaster.cnf.clauses:
            assert any(
                extended.get(abs(lit), False) == (lit > 0) for lit in clause
            ), clause

    def test_assumption_on_eliminated_variable_restores_it(self):
        x = T.bv_var("rst_x", W)
        y = T.bv_var("rst_y", W)
        ctx = SolverContext(opt_level=2)
        ctx.add(T.bv_ult(x, y))
        assert ctx.check().satisfiable
        # Assumptions force blasting fresh cones whose tops were never seen;
        # restored or not, verdicts must match the naive context.
        naive = SolverContext(opt_level=0)
        naive.add(T.bv_ult(x, y))
        for constant in range(0, 1 << W, 3):
            assumption = T.bv_eq(T.bv_add(x, y), T.bv_const(constant, W))
            assert (
                ctx.check(assumptions=[assumption]).satisfiable
                == naive.check(assumptions=[assumption]).satisfiable
            )


def _counter_with_junk(prefix: str, limit: int, buggy: bool) -> TransitionSystem:
    """The BMC test counter plus state that cannot influence the property."""
    ts = TransitionSystem(name=f"{prefix}_counter")
    count = ts.add_state(f"{prefix}_count", 4, init=0)
    enable = ts.add_input(f"{prefix}_enable", 1)
    incremented = T.bv_add(count, T.bv_const(1, 4))
    if buggy:
        next_count = T.bv_ite(T.bv_eq(enable, T.bv_true()), incremented, count)
    else:
        at_limit = T.bv_ule(T.bv_const(limit, 4), count)
        next_count = T.bv_ite(
            T.bv_and(T.bv_eq(enable, T.bv_true()), T.bv_not(at_limit)),
            incremented,
            count,
        )
    ts.set_next(count, next_count)
    # A wide shift register fed by its own input: reachable from nothing the
    # property observes, so COI must drop all of it.
    junk_in = ts.add_input(f"{prefix}_junk_in", 8)
    previous = junk_in
    for index in range(4):
        stage = ts.add_state(f"{prefix}_junk{index}", 8, init=0)
        ts.set_next(stage, T.bv_add(previous, T.bv_const(index, 8)))
        previous = stage
    ts.add_property("bounded", T.bv_ule(count, T.bv_const(limit, 4)))
    return ts


class TestConeOfInfluence:
    def test_reduction_drops_unobservable_state(self):
        ts = _counter_with_junk("coi_drop", 5, buggy=False)
        reduction = reduce_to_property_cone(ts, "bounded")
        assert reduction.reduced
        assert reduction.kept_states == ["coi_drop_count"]
        assert sorted(reduction.dropped_states) == [
            f"coi_drop_junk{i}" for i in range(4)
        ]
        assert reduction.dropped_inputs == ["coi_drop_junk_in"]
        assert reduction.dropped_state_bits == 32

    def test_constraint_variables_stay_in_cone(self):
        ts = _counter_with_junk("coi_con", 5, buggy=True)
        # A constraint over the junk input forces the whole junk chain to
        # stay only if it feeds the constraint — here only the input does.
        ts.add_constraint(
            T.bv_ult(ts.input_symbol("coi_con_junk_in"), T.bv_const(200, 8))
        )
        reduction = reduce_to_property_cone(ts, "bounded")
        assert "coi_con_junk_in" in reduction.kept_inputs
        assert sorted(reduction.dropped_states) == [
            f"coi_con_junk{i}" for i in range(4)
        ]

    def test_bmc_verdicts_and_frames_match_across_levels(self):
        results = {}
        for opt in OPT_LEVELS:
            engine = BmcEngine(
                _counter_with_junk(f"coi_bmc{opt}", 4, buggy=True), opt_level=opt
            )
            results[opt] = engine.check("bounded", bound=10)
        assert all(r.holds is False for r in results.values())
        frames = {opt: r.bound for opt, r in results.items()}
        lengths = {opt: r.trace.length for opt, r in results.items()}
        assert len(set(frames.values())) == 1, frames
        assert len(set(lengths.values())) == 1, lengths

    def test_reduced_trace_reconstructs_dropped_signals(self):
        result = BmcEngine(
            _counter_with_junk("coi_tr", 4, buggy=True), opt_level=2
        ).check("bounded", bound=10)
        assert result.holds is False
        step0 = result.trace.steps[0]
        # Every state appears, including the dropped ones...
        assert set(step0.states) == {"coi_tr_count"} | {
            f"coi_tr_junk{i}" for i in range(4)
        }
        # ... with values consistent with a run where dropped inputs read 0:
        # junk0@k = junk_in@(k-1) + 0 = 0, junk1@k = junk0@(k-1) + 1, ...
        for step in result.trace.steps:
            assert step.inputs["coi_tr_junk_in"] == 0
        for step in result.trace.steps[2:]:
            assert step.states["coi_tr_junk1"] == 1

    def test_holds_verdict_matches_across_levels(self):
        for opt in OPT_LEVELS:
            result = BmcEngine(
                _counter_with_junk(f"coi_ok{opt}", 5, buggy=False), opt_level=opt
            ).check("bounded", bound=8)
            assert result.holds is True, opt

    def test_encoding_stats_surface_reduction(self):
        session = BmcSession(
            _counter_with_junk("coi_st", 4, buggy=True), "bounded", opt_level=2
        )
        assert session.extend_to(6).holds is False
        # The cone the session encodes is on its reduction; the encoding's
        # sizes are on its context.
        assert session.reduction.dropped_state_bits == 32
        encoding = session.context.encoding_stats()
        assert encoding.aig_nodes > 0
        assert encoding.cnf_clauses_post > 0
        # Note: post may slightly exceed pre on tiny workloads — restoring an
        # eliminated variable re-emits its stored clauses on top of the
        # resolvents already fed to the backend.  The clause-count *win* is
        # asserted on a workload large enough to be meaningful below.

    def test_opt2_encodes_fewer_clauses_than_opt0(self):
        sizes = {}
        for opt in (0, 2):
            session = BmcSession(
                _counter_with_junk(f"coi_sz{opt}", 4, buggy=False),
                "bounded",
                opt_level=opt,
            )
            assert session.extend_to(8).holds is True
            sizes[opt] = session.context.encoding_stats().cnf_clauses_post
        assert sizes[2] < sizes[0], sizes


class TestQedModelAcrossLevels:
    """The SQED model of the 4-bit ADD/SUB core, golden and with a bug."""

    def test_opt2_shrinks_the_encoding_and_keeps_every_verdict(self):
        flow = SqedFlow(
            ProcessorConfig(
                isa=IsaConfig.small(xlen=4, num_regs=4), supported_ops=("ADD", "SUB")
            )
        )

        def session(bug, opt):
            model = flow.build_model(bug)
            return BmcSession(model.ts, model.property_name, opt_level=opt)

        # Encoded, not solved, to bound 10: opt 2 hands the SAT backend at
        # least 20% fewer clauses than the naive encoder.
        clauses = {
            opt: session(None, opt).encode_to(10).cnf_clauses_post for opt in (0, 2)
        }
        assert clauses[2] <= 0.8 * clauses[0], clauses
        # Solved to bound 7, the first bound with the forwarding bug's
        # counterexample: every level gives the same verdict, frame and length.
        for bug, expected in (
            (None, (True, 7, None)),
            (get_bug("multi_no_forward_ex_rs1"), (False, 7, 8)),
        ):
            for opt in OPT_LEVELS:
                result = session(bug, opt).extend_to(7)
                outcome = (result.holds, result.bound, result.counterexample_length)
                assert outcome == expected, (bug, opt, outcome)


class TestCegisAcrossLevels:
    def test_synthesis_agrees_with_naive_pipeline(
        self, monkeypatch, small_isa, small_library
    ):
        from repro.synth.cegis import CegisEngine
        from repro.synth.spec import spec_from_instruction

        spec = spec_from_instruction("XOR", small_isa)
        components = [small_library.by_name(name) for name in ("OR", "AND", "SUB")]
        for opt in OPT_LEVELS:
            monkeypatch.setenv(ENV_OPT_LEVEL, str(opt))
            outcome = CegisEngine().synthesize(spec, components)
            assert outcome.succeeded, opt
            assert CegisEngine().find_counterexample(spec, outcome.program) is None, opt


class TestLevelSelection:
    """``$REPRO_OPT_LEVEL`` is the one level selector above the engines."""

    def test_every_layer_runs_the_level_the_environment_names(
        self, monkeypatch, small_isa, small_library
    ):
        from repro.synth.cegis import CegisEngine
        from repro.synth.spec import spec_from_instruction
        from repro.zoo import OracleSettings, instantiate, run_instance, sample_recipe
        from repro.zoo.oracle import STATUS_DETECTED

        levels = []
        init = SolverContext.__init__

        def recording_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            levels.append(ctx.pipeline.opt_level)

        monkeypatch.setattr(SolverContext, "__init__", recording_init)
        # No default produces level 1, so a layer that picked its own level
        # instead of the environment's would record another one here.
        monkeypatch.setenv(ENV_OPT_LEVEL, "1")
        report = run_instance(
            instantiate(sample_recipe("alu_op_swap", seed=1)),
            OracleSettings(engines=("bmc",)),
        )
        assert report.status == STATUS_DETECTED, report.failure
        spec = spec_from_instruction("XOR", small_isa)
        components = [small_library.by_name(name) for name in ("OR", "AND", "SUB")]
        outcome = CegisEngine().synthesize(spec, components)
        assert outcome.succeeded
        assert CegisEngine().find_counterexample(spec, outcome.program) is None
        assert len(levels) >= 4 and set(levels) == {1}
