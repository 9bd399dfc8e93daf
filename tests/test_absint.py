"""Tests for the abstract-interpretation engine (:mod:`repro.absint`).

Covers the domain algebra (normalisation, lattice laws), the transfer
functions (fuzzed against the concrete evaluator), the fixpoint on the
design gallery (every fact cross-checked by bounded random simulation),
the engine-backed lint rules, and the ``python -m repro.absint`` CLI.
The solver-integration layers (BMC fold, PDR seeding) live in
``test_absint_integration.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.absint import (
    analyze,
    latch_facts,
    pdr_seed_cubes,
    validate_by_simulation,
)
from repro.absint import domains as D
from repro.absint import fixpoint
from repro.absint.fixpoint import Analysis
from repro.absint.transfer import TransitionEvaluator, abstract_eval
from repro.core.flow import SqedFlow
from repro.isa.config import IsaConfig
from repro.lint.cli import _gallery, _zoo_targets
from repro.lint.model import _sequentially_constant, lint_transition_system
from repro.proc.config import ProcessorConfig
from repro.smt import terms as T
from repro.smt.evaluator import evaluate
from repro.ts.coi import reduce_to_property_cone
from repro.ts.system import TransitionSystem
from repro.utils.bitops import mask

REPO_ROOT = Path(__file__).parent.parent


def _concretize(value: D.AbstractValue) -> set[int]:
    """The exact concretization of a (small-width) abstract value."""
    return {x for x in range(1 << value.width) if value.contains(x)}


def _random_value(rng: random.Random, width: int) -> D.AbstractValue:
    """A random *consistent* abstract value built from concrete samples."""
    samples = [rng.getrandbits(width) for _ in range(rng.randint(1, 3))]
    value = D.const(width, samples[0])
    for sample in samples[1:]:
        value = D.join(value, D.const(width, sample))
    return value


class TestDomains:
    def test_const_top_bottom_invariants(self):
        five = D.const(4, 5)
        assert five.is_const and five.const_value() == 5
        assert five.contains(5) and not five.contains(6)
        assert D.top(4).is_top and D.top(4).contains(11)
        assert D.bottom(4).is_bottom and not D.bottom(4).contains(0)
        assert D.top(4).unknown_count == 4 and five.unknown_count == 0

    def test_make_normalises_without_losing_members(self):
        # make() tightens each component against the others (reduced
        # product); the concretization it denotes must stay exactly the
        # intersection of the raw bit and interval constraints.
        rng = random.Random(7)
        for _ in range(300):
            w = rng.randint(1, 5)
            known = rng.getrandbits(w)
            bits = rng.getrandbits(w) & known
            lo = rng.getrandbits(w)
            hi = rng.getrandbits(w)
            lo, hi = min(lo, hi), max(lo, hi)
            raw = {
                x
                for x in range(1 << w)
                if (x & known) == bits and lo <= x <= hi
            }
            value = D.make(w, known, bits, lo, hi)
            assert _concretize(value) == raw

    def test_join_is_an_upper_bound(self):
        rng = random.Random(11)
        for _ in range(200):
            w = rng.randint(1, 5)
            a, b = _random_value(rng, w), _random_value(rng, w)
            joined = D.join(a, b)
            assert _concretize(joined) >= _concretize(a) | _concretize(b)
            assert D.subsumes(joined, a) and D.subsumes(joined, b)

    def test_meet_contains_the_intersection(self):
        rng = random.Random(13)
        for _ in range(200):
            w = rng.randint(1, 5)
            a, b = _random_value(rng, w), _random_value(rng, w)
            met = D.meet(a, b)
            assert _concretize(met) >= _concretize(a) & _concretize(b)
            assert D.subsumes(a, met) and D.subsumes(b, met)

    def test_widen_is_an_upper_bound_and_terminates(self):
        rng = random.Random(17)
        for _ in range(100):
            w = rng.randint(1, 6)
            value = _random_value(rng, w)
            # An arbitrary ascending chain must stabilise in finitely many
            # widening steps (this is what guarantees fixpoint termination).
            for step in range(4 * w + 8):
                bumped = D.join(value, D.const(w, rng.getrandbits(w)))
                widened = D.widen(value, bumped)
                assert D.subsumes(widened, value)
                assert D.subsumes(widened, bumped)
                if widened == value:
                    break
                value = widened
            else:
                pytest.fail("widening chain did not stabilise")

    def test_subsumes_matches_set_inclusion(self):
        rng = random.Random(19)
        for _ in range(200):
            w = rng.randint(1, 5)
            a, b = _random_value(rng, w), _random_value(rng, w)
            if D.subsumes(a, b):
                assert _concretize(a) >= _concretize(b)


def _random_term(rng: random.Random, variables: list, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return T.bv_const(rng.getrandbits(4), 4)
        return rng.choice(variables)
    op = rng.choice(
        [
            "not", "and", "or", "xor", "add", "sub", "mul", "neg",
            "eq", "ult", "slt", "ite", "concat_extract", "zext_extract",
            "shl", "lshr", "ashr",
        ]
    )
    a = _random_term(rng, variables, depth - 1)
    b = _random_term(rng, variables, depth - 1)
    if op == "not":
        return T.bv_not(a)
    if op == "neg":
        return T.bv_neg(a)
    if op == "and":
        return T.bv_and(a, b)
    if op == "or":
        return T.bv_or(a, b)
    if op == "xor":
        return T.bv_xor(a, b)
    if op == "add":
        return T.bv_add(a, b)
    if op == "sub":
        return T.bv_sub(a, b)
    if op == "mul":
        return T.bv_mul(a, b)
    if op == "eq":
        return T.bv_zext(T.bv_eq(a, b), 4)
    if op == "ult":
        return T.bv_zext(T.bv_ult(a, b), 4)
    if op == "slt":
        return T.bv_zext(T.bv_slt(a, b), 4)
    if op == "ite":
        cond = T.bv_extract(_random_term(rng, variables, depth - 1), 0, 0)
        return T.bv_ite(cond, a, b)
    if op == "concat_extract":
        return T.bv_concat(T.bv_extract(a, 1, 0), T.bv_extract(b, 1, 0))
    if op == "zext_extract":
        return T.bv_zext(T.bv_extract(a, 2, 0), 4)
    amount = T.bv_const(rng.randint(0, 5), 4)
    if op == "shl":
        return T.bv_shl(a, amount)
    if op == "lshr":
        return T.bv_lshr(a, amount)
    return T.bv_ashr(a, amount)


class TestTransfer:
    def test_abstract_eval_contains_concrete_eval(self):
        # Soundness fuzz: for random terms and random abstract variable
        # environments, every concrete evaluation drawn from the abstract
        # environment must land inside the abstract result.
        rng = random.Random(101)
        names = ["fz_a", "fz_b", "fz_c"]
        variables = [T.bv_var(name, 4) for name in names]
        for round_index in range(250):
            term = _random_term(rng, variables, depth=3)
            samples = {name: [rng.getrandbits(4) for _ in range(2)] for name in names}
            abstract_env = {
                name: D.join(D.const(4, vals[0]), D.const(4, vals[1]))
                for name, vals in samples.items()
            }
            abstract = abstract_eval(term, abstract_env)
            assert abstract.width == term.width
            for _ in range(4):
                concrete_env = {
                    name: rng.choice(vals) for name, vals in samples.items()
                }
                concrete = evaluate(term, concrete_env)
                assert abstract.contains(concrete), (
                    f"round {round_index}: {concrete:#x} escapes "
                    f"{abstract.describe()}"
                )

    def test_constant_folding_through_cache(self):
        a = T.bv_const(3, 4)
        b = T.bv_const(4, 4)
        cache: dict = {}
        value = abstract_eval(T.bv_add(a, b), {}, cache)
        assert value.is_const and value.const_value() == 7
        # The shared cache is keyed by term id (tid) and readable back.
        assert cache[T.bv_add(a, b).tid] == value


class TestFixpointGallery:
    @pytest.mark.parametrize("name", sorted(_gallery()))
    def test_facts_subsume_simulation(self, name):
        # The simulation oracle raises AbsintError on the first unsound
        # fact; 120 random runs per design is the satellite's floor.
        ts = _gallery()[name]()
        analysis = analyze(ts)
        # The seed derives from the name by CRC-32, not hash(), so it is
        # the same in every process and a failure can be re-run.
        checks = validate_by_simulation(
            ts, analysis, runs=120, steps=10, seed=zlib.crc32(name.encode()) & 0xFFFF
        )
        assert checks > 0
        assert analysis.iterations > 0

    def test_saturating_counter_facts(self):
        ts = _gallery()["saturating_counter"]()
        analysis = analyze(ts)
        value = analysis.value_of("d_count")
        # The counter saturates at 5, so bit 3 is provably stuck at zero
        # and the interval is [0, 5].
        assert (value.known >> 3) & 1 == 1
        assert (value.bits >> 3) & 1 == 0
        assert (value.lo, value.hi) == (0, 5)
        assert analysis.properties["bounded"].is_const
        assert analysis.properties["bounded"].const_value() == 1
        assert pdr_seed_cubes(ts, analysis) == [(("d_count", 3, True),)]

    def test_engine_no_weaker_than_syntactic_seq_const(self):
        # The fixpoint must find every latch the old syntactic greatest-
        # fixpoint rule found, on the gallery and on zoo instances.
        targets = [(name, build()) for name, build in sorted(_gallery().items())]
        targets += _zoo_targets(4, seed=2024)
        for name, ts in targets:
            syntactic = _sequentially_constant(
                ts, {s.name: s for s in ts.states}
            )
            analysis = analyze(ts)
            assert set(analysis.seq_const) >= syntactic, name
            for latch, value in analysis.seq_const.items():
                assert analysis.value_of(latch).const_value() == value


def _analysis_from_cold_caches(ts, monkeypatch) -> Analysis:
    """The fixpoint of ``ts`` with every evaluator lookup forced to miss.

    Each evaluation and each branch refinement starts from empty caches,
    so every value is walked afresh: the reference the memoised run must
    equal field by field.
    """
    value, refine = TransitionEvaluator.value, TransitionEvaluator._refine

    def forget(evaluator):
        evaluator._base.clear()
        evaluator._refinements.clear()
        for _, cache in evaluator._levels:
            cache.clear()

    def cold_value(self, term):
        forget(self)
        return value(self, term)

    def cold_refine(self, cond, assumed):
        forget(self)
        return refine(self, cond, assumed)

    with monkeypatch.context() as patch:
        patch.setattr(TransitionEvaluator, "value", cold_value)
        patch.setattr(TransitionEvaluator, "_refine", cold_refine)
        return fixpoint._run(ts)


def _assert_same_analysis(memoised: Analysis, cold: Analysis, name: str) -> None:
    for f in dataclasses.fields(Analysis):
        assert getattr(memoised, f.name) == getattr(cold, f.name), (name, f.name)


def _identity_targets():
    targets = [(f"design:{n}", build()) for n, build in sorted(_gallery().items())]
    golden = SqedFlow(
        ProcessorConfig(isa=IsaConfig.small(xlen=4, num_regs=4), supported_ops=("ADD", "SUB"))
    ).build_model(None)
    targets.append(("golden-qed-4bit", golden.ts))
    zoo = _zoo_targets(6, seed=4242)
    targets += zoo
    for name, ts in zoo:
        for prop in ts.properties:
            cone = reduce_to_property_cone(ts, prop)
            if cone.reduced:
                targets.append((f"{name}#coi[{prop}]", cone.ts))
    return targets


def _random_guard(rng: random.Random, flags: list, words: list, depth: int = 2):
    """A width-1 guard in one of the shapes branch refinement reads."""
    shapes = ["var", "eq", "ult"] + (["not", "and", "or"] if depth > 0 else [])
    shape = rng.choice(shapes)
    if shape == "var":
        return rng.choice(flags)
    if shape == "not":
        return T.bv_not(_random_guard(rng, flags, words, depth - 1))
    if shape in ("and", "or"):
        a = _random_guard(rng, flags, words, depth - 1)
        b = _random_guard(rng, flags, words, depth - 1)
        return T.bv_and(a, b) if shape == "and" else T.bv_or(a, b)
    # A variable operand, so the refinement has a leaf to narrow.
    a, b = rng.choice(words), _random_term(rng, words, depth=1)
    if rng.random() < 0.5:
        a, b = b, a
    return T.bv_eq(a, b) if shape == "eq" else T.bv_ult(a, b)


def _random_system(seed: int) -> TransitionSystem:
    """Random latches whose next functions are ITE spines over shared terms.

    Three 4-bit latches read each other and two inputs; a free-running
    counter only widening bounds; a saturating counter whose guard the
    refinement narrows; and a 1-bit latch that serves as a guard itself.
    """
    rng = random.Random(seed)
    p = f"fxs{seed}_"
    ts = TransitionSystem(name=f"fuzz{seed}")
    inputs = [ts.add_input(f"{p}in{k}", 4) for k in range(2)]
    enable = ts.add_input(f"{p}en", 1)
    flag = ts.add_state(f"{p}flag", 1, init=rng.getrandbits(1))
    words = [ts.add_state(f"{p}w{k}", 4, init=rng.getrandbits(4)) for k in range(3)]
    count = ts.add_state(f"{p}count", 4, init=0)
    sat = ts.add_state(f"{p}sat", 4, init=0)
    flags = [enable, flag]
    leaves = words + inputs + [count, sat]
    # Guards drawn from a shared pool meet each other at different spine
    # depths, in the base environment and inside refined branches.
    pool = [_random_guard(rng, flags, leaves) for _ in range(4)]
    for word in words:
        term = rng.choice([word, _random_term(rng, leaves, depth=2)])
        for _ in range(rng.randint(1, 3)):
            update = _random_term(rng, leaves, depth=2)
            guard = rng.choice(pool) if rng.random() < 0.7 else _random_guard(rng, flags, leaves)
            term = T.bv_ite(guard, update, term) if rng.random() < 0.5 else T.bv_ite(guard, term, update)
        ts.set_next(word, term)
    ts.set_next(count, T.bv_add(count, T.bv_const(1, 4)))
    limit = T.bv_const(rng.randint(2, 12), 4)
    saturating = T.bv_ite(T.bv_ult(sat, limit), T.bv_add(sat, T.bv_const(1, 4)), sat)
    ts.set_next(sat, T.bv_ite(_random_guard(rng, flags, leaves), saturating, sat))
    ts.set_next(flag, _random_guard(rng, flags, leaves))
    ts.add_property("low", T.bv_ult(words[0], T.bv_const(rng.randint(1, 15), 4)))
    ts.add_property("sat_bound", T.bv_ule(sat, limit))
    return ts


class TestMemoisedFixpoint:
    """The evaluator's caches change no field of any analysis."""

    @pytest.mark.parametrize(
        "name,ts", _identity_targets(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_same_analysis_as_cold_caches(self, name, ts, monkeypatch):
        _assert_same_analysis(analyze(ts), _analysis_from_cold_caches(ts, monkeypatch), name)

    def test_random_systems_same_analysis_as_cold_caches(self, monkeypatch):
        guard_ops: set[str] = set()
        widenings = 0
        for seed in range(60):
            ts = _random_system(seed)
            for s in ts.states:
                node = s.next
                while node.op == T.OP_ITE:
                    guard_ops.add(node.args[0].op)
                    node = node.args[2] if node.args[2].op == T.OP_ITE else node.args[1]
            memoised = fixpoint._run(ts)
            _assert_same_analysis(memoised, _analysis_from_cold_caches(ts, monkeypatch), ts.name)
            widenings += memoised.widenings
        # Every refinement shape occurs as a guard, and counters widen.
        assert guard_ops >= {T.OP_VAR, T.OP_NOT, T.OP_AND, T.OP_OR, T.OP_EQ, T.OP_ULT}
        assert widenings > 0

    def test_refinement_inside_a_branch_starts_from_the_branch(self, monkeypatch):
        # ``x < in1`` heads the spine of ``a`` and recurs inside the
        # ``x < 4`` branch of ``b``, where x is already [0, 3].  There the
        # refinement must start from [0, 3], not reuse the one made in
        # the base environment, or ``b`` widens to [0, 14].
        ts = TransitionSystem(name="nested_guards")
        in0 = ts.add_input("nstg_in0", 4)
        in1 = ts.add_input("nstg_in1", 4)
        x = ts.add_state("nstg_x", 4, init=0)
        a = ts.add_state("nstg_a", 4, init=0)
        b = ts.add_state("nstg_b", 4, init=0)
        zero = T.bv_const(0, 4)
        inner = T.bv_ite(T.bv_ult(x, in1), x, zero)
        ts.set_next(x, in0)
        ts.set_next(a, inner)
        ts.set_next(b, T.bv_ite(T.bv_ult(x, T.bv_const(4, 4)), inner, zero))
        ts.add_property("b_small", T.bv_ult(b, T.bv_const(4, 4)))
        analysis = analyze(ts)
        value = analysis.latches["nstg_b"]
        assert (value.lo, value.hi) == (0, 3)
        _assert_same_analysis(analysis, _analysis_from_cold_caches(ts, monkeypatch), ts.name)


class TestWorklistOrder:
    def test_analysis_does_not_depend_on_string_hashing(self):
        # Dependents are queued in state order, so the number of worklist
        # steps is the same whatever PYTHONHASHSEED orders sets of names.
        script = (
            "import json\n"
            "from repro.absint import analyze\n"
            "from repro.lint.cli import _zoo_targets\n"
            "(_, ts), = _zoo_targets(1, seed=7)\n"
            "a = analyze(ts)\n"
            "latches = sorted((n, v.known, v.bits, v.lo, v.hi) for n, v in a.latches.items())\n"
            "print(json.dumps([a.iterations, latches]))\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = {
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "PYTHONDONTWRITEBYTECODE": "1",
                "PYTHONHASHSEED": hash_seed,
            }
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]


class TestLintRules:
    def test_new_rules_fire_on_saturating_counter(self):
        report = lint_transition_system(_gallery()["saturating_counter"]())
        rules = {f.rule for f in report.findings}
        assert "model.bit-stuck-latch" in rules
        assert "model.unreachable-property-violation" in rules
        assert "model.interval-overflow-impossible" in rules
        # All three are informational facts, not defects.
        for finding in report.findings:
            assert finding.severity == "info", finding

    def test_bit_stuck_message_shows_pattern(self):
        report = lint_transition_system(_gallery()["saturating_counter"]())
        stuck = [
            f for f in report.findings if f.rule == "model.bit-stuck-latch"
        ]
        assert len(stuck) == 1
        assert "0xxx" in stuck[0].message

    def test_buggy_counter_property_not_claimed_unreachable(self):
        # The buggy variant violates the property, so the abstract value
        # must not be constant-true and the INFO rule must stay silent.
        report = lint_transition_system(_gallery()["saturating_counter_buggy"]())
        rules = {f.rule for f in report.findings}
        assert "model.unreachable-property-violation" not in rules

    def test_seq_const_fixture_still_fires_with_same_message(self):
        from repro.btor.parser import parse_btor2

        path = REPO_ROOT / "tests" / "data" / "lint" / "seq_const_latch.btor2"
        ts = parse_btor2(path.read_text(), name=path.stem)
        report = lint_transition_system(ts)
        found = [f for f in report.findings if f.rule == "model.seq-const-latch"]
        assert len(found) == 1
        assert "stuck at its initial value" in found[0].message


class TestCli:
    def _run(self, *args: str) -> subprocess.CompletedProcess:
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        return subprocess.run(
            [sys.executable, "-m", "repro.absint", *args],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
            timeout=300,
        )

    def test_design_json_report(self):
        proc = self._run("--design", "saturating_counter", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        (summary,) = payload["targets"].values()
        assert summary["latches"] == 1
        assert summary["known_bits"] >= 1
        assert "d_count" in summary["values"]
        assert summary["properties"]["bounded"] == "const 0x1"
        assert payload["total_facts"] >= 1

    def test_gallery_with_validation(self):
        proc = self._run("--design", "all", "--validate", "10")
        assert proc.returncode == 0, proc.stderr
        assert "saturating_counter" in proc.stdout
        assert "simulation" in proc.stdout.lower()

    def test_btor2_file_target(self):
        path = REPO_ROOT / "tests" / "data" / "lint" / "seq_const_latch.btor2"
        proc = self._run(str(path), "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        (summary,) = payload["targets"].values()
        assert summary["seq_const_latches"]

    def test_missing_file_exits_2(self):
        proc = self._run("no_such_model.btor2")
        assert proc.returncode == 2

    def test_unknown_design_exits_2(self):
        proc = self._run("--design", "definitely_not_a_design")
        assert proc.returncode == 2

    def test_no_targets_exits_2(self):
        proc = self._run()
        assert proc.returncode == 2
        assert "nothing to analyze" in proc.stderr
