"""Solver-facing integration tests of the abstract-interpretation layer.

The layer must be a pure accelerator: with ``absint`` on, BMC folds
proven-constant latch bits out of the encoding and PDR seeds frame-∞
lemmas — but every verdict, bound and counterexample frame must be
identical to the ``absint=False`` run.
These tests pin that contract with explicit :class:`PipelineConfig`
objects, so they hold no matter which leg of the CI matrix they run on.
"""

from __future__ import annotations

import pytest

from repro.absint import analyze, pdr_seed_cubes
from repro.bmc.engine import BmcSession
from repro.lint.cli import _gallery, _zoo_targets
from repro.pdr.engine import PdrEngine
from repro.pdr.invariant import check_invariant
from repro.solve.pipeline import PipelineConfig
from repro.ts.coi import reduce_to_property_cone

#: One config per (opt level, absint) cell of the differential matrix.
MATRIX = [
    PipelineConfig(opt_level=level, absint=absint)
    for level in (0, 1, 2)
    for absint in (False, True)
]


#: Four seeded zoo models: the first two run the whole matrix, the other
#: two the on/off pair at opt 2.
_ZOO = _zoo_targets(4, seed=1234)


def _differential_targets():
    targets = [(name, build()) for name, build in sorted(_gallery().items())]
    targets += _ZOO[:2]
    return targets


def _target_id(value):
    return value if isinstance(value, str) else ""


class TestBmcDifferential:
    @pytest.mark.parametrize("name,ts", _differential_targets(), ids=_target_id)
    def test_verdicts_identical_across_matrix(self, name, ts):
        for prop in ts.properties:
            outcomes = []
            for config in MATRIX:
                session = BmcSession(ts, prop, opt_level=config)
                result = session.extend_to(7)
                outcomes.append(
                    (config, result.holds, result.counterexample_length)
                )
            baseline = outcomes[0][1:]
            for config, *outcome in outcomes[1:]:
                assert tuple(outcome) == baseline, (
                    f"{name}/{prop}: opt_level={config.opt_level} "
                    f"absint={config.absint} diverged: {outcome} != {baseline}"
                )

    @pytest.mark.parametrize("name,ts", _ZOO[2:], ids=_target_id)
    def test_verdicts_identical_with_and_without_absint(self, name, ts):
        for prop in ts.properties:
            outcomes = set()
            for absint in (False, True):
                config = PipelineConfig(opt_level=2, absint=absint)
                result = BmcSession(ts, prop, opt_level=config).extend_to(7)
                outcomes.add((result.holds, result.counterexample_length))
            assert len(outcomes) == 1, f"{name}/{prop}: {outcomes}"

    def test_fold_shrinks_saturating_counter_encoding(self):
        ts = _gallery()["saturating_counter"]()
        sizes = {}
        for absint in (False, True):
            config = PipelineConfig(opt_level=2, absint=absint)
            session = BmcSession(ts, "bounded", opt_level=config)
            sizes[absint] = session.encode_to(10).cnf_clauses_post
        # Bit 3 of the counter folds away, so the on-encoding is strictly
        # smaller — and the matrix test above already pinned the verdict.
        assert sizes[True] < sizes[False]

    def test_fold_is_off_at_level_zero(self):
        ts = _gallery()["saturating_counter"]()
        config = PipelineConfig(opt_level=0, absint=True)
        session = BmcSession(ts, "bounded", opt_level=config)
        assert session.fold is None
        assert not config.use_absint

    def test_folded_counterexample_replays_concretely(self):
        # The buggy counter refutes; the trace from the folded encoding
        # must still drive the *original* system into the violation.
        from repro.smt.evaluator import evaluate

        ts = _gallery()["saturating_counter_buggy"]()
        config = PipelineConfig(opt_level=2, absint=True)
        result = BmcSession(ts, "bounded", opt_level=config).extend_to(10)
        assert result.holds is False
        trace = result.trace
        assert trace is not None
        final = trace.steps[-1]
        env = dict(final.states)
        env.update(final.inputs)
        assert evaluate(ts.properties["bounded"], env) == 0


class TestPdrSeeding:
    def _cfg(self, absint=True):
        return PipelineConfig(opt_level=2, absint=absint)

    def test_auto_seed_admitted_and_proof_checks(self):
        ts = _gallery()["saturating_counter"]()
        engine = PdrEngine(ts, opt_level=self._cfg())
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted >= 1
        check = check_invariant(ts, "bounded", result.invariant)
        assert check.initiation and check.consecution and check.safety

    def test_absint_off_admits_nothing(self):
        ts = _gallery()["saturating_counter"]()
        engine = PdrEngine(ts, opt_level=self._cfg(absint=False))
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0
        assert result.stats.seed_lemmas_rejected == 0

    def test_empty_iterable_disables_seeding(self):
        ts = _gallery()["saturating_counter"]()
        engine = PdrEngine(ts, opt_level=self._cfg(), seed_lemmas=())
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0

    def test_unsound_seed_is_rejected_not_trusted(self):
        # Bit 0 of the counter is NOT stuck: blocking it would be unsound.
        # The consecution filter must reject it and the verdict must hold.
        ts = _gallery()["saturating_counter"]()
        bad = (("d_count", 0, True),)
        engine = PdrEngine(ts, opt_level=self._cfg(), seed_lemmas=[bad])
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0
        assert result.stats.seed_lemmas_rejected >= 1
        check = check_invariant(ts, "bounded", result.invariant)
        assert check.initiation and check.consecution and check.safety

    def test_sound_and_unsound_seeds_mixed(self):
        ts = _gallery()["saturating_counter"]()
        reduced = reduce_to_property_cone(ts, "bounded").ts
        good = pdr_seed_cubes(reduced, analyze(reduced))
        assert good  # bit 3 stuck at 0
        bad = (("d_count", 1, True),)
        engine = PdrEngine(
            ts, opt_level=self._cfg(), seed_lemmas=[*good, bad]
        )
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == len(good)
        assert result.stats.seed_lemmas_rejected == 1

    def test_malformed_seeds_are_skipped_not_fatal(self):
        ts = _gallery()["saturating_counter"]()
        seeds = [
            (("no_such_latch", 0, True),),  # unknown state
            (("d_count", 99, False),),  # bit out of range
            (),  # empty cube
            (("d_count", 3, 1),),  # non-bool polarity
        ]
        engine = PdrEngine(ts, opt_level=self._cfg(), seed_lemmas=seeds)
        result = engine.prove("bounded")
        assert result.proven is True
        assert result.stats.seed_lemmas_admitted == 0
        assert result.stats.seed_lemmas_rejected == len(seeds)

    def test_buggy_design_still_refutes_with_seeding(self):
        ts = _gallery()["saturating_counter_buggy"]()
        for absint in (False, True):
            engine = PdrEngine(ts, opt_level=self._cfg(absint))
            result = engine.prove("bounded")
            assert result.proven is False, f"absint={absint}"
            assert result.trace is not None and result.trace.length == 7

    def test_pipelined_design_verdicts_agree(self):
        # The design whose property is not inductive on its own: seeding
        # must not change the proof outcome in either variant.
        for name, expected in (
            ("pipelined_accumulators", True),
            ("pipelined_accumulators_buggy", False),
        ):
            ts = _gallery()[name]()
            verdicts = set()
            for absint in (False, True):
                result = PdrEngine(ts, opt_level=self._cfg(absint)).prove(
                    "consistent"
                )
                verdicts.add(result.proven)
            assert verdicts == {expected}, name
