"""Outside-in tracer: spans and counters around each layer's public calls.

The benchmark never edits the program.  For a traced pass it wraps the
public entry points of every ``repro`` layer from the outside: methods
are patched on their class, module functions at the name the *caller*
looks up (``from x import f`` copies the binding, so patching ``x.f``
alone would miss those callers).  Each call while recording becomes one
span ``(name, start, end, parent)``; spans stay in memory and are written
out when the pass ends.  A span's self time is its duration minus the
part its child spans cover, so the self times of all spans plus the time
spent in no span add up to the traced wall time exactly.

Counters come from what the wrapped calls return (``SynthesisRun``,
``CegisOutcome``, ``PdrResult.stats``) and from counter deltas around
the call (``BmcSession.stats``, the SAT kernel's ``SolverStats``,
``PreprocessStats``, CNF and lowered-node counts), so every counter is a
deterministic function of the drawn inputs.  Span and metric names use
the package names, so an in-program tracer can later replace these
wrappers without renaming any metric.

Calls timed per layer (see ``run.py`` for the metric -> workload map):

* ``synth``: ``HpfCegis.synthesize_for``, ``CegisEngine.synthesize``
* ``zoo``: ``replay_check_from_run`` as bound in ``repro.zoo.oracle``
* ``lint``: ``lint_transition_system`` as bound in ``repro.zoo.oracle``
* ``qed``: ``SqedFlow.build_model``, ``SepeSqedFlow.build_model``
* ``ts``: ``cached_property_cone`` as bound in ``repro.bmc.engine`` and
  ``repro.lint.model``; ``Unroller.property_at``, ``.constraints_at``
* ``absint``: ``analyze`` as bound in ``repro.absint`` and
  ``repro.lint.model``; ``fold_system``, ``pdr_seed_cubes``
* ``bmc``: ``BmcSession.extend_to``; ``build_trace`` as bound in
  ``repro.bmc.engine``
* ``pdr``: ``PdrEngine.prove``
* ``solve``: ``SolverContext.check``, ``.add``, ``.encode``
* ``smt``: ``BitBlaster.blast``
* ``aig``: ``CnfLowering.materialize``
* ``sat.preprocess``: ``Preprocessor.flush``, ``.require_vars``,
  ``.extend_model``
* ``sat``: ``CdclBackend.solve``

``smt.cnf_clauses`` and ``smt.cnf_vars`` count the CNF the encoder
produced: what ``BitBlaster.blast`` (the naive encoder) and
``CnfLowering.materialize`` (the AIG lowering) added while they ran.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

#: Span name -> the per-layer self-time metric it counts towards.
SPAN_METRIC = {
    "synth.synthesize_for": "synth.self_s",
    "synth.cegis": "synth.self_s",
    "zoo.replay": "zoo.replay_s",
    "lint.model": "lint.self_s",
    "qed.build_model": "qed.self_s",
    "ts.coi": "ts.coi_s",
    "ts.unroll": "ts.unroll_s",
    "absint.analyze": "absint.self_s",
    "absint.fold": "absint.self_s",
    "absint.seed_cubes": "absint.self_s",
    "bmc.extend": "bmc.self_s",
    "bmc.trace": "bmc.trace_s",
    "pdr.prove": "pdr.self_s",
    "solve.check": "solve.self_s",
    "solve.add": "solve.self_s",
    "solve.encode": "solve.self_s",
    "smt.blast": "smt.blast_s",
    "aig.materialize": "aig.lower_s",
    "sat.preprocess.flush": "sat.preprocess.self_s",
    "sat.preprocess.require_vars": "sat.preprocess.self_s",
    "sat.preprocess.extend_model": "sat.preprocess.self_s",
    "sat.solve": "sat.solve_s",
}

#: Self-time metrics, one per layer plus the time in no span; they add up
#: to the traced wall time.
LAYER_TIMES = (
    "synth.self_s",
    "zoo.replay_s",
    "lint.self_s",
    "qed.self_s",
    "ts.coi_s",
    "ts.unroll_s",
    "absint.self_s",
    "bmc.self_s",
    "bmc.trace_s",
    "pdr.self_s",
    "solve.self_s",
    "smt.blast_s",
    "aig.lower_s",
    "sat.preprocess.self_s",
    "sat.solve_s",
    "other.self_s",
)

#: The ``extend_model`` part of ``sat.preprocess.self_s`` (model extension
#: runs on every SAT answer, which is what PDR pays for).
EXTEND_TIME = "sat.preprocess.extend_s"

COUNTERS = (
    "synth.cegis_calls",
    "synth.iterations",
    "synth.queries",
    "synth.programs",
    "zoo.replays",
    "lint.calls",
    "qed.calls",
    "ts.unroll_calls",
    "absint.calls",
    "absint.bits_folded",
    "bmc.frames",
    "pdr.frames",
    "pdr.consecution_queries",
    "pdr.bad_queries",
    "pdr.lift_queries",
    "pdr.init_queries",
    "pdr.obligations",
    "pdr.cubes_blocked",
    "pdr.ctgs_blocked",
    "pdr.seeds_admitted",
    "solve.checks",
    "solve.sat_answers",
    "smt.cnf_clauses",
    "smt.cnf_vars",
    "aig.nodes",
    "sat.preprocess.extend_calls",
    "sat.preprocess.clauses_in",
    "sat.preprocess.clauses_out",
    "sat.preprocess.vars_eliminated",
    "sat.solve_calls",
    "sat.conflicts",
    "sat.decisions",
    "sat.propagations",
    "sat.learned",
)

#: Useful-outcome ratios: name -> (numerator, denominator) counters.
RATIOS = {
    "synth.hit_rate": ("synth.programs", "synth.cegis_calls"),
    "solve.sat_ratio": ("solve.sat_answers", "solve.checks"),
    "sat.preprocess.kept_ratio": (
        "sat.preprocess.clauses_out",
        "sat.preprocess.clauses_in",
    ),
}

#: Every metric a traced pass reports, in output order.
LAYER_METRICS = (*LAYER_TIMES, EXTEND_TIME, *COUNTERS, *RATIOS)


class Tracer:
    """In-memory span recorder plus named counters.

    Wrappers record only while ``active`` is true, so output checks that
    run outside the timed section leave no spans behind.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        """``fn``, recording one ``name`` span per call while active.

        ``on_call(args)`` runs inside the span just before the call and may
        return ``done(result)``, run inside the span just after it; they
        keep the counters.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer, stack = self, self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                done = on_call(args) if on_call is not None else None
                result = fn(*args, **kwargs)
                if done is not None:
                    done(result)
                return result
            finally:
                stack.pop()
                ends[index] = clock()

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name: durations minus child-span durations."""
        count = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        own = list(durations)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[i]
        totals: dict[str, float] = {}
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            totals[name] = totals.get(name, 0.0) + own[i]
        return totals

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric, given the traced pass's wall time."""
        spans = self.self_times()
        out = dict.fromkeys(LAYER_TIMES, 0.0)
        for span, seconds in spans.items():
            out[SPAN_METRIC[span]] += seconds
        out["other.self_s"] = wall_s - sum(spans.values())
        out[EXTEND_TIME] = spans.get("sat.preprocess.extend_model", 0.0)
        for name in COUNTERS:
            out[name] = self.counters[name]
        for name, (num, den) in RATIOS.items():
            out[name] = self.counters[num] / self.counters[den] if self.counters[den] else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as one TSV row: name, start, end, parent row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_s\tend_s\tparent\n")
            for i, nid in enumerate(self.span_name):
                handle.write(
                    f"{self.names[nid]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point listed in the module docstring."""
    from repro.aig.lower import CnfLowering
    from repro.bmc.engine import BmcSession
    from repro.core.flow import SepeSqedFlow, SqedFlow
    from repro.pdr.engine import PdrEngine
    from repro.sat.preprocess import Preprocessor
    from repro.smt.bitblast import BitBlaster
    from repro.solve.backend import CdclBackend
    from repro.solve.context import SolverContext
    from repro.synth.cegis import CegisEngine
    from repro.synth.hpf import HpfCegis
    from repro.ts.unroll import Unroller

    counters = tracer.counters

    def patch(owner, attr: str, name: str, on_call: Optional[Callable] = None) -> None:
        if isinstance(owner, str):
            owner = importlib.import_module(owner)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_call))

    def count(counter: str) -> Callable:
        def on_call(args):
            counters[counter] += 1

        return on_call

    def on_hpf(args):
        def done(run):
            counters["synth.programs"] += len(run.programs)

        return done

    def on_cegis(args):
        counters["synth.cegis_calls"] += 1

        def done(outcome):
            counters["synth.iterations"] += outcome.stats.iterations
            counters["synth.queries"] += (
                outcome.stats.synthesis_queries + outcome.stats.verification_queries
            )

        return done

    patch(HpfCegis, "synthesize_for", "synth.synthesize_for", on_hpf)
    patch(CegisEngine, "synthesize", "synth.cegis", on_cegis)

    patch("repro.zoo.oracle", "replay_check_from_run", "zoo.replay", count("zoo.replays"))
    patch("repro.zoo.oracle", "lint_transition_system", "lint.model", count("lint.calls"))
    patch(SqedFlow, "build_model", "qed.build_model", count("qed.calls"))
    patch(SepeSqedFlow, "build_model", "qed.build_model", count("qed.calls"))

    patch("repro.bmc.engine", "cached_property_cone", "ts.coi")
    patch("repro.lint.model", "cached_property_cone", "ts.coi")
    patch(Unroller, "property_at", "ts.unroll", count("ts.unroll_calls"))
    patch(Unroller, "constraints_at", "ts.unroll", count("ts.unroll_calls"))

    def on_fold(args):
        counters["absint.calls"] += 1

        def done(fold):
            if fold is not None:
                counters["absint.bits_folded"] += fold.bits_folded

        return done

    patch("repro.absint", "analyze", "absint.analyze", count("absint.calls"))
    patch("repro.lint.model", "analyze", "absint.analyze", count("absint.calls"))
    patch("repro.absint", "fold_system", "absint.fold", on_fold)
    patch("repro.absint", "pdr_seed_cubes", "absint.seed_cubes", count("absint.calls"))

    def on_extend(args):
        session = args[0]
        before = session.stats.frames_checked

        def done(result):
            counters["bmc.frames"] += session.stats.frames_checked - before

        return done

    patch(BmcSession, "extend_to", "bmc.extend", on_extend)
    patch("repro.bmc.engine", "build_trace", "bmc.trace")

    def on_pdr(args):
        def done(result):
            stats = result.stats
            counters["pdr.frames"] += result.frames_explored
            counters["pdr.consecution_queries"] += stats.consecution_queries
            counters["pdr.bad_queries"] += stats.bad_queries
            counters["pdr.lift_queries"] += stats.lift_queries
            counters["pdr.init_queries"] += stats.init_queries
            counters["pdr.obligations"] += stats.obligations
            counters["pdr.cubes_blocked"] += stats.cubes_blocked
            counters["pdr.ctgs_blocked"] += stats.ctgs_blocked
            counters["pdr.seeds_admitted"] += stats.seed_lemmas_admitted

        return done

    patch(PdrEngine, "prove", "pdr.prove", on_pdr)

    def on_check(args):
        counters["solve.checks"] += 1

        def done(result):
            counters["solve.sat_answers"] += bool(result.satisfiable)

        return done

    patch(SolverContext, "check", "solve.check", on_check)
    patch(SolverContext, "add", "solve.add")
    patch(SolverContext, "encode", "solve.encode")

    def on_encode(args):
        cnf = args[0].cnf
        clauses, num_vars = len(cnf.clauses), cnf.num_vars

        def done(result):
            counters["smt.cnf_clauses"] += len(cnf.clauses) - clauses
            counters["smt.cnf_vars"] += cnf.num_vars - num_vars

        return done

    def on_lower(args):
        lowering = args[0]
        nodes = lowering.nodes_lowered
        encoded = on_encode(args)

        def done(result):
            encoded(result)
            counters["aig.nodes"] += lowering.nodes_lowered - nodes

        return done

    patch(BitBlaster, "blast", "smt.blast", on_encode)
    patch(CnfLowering, "materialize", "aig.materialize", on_lower)

    def on_flush(args):
        stats = args[0].stats
        before = (stats.clauses_in, stats.clauses_emitted, stats.vars_eliminated)

        def done(result):
            counters["sat.preprocess.clauses_in"] += stats.clauses_in - before[0]
            counters["sat.preprocess.clauses_out"] += stats.clauses_emitted - before[1]
            counters["sat.preprocess.vars_eliminated"] += stats.vars_eliminated - before[2]

        return done

    patch(Preprocessor, "flush", "sat.preprocess.flush", on_flush)
    patch(Preprocessor, "require_vars", "sat.preprocess.require_vars")
    patch(
        Preprocessor,
        "extend_model",
        "sat.preprocess.extend_model",
        count("sat.preprocess.extend_calls"),
    )

    def on_solve(args):
        backend = args[0]
        stats = backend.stats
        before = (stats.conflicts, stats.decisions, stats.propagations, stats.learned_clauses)
        counters["sat.solve_calls"] += 1

        def done(result):
            after = backend.stats
            counters["sat.conflicts"] += after.conflicts - before[0]
            counters["sat.decisions"] += after.decisions - before[1]
            counters["sat.propagations"] += after.propagations - before[2]
            counters["sat.learned"] += after.learned_clauses - before[3]

        return done

    patch(CdclBackend, "solve", "sat.solve", on_solve)
