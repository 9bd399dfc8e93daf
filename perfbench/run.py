"""The repo benchmark: three seeded SEPE-SQED workloads, measured end to
end and, in a separate traced run, layer by layer.

Usage (from the repository root; needs only the Python standard library)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each *pass* is a fresh worker process (``worker.py``) that draws the
workload's inputs from ``--seed``, runs every operation in that one
process (no ``TaskPool`` fan-out), checks every output outside the timed
section, and reports.  A run repeats passes of the same draw until the
next one would end past ``--seconds`` (at least ``MIN_PASSES``) and
reports medians over its passes.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` operations, and the
metrics with their units.  Failed operations are named on the lines
before it, and the passes' raw figures on the line before those.

Workloads (one operation is one drawn item; costs are single operations
on an unloaded 2-CPU x86-64 host; ``worker.py`` holds the exact draws, and
every draw does the same amount of work):

``hpf-synth``
    HPF-CEGIS (``HpfCegis.synthesize_for``) on an 8-bit datapath, multisets
    of three components, k = 1 program per case within a budget of 32
    multisets, on one shared engine: ADD, then SUB, then one case drawn
    from ADDI, XORI and ORI.  Algorithm 1's priority dictionary carries
    over from case to case, and that is what the workload measures: SUB
    finds nothing from fresh priorities but takes one multiset after ADD,
    and each drawn case takes 29.  The paper's Figure 3 claim, and the only
    workload with no transition system: thousands of small push/pop CEGIS
    queries.  ADD 0.27 s, SUB 0.17 s, the drawn case 3.9-4.1 s.
``bug-hunt``
    One seeded single-instruction bug per target instruction, as in
    Table 1: the first instance of each of the ten SEPE-SQED verification
    configurations in a round-robin draw of the SEPE families
    (``generate_recipes``, 84 recipes, more if those miss a
    configuration), each through ``run_instance`` with the BMC leg only:
    build the mutated model, lint it, run BMC to the first counterexample
    and replay it on the golden ISA executor.  Table 1's user loop: a fresh
    model, COI and absint fixpoint per operation, an UNSAT prefix, then a
    SAT answer and a trace.  0.37-0.5 s per instance.
``golden-pdr``
    ``SqedFlow.prove(None, engine="pdr", max_frames=3)`` on the bug-free
    4-bit, 4-register QED model with a seed-drawn pair of ADD, SUB, XOR,
    OR and AND, plus the nine ``repro.pdr.designs`` gallery designs
    against their known verdicts.  Many cheap, mostly-SAT
    relative-induction and lifting queries with model extension on every
    SAT answer: the query profile of Een, Mishchenko and Brayton (FMCAD
    2011).  5.5 s per golden run (499-527 consecution queries), 0.01-0.3 s
    per gallery design.

End-to-end metrics (``--trace 0``; medians over the run's passes):

``setup_s``
    Seconds from a pass process's start to its first operation: imports,
    configuration, component libraries, drawing and instantiating inputs.
    Given at the reference speed: the measured seconds times
    ``reference.REFERENCE_S`` (20 ms) over the reference's time just after
    set-up, so that host load cancels as in ``wall_refs`` (host load moved
    raw set-up medians from 0.15 s to 0.51 s within six minutes).  The raw
    seconds are printed per pass.
``wall_refs``
    Wall-clock time of all operations of one pass, untraced, in units of
    ``reference.py``'s fixed computation: each operation's seconds over
    the mean of the reference's seconds just before and just after it,
    summed.  The host is shared, and as other tenants load it the same
    pass takes up to 2.5 times as long for seconds to minutes at a time,
    CPU time included; the reference slows alike, so the ratio holds where
    seconds do not: over ten seeds per workload the quartile spread of
    this metric was 0.03-0.11 of its median, and two sets of ten seeds
    agreed within 3.1%, where the spread of raw seconds was 0.2-0.5
    whether taken as a median, mean or per-operation minimum over the
    passes.  The reference never imports the program, so only a
    change to the program moves this figure.  The raw seconds are printed
    per pass, and ``trace.wall_s`` reports them for the traced run.
``peak_rss_mb``
    Peak resident memory of a pass process.  Every pass is a fresh
    process, so hash-consed terms and the COI/absint caches start empty, as
    in a user's session.
``ok_rate``
    Operations whose output checked correct, over operations attempted
    (the complement of the failure rate, which must not read 0).  A
    failure is: ``hpf-synth`` a case with fewer than k programs or a
    program that a fresh ``CegisEngine.find_counterexample`` refutes;
    ``bug-hunt`` anything but ``detected`` with a concretised
    counterexample; ``golden-pdr`` a gallery verdict other than the known
    one, an invariant failing ``check_invariant(..., opt_level=0)``, or a
    golden run returning ``False``; any operation that raises.

Per-layer metrics (``--trace 1``): one traced pass per untraced pass of the
same draw; ``tracer.py`` wraps the layers' public calls from outside the
program.  ``*_s`` values are self times (span time minus child spans) of
the traced pass with the median wall time, counters are deterministic, and
``trace.overhead_ratio`` is traced over untraced ``wall_refs`` minus 1.
Every workload is single-threaded, so every span is on the blocking path
and a layer can save at most its self-time share of ``wall_refs``.

================  =================================================  ==========================  ==============
layer             metrics                                            should move wall_refs on    little work on
================  =================================================  ==========================  ==============
synth             synth.self_s, .cegis_calls, .iterations,           hpf-synth                   the other two
                  .queries, .programs, .hit_rate
zoo               zoo.replay_s, zoo.replays                          bug-hunt                    the other two
lint              lint.self_s, lint.calls                            bug-hunt                    the other two
qed               qed.self_s, qed.calls                              bug-hunt                    hpf-synth
ts                ts.coi_s, ts.unroll_s, ts.unroll_calls             bug-hunt                    hpf-synth
absint            absint.self_s, .calls, .bits_folded                bug-hunt                    hpf-synth,
                                                                                                 golden-pdr
bmc               bmc.self_s, bmc.trace_s, bmc.frames                bug-hunt (UNSAT prefix,     the other two
                                                                     trace)
pdr               pdr.self_s, .frames, .consecution_queries,         golden-pdr                  the other two
                  .bad_queries, .lift_queries, .init_queries,
                  .obligations, .cubes_blocked, .ctgs_blocked,
                  .seeds_admitted
solve             solve.self_s, solve.checks, solve.sat_ratio        golden-pdr, hpf-synth       bug-hunt
smt               smt.blast_s, smt.cnf_clauses, smt.cnf_vars         hpf-synth                   golden-pdr,
                                                                                                 bug-hunt
aig               aig.lower_s, aig.nodes                             as smt                      as smt
sat.preprocess    sat.preprocess.self_s, .extend_s, .extend_calls,   hpf-synth, bug-hunt,
                  .kept_ratio, .vars_eliminated                      golden-pdr (extend_model)
sat               sat.solve_s, .solve_calls, .conflicts,             golden-pdr (decisions,      bug-hunt
                  .decisions, .propagations, .learned                propagations), hpf-synth
(none)            other.self_s, trace.wall_s, trace.overhead_ratio
================  =================================================  ==========================  ==============

How they interact: preprocessing also reshapes the CNF the kernel
searches, so read ``sat.preprocess.self_s`` together with
``sat.conflicts`` and ``sat.solve_s``.  PDR query counts drive
``solve.checks``, ``sat.solve_calls`` and ``sat.preprocess.extend_calls``,
and those drive ``wall_refs`` on ``golden-pdr``; a PDR-only change should
move them there and leave the other workloads alone.  ``smt.cnf_clauses``,
``aig.nodes`` and ``sat.learned`` drive ``peak_rss_mb``; work moved into
start-up shows as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("hpf-synth", "bug-hunt", "golden-pdr")
#: Untraced passes per run, at least: the medians need three.
MIN_PASSES = 3
#: A run stops starting passes that would end past this many seconds.
HARD_LIMIT_S = 160.0


class BenchError(RuntimeError):
    """A pass did not run to completion."""


def unit(name: str) -> str:
    if name.endswith("_refs"):
        return "ref"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    return "count"


def run_pass(args, trace: bool, deadline: float) -> dict:
    """One fresh worker process over the seed's draw; returns its report."""
    # The benchmark measures the default configuration: drop the repo's
    # REPRO_* knobs, and fix string hashing so passes repeat exactly.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}  # selflint: allow-env
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--trace", str(int(trace)),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [*command, "--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {args.workload} pass ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a {args.workload} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def repeat(args, one_pass, minimum: int, deadline: float) -> list:
    """Run ``one_pass`` until the next would end past ``--seconds``."""
    results: list = []
    start = time.monotonic()
    while True:
        results.append(one_pass())
        elapsed = time.monotonic() - start
        projected = elapsed * (len(results) + 1) / len(results)
        if start + projected > deadline:  # selflint: allow-wallclock
            return results
        if len(results) >= minimum and projected > args.seconds:  # selflint: allow-wallclock
            return results


def report(correct: bool, reports: list[dict], metrics: dict) -> dict:
    failures = [failure for r in reports for failure in r["failures"]]
    for failure in sorted(set(failures)):
        print(f"FAILED {failure}")
    return {
        "correct": correct and not failures,
        "attempted": sum(len(r["ops"]) for r in reports),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }


def untraced(args, deadline: float) -> dict:
    passes = repeat(args, lambda: run_pass(args, False, deadline), MIN_PASSES, deadline)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of "
        f"{len(passes[0]['ops'])} operations; wall_s "
        + " ".join(f"{p['wall_s']:.3f}" for p in passes)
        + "; wall_refs "
        + " ".join(f"{p['wall_refs']:.2f}" for p in passes)
        + "; setup_s "
        + " ".join(f"{p['setup_s']:.3f}" for p in passes)
    )
    metrics = {
        "setup_s": statistics.median(p["setup_ref_s"] for p in passes),
        "wall_refs": statistics.median(p["wall_refs"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_rate": (attempted - failed) / attempted,
    }
    return report(True, passes, metrics)


def traced(args, deadline: float) -> dict:
    pairs = repeat(
        args,
        lambda: (run_pass(args, False, deadline), run_pass(args, True, deadline)),
        1,
        deadline,
    )
    plain = [p for p, _ in pairs]
    runs = [t for _, t in pairs]
    # Counters (everything but times) must repeat exactly across passes.
    counters = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in runs]
    repeated = all(c == counters[0] for c in counters)
    if not repeated:
        print("FAILED counters differ between traced passes of one seed")
    chosen = sorted(runs, key=lambda r: r["wall_s"])[(len(runs) - 1) // 2]
    metrics = {name: chosen["layers"][name] for name in LAYER_METRICS}
    metrics["trace.wall_s"] = chosen["wall_s"]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_refs"] for r in runs)
        / statistics.median(p["wall_refs"] for p in plain)
        - 1.0
    )
    print(
        f"{args.workload} seed {args.seed}: {len(pairs)} untraced/traced pass "
        "pairs; traced wall_s "
        + " ".join(f"{r['wall_s']:.3f}" for r in runs)
    )
    return report(repeated, plain + runs, metrics)


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="draw size per pass (tiny: the self-test's)",
    )
    args = parser.parse_args(argv)
    deadline = started + HARD_LIMIT_S
    try:
        result = traced(args, deadline) if args.trace else untraced(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
