"""Benchmark: substrate micro-benchmarks (SAT, bit-blasting, BMC).

Not a paper table — these track the performance of the from-scratch
infrastructure the reproduction stands on, so regressions in the solver or
the bit-blaster are visible independently of the end-to-end experiments.
"""

from __future__ import annotations

import random

from repro.sat.cnf import CNF
from repro.sat.solver import SatSolver
from repro.smt import terms as T
from repro.solve.context import SolverContext
from repro.bmc.engine import BmcEngine
from repro.ts.system import TransitionSystem


def test_sat_random_3sat(benchmark):
    """CDCL on a satisfiable random 3-SAT instance near the phase transition."""
    rng = random.Random(42)
    num_vars = 60
    clauses = []
    for _ in range(int(num_vars * 3.5)):
        lits = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([l if rng.random() < 0.5 else -l for l in lits])

    def solve():
        return SatSolver(CNF(clauses, num_vars=num_vars)).solve()

    result = benchmark(solve)
    assert result.satisfiable is not None


def test_bitblast_adder_chain_validity(benchmark):
    """Prove an 8-bit associativity identity by bit-blasting + CDCL."""
    a = T.bv_var("bench_a", 8)
    b = T.bv_var("bench_b", 8)
    c = T.bv_var("bench_c", 8)
    identity = T.bv_eq(T.bv_add(T.bv_add(a, b), c), T.bv_add(a, T.bv_add(b, c)))

    def valid():
        solver = SolverContext()
        solver.add(T.bv_not(identity))
        return not solver.check().satisfiable

    assert benchmark(valid)


def test_bmc_counter_unrolling(benchmark):
    """BMC on a 4-bit counter: finds the bound-6 overflow counterexample."""

    def run():
        ts = TransitionSystem(name="bench_counter")
        count = ts.add_state(f"bench_count_{run.counter}", 4, init=0)
        run.counter += 1
        enable = ts.add_input(f"bench_enable_{run.counter}", 1)
        ts.set_next(count, T.bv_ite(T.bv_eq(enable, T.bv_true()),
                                    T.bv_add(count, T.bv_const(1, 4)), count))
        ts.add_property("bounded", T.bv_ule(count, T.bv_const(5, 4)))
        return BmcEngine(ts).check("bounded", bound=10)

    run.counter = 0
    result = benchmark(run)
    assert result.holds is False and result.trace.length == 7
