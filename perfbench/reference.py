"""A fixed reference computation that gauges the host's current speed.

The benchmark host is shared: as other tenants load its cores, the same
pass of the same draw takes up to 2.5 times as long, for seconds to
minutes at a time, and CPU time rises with wall time (the cores run
slower; the process is not descheduled).  So a pass also times this
computation just before and just after every operation, and the
end-to-end wall metric is each operation's time over the reference time
around it.  Host load slows both alike and cancels; a change to the
program changes only the numerator.

The reference is the benchmark's own code and never imports the program,
so no change to the program moves it.  Its three parts mimic the
program's hot paths in pure Python: an integer loop, a hash-consed node
table, and watched-clause unit propagation over a fixed random 3-SAT
instance.  Together they take about 20 ms on an unloaded 2-CPU x86-64
host.
"""

from __future__ import annotations

import random
import time
from array import array


def _integer_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a, b) -> None:
        self.op, self.a, self.b = op, a, b


def _hash_cons() -> int:
    rng = random.Random(7)
    nodes = [_Node("var", None, i) for i in range(64)]
    table: dict = {}
    for _ in range(3_000):
        a = nodes[rng.randrange(len(nodes))]
        b = nodes[rng.randrange(len(nodes))]
        key = ("and", id(a), id(b))
        if key not in table:
            table[key] = node = _Node("and", a, b)
            nodes.append(node)
    return len(table)


def _unit_propagation() -> int:
    rng = random.Random(11)
    num_vars = 300
    clauses = [
        [rng.choice((1, -1)) * rng.randrange(1, num_vars + 1) for _ in range(3)]
        for _ in range(1200)
    ]
    watches: dict[int, list[int]] = {}
    for index, clause in enumerate(clauses):
        for lit in clause[:2]:
            watches.setdefault(-lit, []).append(index)
    visited = 0
    for _ in range(12):
        value = array("b", [0]) * (num_vars + 1)
        trail: list[int] = []
        order = list(range(1, num_vars + 1))
        rng.shuffle(order)
        for var in order:
            if value[var]:
                continue
            trail.append(var if rng.random() < 0.5 else -var)
            value[var] = 1 if trail[-1] > 0 else -1
            head = len(trail) - 1
            while head < len(trail):
                lit = trail[head]
                head += 1
                for index in watches.get(lit, ()):
                    visited += 1
                    free, unassigned, satisfied = 0, 0, False
                    for other in clauses[index]:
                        current = value[abs(other)]
                        if current == 0:
                            free, unassigned = free + 1, other
                        elif (current > 0) == (other > 0):
                            satisfied = True
                            break
                    if not satisfied and free == 1:
                        trail.append(unassigned)
                        value[abs(unassigned)] = 1 if unassigned > 0 else -1
    return visited


#: The reference's seconds on an unloaded host (a 2-CPU x86-64 host reads
#: 20 ms in its fastest passes): the scale of seconds at reference speed.
REFERENCE_S = 0.020


def reference_seconds() -> float:
    """Wall-clock seconds of one run of the reference computation."""
    start = time.perf_counter()
    _integer_loop()
    _hash_cons()
    _unit_propagation()
    return time.perf_counter() - start
