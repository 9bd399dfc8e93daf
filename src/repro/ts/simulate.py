"""Concrete simulation of a transition system.

A run is fixed by the values of the rigid symbols, the initial values of
the states without an init term and each frame's inputs.
:func:`initial_state` and :func:`next_state` step a system with the
semantics of :class:`~repro.ts.unroll.Unroller`, so a simulated run is
the concrete evaluation of an unrolling.
"""

from __future__ import annotations

from typing import Mapping

from repro.smt.evaluator import evaluate
from repro.ts.system import TransitionSystem


def rigid_symbols(ts: TransitionSystem) -> dict[str, int]:
    """Name -> width of every symbol that keeps one value for a whole run.

    These are the undeclared variables (e.g. QED's shared ``*_init_reg``
    symbols) and every symbol an init term reads: the unroller does not
    substitute into init terms, so there a declared state or input is a
    free symbol of its own, not that state's initial value (lint reports
    it as ``model.init-state-ref``).
    """
    declared = {s.name for s in ts.states} | {s.name for s in ts.inputs}
    found: dict[str, int] = {}

    def walk(terms, keep_declared: bool) -> None:
        seen: set[int] = set()
        stack = [t for t in terms if t is not None]
        while stack:
            node = stack.pop()
            if node.tid in seen:
                continue
            seen.add(node.tid)
            if node.is_var:
                if keep_declared or node.name not in declared:
                    found[node.name] = node.width
            else:
                stack.extend(node.args)

    walk([s.init for s in ts.states], keep_declared=True)
    walk(
        [*(s.next for s in ts.states), *ts.constraints, *ts.properties.values()],
        keep_declared=False,
    )
    return found


def initial_state(
    ts: TransitionSystem, env: Mapping[str, int], free: Mapping[str, int]
) -> dict[str, int]:
    """The frame-0 value of every state.

    A state with an init term takes its value under ``env``, the values of
    the rigid symbols; a state without one takes ``free[name]``.
    """
    cache: dict[int, int] = {}
    return {
        s.name: free[s.name] if s.init is None else evaluate(s.init, env, cache)
        for s in ts.states
    }


def next_state(ts: TransitionSystem, env: Mapping[str, int]) -> dict[str, int]:
    """The successor value of every state that has a next function.

    ``env`` maps every state and input to its current value, and every
    undeclared rigid symbol to its value.
    """
    cache: dict[int, int] = {}
    return {
        s.name: evaluate(s.next, env, cache) for s in ts.states if s.next is not None
    }
