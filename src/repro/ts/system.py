"""Word-level transition-system representation.

State variables and inputs are plain bit-vector variables; ``init`` and
``next`` are terms over those variables.  Constraints are assumptions that
hold in every reachable step (the standard BTOR2 ``constraint`` semantics);
properties are safety properties expected to hold in every reachable step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TransitionSystemError
from repro.smt import terms as T
from repro.smt.terms import BV


@dataclass
class StateVar:
    """One state element: its symbol, optional init term and next-state term."""

    symbol: BV
    init: Optional[BV] = None
    next: Optional[BV] = None

    @property
    def name(self) -> str:
        assert self.symbol.name is not None
        return self.symbol.name

    @property
    def width(self) -> int:
        return self.symbol.width


class TransitionSystem:
    """A synchronous design: states, inputs, init, next, constraints, properties."""

    def __init__(self, name: str = "design"):
        self.name = name
        self._states: dict[str, StateVar] = {}
        self._inputs: dict[str, BV] = {}
        self.constraints: list[BV] = []
        self.properties: dict[str, BV] = {}

    # ------------------------------------------------------------- definition

    def add_state(self, name: str, width: int, init: Optional[BV | int] = None) -> BV:
        """Declare a state variable; returns its symbol."""
        if name in self._states or name in self._inputs:
            raise TransitionSystemError(f"symbol {name!r} already declared")
        symbol = T.bv_var(name, width)
        init_term: Optional[BV] = None
        if init is not None:
            init_term = T.bv_const(init, width) if isinstance(init, int) else init
            if init_term.width != width:
                raise TransitionSystemError(
                    f"init width {init_term.width} does not match state width {width}"
                )
        self._states[name] = StateVar(symbol=symbol, init=init_term)
        return symbol

    def add_input(self, name: str, width: int) -> BV:
        """Declare a free input; returns its symbol."""
        if name in self._states or name in self._inputs:
            raise TransitionSystemError(f"symbol {name!r} already declared")
        symbol = T.bv_var(name, width)
        self._inputs[name] = symbol
        return symbol

    def set_next(self, symbol: BV | str, next_term: BV) -> None:
        """Define the next-state function of a declared state variable."""
        state = self._lookup_state(symbol)
        if next_term.width != state.width:
            raise TransitionSystemError(
                f"next width {next_term.width} does not match state width {state.width}"
            )
        state.next = next_term

    def set_init(self, symbol: BV | str, init_term: BV | int) -> None:
        """Define (or override) the initial value of a state variable."""
        state = self._lookup_state(symbol)
        if isinstance(init_term, int):
            init_term = T.bv_const(init_term, state.width)
        if init_term.width != state.width:
            raise TransitionSystemError(
                f"init width {init_term.width} does not match state width {state.width}"
            )
        state.init = init_term

    def add_constraint(self, term: BV) -> None:
        """Add a global assumption (must be a width-1 term)."""
        if term.width != 1:
            raise TransitionSystemError("constraints must have width 1")
        self.constraints.append(term)

    def add_property(self, name: str, term: BV) -> None:
        """Add a named safety property (width-1 term over state/inputs)."""
        if term.width != 1:
            raise TransitionSystemError("properties must have width 1")
        if name in self.properties:
            raise TransitionSystemError(f"property {name!r} already defined")
        self.properties[name] = term

    # ---------------------------------------------------------------- queries

    def _lookup_state(self, symbol: BV | str) -> StateVar:
        name = symbol if isinstance(symbol, str) else symbol.name
        if name is None or name not in self._states:
            raise TransitionSystemError(f"unknown state variable {name!r}")
        return self._states[name]

    @property
    def states(self) -> list[StateVar]:
        return list(self._states.values())

    @property
    def inputs(self) -> list[BV]:
        return list(self._inputs.values())

    def state_symbol(self, name: str) -> BV:
        return self._lookup_state(name).symbol

    def input_symbol(self, name: str) -> BV:
        if name not in self._inputs:
            raise TransitionSystemError(f"unknown input {name!r}")
        return self._inputs[name]

    def fingerprint(self) -> tuple:
        """A key of the system's structure, built from term ids.

        Systems are mutable builders: a cache keyed on one stores this key
        with each entry and recomputes the entry once it no longer matches.
        """
        states = tuple(
            (
                s.name,
                s.width,
                s.init.tid if s.init is not None else -1,
                s.next.tid if s.next is not None else -1,
            )
            for s in self._states.values()
        )
        inputs = tuple((i.name, i.width) for i in self._inputs.values())
        props = tuple((name, term.tid) for name, term in self.properties.items())
        constraints = tuple(c.tid for c in self.constraints)
        return (states, inputs, props, constraints)

    def num_state_bits(self) -> int:
        """Total number of state bits (a rough size metric)."""
        return sum(state.width for state in self._states.values())

    def validate(self) -> None:
        """Check that every state variable has a next-state function."""
        missing = [s.name for s in self._states.values() if s.next is None]
        if missing:
            raise TransitionSystemError(
                f"state variables without next-state function: {missing}"
            )

    def __repr__(self) -> str:
        return (
            f"TransitionSystem({self.name!r}, states={len(self._states)}, "
            f"inputs={len(self._inputs)}, properties={list(self.properties)})"
        )
