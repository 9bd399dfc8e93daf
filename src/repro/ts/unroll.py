"""Time-frame expansion (unrolling) of a transition system.

The unroller substitutes, frame by frame, the current-state terms into every
next-state function, constraint and property.  Because the processor models
start from a fully concrete initial state, the first frames constant-fold
aggressively inside the smart constructors, which keeps the bit-blasted BMC
queries small.

With ``initial=False`` frame 0 is a free state instead (every state is a
fresh variable there), which is what PDR's transition relation and the
invariant re-check reason over.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import TransitionSystemError
from repro.smt import terms as T
from repro.smt.evaluator import substitute
from repro.smt.terms import BV
from repro.ts.system import TransitionSystem


class Unroller:
    """Unrolls a validated transition system over discrete time frames."""

    def __init__(self, ts: TransitionSystem, initial: bool = True):
        ts.validate()
        self.ts = ts
        # _frames[k] maps every state/input symbol to its frame-k term;
        # _caches[k] is the substitution cache of that mapping, shared by
        # every term instantiated at frame k and by the next-state terms
        # that build frame k + 1.
        self._frames: list[dict[BV, BV]] = []
        self._caches: list[dict[int, BV]] = []
        self._input_vars: list[dict[str, BV]] = []
        self._build_frame_zero(initial)

    def _build_frame_zero(self, initial: bool) -> None:
        mapping: dict[BV, BV] = {}
        inputs: dict[str, BV] = {}
        for state in self.ts.states:
            if initial and state.init is not None:
                mapping[state.symbol] = state.init
            else:
                mapping[state.symbol] = T.fresh_var(f"{state.name}@0", state.width)
        for symbol in self.ts.inputs:
            assert symbol.name is not None
            var = T.fresh_var(f"{symbol.name}@0", symbol.width)
            mapping[symbol] = var
            inputs[symbol.name] = var
        self._frames.append(mapping)
        self._caches.append({})
        self._input_vars.append(inputs)

    def _extend_to(self, frame: int) -> None:
        while len(self._frames) <= frame:
            k = len(self._frames)
            prev, cache = self._frames[k - 1], self._caches[k - 1]
            mapping: dict[BV, BV] = {}
            inputs: dict[str, BV] = {}
            for symbol in self.ts.inputs:
                assert symbol.name is not None
                var = T.fresh_var(f"{symbol.name}@{k}", symbol.width)
                mapping[symbol] = var
                inputs[symbol.name] = var
            for state in self.ts.states:
                assert state.next is not None
                mapping[state.symbol] = substitute(state.next, prev, cache)
            self._frames.append(mapping)
            self._caches.append({})
            self._input_vars.append(inputs)

    # ------------------------------------------------------------------ API

    def at_frame(self, term: BV, frame: int) -> BV:
        """Return ``term`` with states/inputs replaced by their frame-``frame`` terms.

        Note that inputs referenced by a *next-state* function conceptually
        belong to the frame in which the transition fires; ``at_frame`` maps
        plain state/input symbols, which is what constraints and properties
        use.
        """
        if frame < 0:
            raise TransitionSystemError(f"frame must be non-negative, got {frame}")
        self._extend_to(frame)
        return substitute(term, self._frames[frame], self._caches[frame])

    def state_term(self, name: str, frame: int) -> BV:
        """The frame-``frame`` term of state variable ``name``."""
        return self.at_frame(self.ts.state_symbol(name), frame)

    def input_term(self, name: str, frame: int) -> BV:
        """The fresh variable standing for input ``name`` at frame ``frame``."""
        self._extend_to(frame)
        if name not in self._input_vars[frame]:
            raise TransitionSystemError(f"unknown input {name!r}")
        return self._input_vars[frame][name]

    def frame_mapping(self, frame: int) -> Mapping[BV, BV]:
        """The full symbol-to-term mapping of a frame (read-only use)."""
        self._extend_to(frame)
        return dict(self._frames[frame])

    def initial_condition(self) -> BV:
        """``Init`` over a free-initial unroller's frame 0 (true if no init).

        Init terms are left unsubstituted, as in the initial-state
        unrolling: a symbol an init term reads is rigid (see
        :func:`repro.ts.simulate.rigid_symbols`), not a frame-0 value.
        """
        return T.bv_and_all(
            [
                T.bv_eq(self.state_term(s.name, 0), s.init)
                for s in self.ts.states
                if s.init is not None
            ]
        )

    def constraints_at(self, frame: int) -> list[BV]:
        """All global constraints instantiated at ``frame``."""
        return [self.at_frame(c, frame) for c in self.ts.constraints]

    def property_at(self, name: str, frame: int) -> BV:
        """Property ``name`` instantiated at ``frame``."""
        if name not in self.ts.properties:
            raise TransitionSystemError(f"unknown property {name!r}")
        return self.at_frame(self.ts.properties[name], frame)
