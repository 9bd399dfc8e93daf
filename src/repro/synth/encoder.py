"""Location-variable encoding for component-based synthesis.

This implements the constraint system of Section 2.2 / 4.1 over our
bit-vector terms:

* ψ_wfp — well-formed-program constraints: component outputs occupy distinct
  locations after the program inputs, every component input reads either a
  program input of a compatible kind or the output of an earlier component,
  and (the paper's addition) a component with the same name as the original
  instruction must not be wired exactly like the original.
* φ_lib — the component semantics relating each component's input values to
  its output value.
* ψ_conn — connectivity: variables placed at the same location carry the
  same value.

Location and attribute variables are shared across counterexamples; value
variables are instantiated afresh for every counterexample added by the
CEGIS loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SynthesisError
from repro.isa.config import IsaConfig
from repro.smt import terms as T
from repro.smt.terms import BV
from repro.solve.context import BVResult
from repro.synth.components import Component
from repro.synth.program import (
    SOURCE_INPUT,
    SOURCE_SLOT,
    ProgramSlot,
    SynthesizedProgram,
)
from repro.synth.spec import SynthesisSpec
from repro.utils.bitops import clog2


@dataclass
class _ComponentVars:
    """Per-component symbolic variables of the encoding."""

    component: Component
    output_location: BV
    input_locations: list[BV]
    attributes: list[BV]


class LocationEncoder:
    """Builds the synthesis constraints for one spec and one multiset."""

    def __init__(self, spec: SynthesisSpec, components: Sequence[Component]):
        if not components:
            raise SynthesisError("cannot encode an empty multiset")
        self.spec = spec
        self.cfg: IsaConfig = spec.config
        self.components = list(components)
        self.num_inputs = spec.arity
        self.num_components = len(self.components)
        self.num_locations = self.num_inputs + self.num_components
        # width of location variables: enough for num_locations distinct values
        self.loc_width = max(1, clog2(self.num_locations + 1))
        self._vars: list[_ComponentVars] = []
        self._example_count = 0
        self._build_variables()

    # -------------------------------------------------------------- variables

    def _loc_const(self, value: int) -> BV:
        return T.bv_const(value, self.loc_width)

    def _build_variables(self) -> None:
        for index, comp in enumerate(self.components):
            out_loc = T.fresh_var(f"loc_out_{self.spec.name}_{index}", self.loc_width)
            in_locs = [
                T.fresh_var(f"loc_in_{self.spec.name}_{index}_{k}", self.loc_width)
                for k in range(comp.arity)
            ]
            attrs = [
                T.fresh_var(f"attr_{self.spec.name}_{index}_{k}", width)
                for k, width in enumerate(comp.attribute_widths)
            ]
            self._vars.append(_ComponentVars(comp, out_loc, in_locs, attrs))

    # ------------------------------------------------------------------- wfp

    def wfp_constraints(self) -> list[BV]:
        """ψ_wfp: ranges, distinct outputs, acyclicity, operand-kind rules."""
        constraints: list[BV] = []
        lo = self._loc_const(self.num_inputs)
        hi = self._loc_const(self.num_locations)

        # Output locations lie in [num_inputs, num_locations) and are distinct.
        for vars_j in self._vars:
            constraints.append(T.bv_ule(lo, vars_j.output_location))
            constraints.append(T.bv_ult(vars_j.output_location, hi))
        for i in range(self.num_components):
            for j in range(i + 1, self.num_components):
                constraints.append(
                    T.bv_ne(self._vars[i].output_location, self._vars[j].output_location)
                )

        # Input wiring rules.
        register_input_locs = [
            i for i, inp in enumerate(self.spec.inputs) if not inp.is_immediate
        ]
        immediate_input_locs = [
            i for i, inp in enumerate(self.spec.inputs) if inp.is_immediate
        ]
        for vars_j in self._vars:
            comp = vars_j.component
            for k, in_loc in enumerate(vars_j.input_locations):
                if k in comp.immediate_inputs:
                    # Immediate operands may only read the spec's immediate input.
                    allowed = [
                        T.bv_eq(in_loc, self._loc_const(i)) for i in immediate_input_locs
                    ]
                    if not allowed:
                        constraints.append(T.bv_false())
                    else:
                        constraints.append(T.bv_or_all(allowed))
                else:
                    # Register operands read a register-typed program input or
                    # the output of a component placed earlier.
                    options = [
                        T.bv_eq(in_loc, self._loc_const(i)) for i in register_input_locs
                    ]
                    earlier_output = T.bv_and(
                        T.bv_ule(lo, in_loc),
                        T.bv_ult(in_loc, vars_j.output_location),
                    )
                    options.append(earlier_output)
                    constraints.append(T.bv_or_all(options))

        # The program must not be the original instruction wired to itself.
        constraints.extend(self._non_identity_constraints())
        return constraints

    def _non_identity_constraints(self) -> list[BV]:
        constraints: list[BV] = []
        original_wiring = [self._loc_const(i) for i in range(self.num_inputs)]
        for vars_j in self._vars:
            comp = vars_j.component
            if comp.base_instruction != self.spec.name:
                continue
            if comp.arity != self.num_inputs:
                continue
            same_wiring = T.bv_and_all(
                T.bv_eq(in_loc, loc)
                for in_loc, loc in zip(vars_j.input_locations, original_wiring)
            )
            constraints.append(T.bv_not(same_wiring))
        return constraints

    # ------------------------------------------------- per-counterexample part

    def example_constraints(self, example: Sequence[int]) -> list[BV]:
        """φ_lib ∧ ψ_conn ∧ output condition for one concrete input tuple."""
        if len(example) != self.num_inputs:
            raise SynthesisError(
                f"expected {self.num_inputs} example values, got {len(example)}"
            )
        cfg = self.cfg
        tag = self._example_count
        self._example_count += 1

        input_consts = [
            T.bv_const(value, inp.width)
            for value, inp in zip(example, self.spec.inputs)
        ]
        spec_output = self.spec.output_term(input_consts)

        constraints: list[BV] = []
        output_values: list[BV] = []
        input_values: list[list[BV]] = []
        for index, vars_j in enumerate(self._vars):
            out_val = T.fresh_var(
                f"val_out_{self.spec.name}_{tag}_{index}", self.spec.output_width
            )
            in_vals = [
                T.fresh_var(f"val_in_{self.spec.name}_{tag}_{index}_{k}", width)
                for k, width in enumerate(vars_j.component.input_widths)
            ]
            output_values.append(out_val)
            input_values.append(in_vals)

        last_loc = self._loc_const(self.num_locations - 1)
        for index, vars_j in enumerate(self._vars):
            comp = vars_j.component
            # φ_lib: the component computes its output from its inputs.
            constraints.append(
                T.bv_eq(
                    output_values[index],
                    comp.output_term(cfg, input_values[index], vars_j.attributes),
                )
            )
            # Output condition: whichever component sits at the last location
            # produces the specification output.
            constraints.append(
                T.bv_implies(
                    T.bv_eq(vars_j.output_location, last_loc),
                    T.bv_eq(output_values[index], spec_output),
                )
            )
            # ψ_conn for every input of this component.
            for k, in_loc in enumerate(vars_j.input_locations):
                value = input_values[index][k]
                width = comp.input_widths[k]
                for i, const in enumerate(input_consts):
                    if const.width != width:
                        continue
                    constraints.append(
                        T.bv_implies(
                            T.bv_eq(in_loc, self._loc_const(i)),
                            T.bv_eq(value, const),
                        )
                    )
                if width == self.spec.output_width:
                    for other_index, vars_m in enumerate(self._vars):
                        if other_index == index:
                            continue
                        constraints.append(
                            T.bv_implies(
                                T.bv_eq(in_loc, vars_m.output_location),
                                T.bv_eq(value, output_values[other_index]),
                            )
                        )
        return constraints

    # ------------------------------------------------------------------ decode

    def decode(self, result: BVResult) -> SynthesizedProgram:
        """Turn a satisfying assignment into a :class:`SynthesizedProgram`."""
        placements: list[tuple[int, int]] = []  # (location, component index)
        for index, vars_j in enumerate(self._vars):
            location = result.value_of(vars_j.output_location)
            placements.append((location, index))
        placements.sort()

        location_to_slot = {
            location: slot for slot, (location, _) in enumerate(placements)
        }
        slots: list[ProgramSlot] = []
        for location, index in placements:
            vars_j = self._vars[index]
            sources: list[tuple[str, int]] = []
            for in_loc in vars_j.input_locations:
                value = result.value_of(in_loc)
                if value < self.num_inputs:
                    sources.append((SOURCE_INPUT, value))
                else:
                    sources.append((SOURCE_SLOT, location_to_slot[value]))
            attributes = tuple(result.value_of(attr) for attr in vars_j.attributes)
            slots.append(
                ProgramSlot(
                    component=vars_j.component,
                    input_sources=tuple(sources),
                    attributes=attributes,
                )
            )
        return SynthesizedProgram(self.spec, slots)
