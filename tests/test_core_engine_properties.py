"""Property-based tests of the engine state machine.

The checkpoint/rollback trail is the foundation the whole search rests
on: after any interleaving of assignments, propagations, requirement
pushes and rollbacks, rolling back to a checkpoint must restore the
exact values, aliveness and obligation list captured at that
checkpoint.  Hypothesis drives random operation sequences against a
reference snapshot model.  The implication kernel's per-gate input codes
ride on the same trail, so every step also checks them against the
values they encode.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineCircuit, EngineState, FALLING, RISING
from repro.core.logic_values import Value9
from repro.netlist.generate import random_dag
from repro.netlist.techmap import techmap


def snapshot(state: EngineState):
    return (
        [list(state.values[0]), list(state.values[1])],
        [list(state.codes[0]), list(state.codes[1])],
        list(state.alive),
        list(state.obligations),
    )


def code_violations(state: EngineState):
    """(component, gate) pairs whose kept input code differs from
    ``sum(values[comp][input_net_k] * 9**k)``."""
    bad = []
    for comp in (RISING, FALLING):
        values = state.values[comp]
        for gate in state.ec.gates:
            expected = sum(
                values[net] * 9 ** k for k, net in enumerate(gate.input_nets)
            )
            if state.codes[comp][gate.index] != expected:
                bad.append((comp, gate.index))
    return bad


@st.composite
def operation_sequences(draw):
    """(circuit seed, list of operations)."""
    seed = draw(st.integers(0, 500))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["assign", "require", "propagate",
                                 "checkpoint", "rollback"]),
                st.integers(0, 10_000),
            ),
            min_size=4,
            max_size=30,
        )
    )
    return seed, ops


class TestTrailIntegrity:
    @given(operation_sequences())
    @settings(max_examples=40, deadline=None)
    def test_rollback_restores_snapshots(self, case):
        seed, ops = case
        circuit = techmap(random_dag(f"prop{seed}", 6, 18, seed=seed))
        ec = EngineCircuit(circuit)
        state = EngineState(ec)
        marks = []  # (trail mark, snapshot)

        values_pool = [Value9.S0, Value9.S1, Value9.RISE, Value9.FALL,
                       Value9.X0, Value9.X1]
        for op, arg in ops:
            if op == "assign":
                net = arg % ec.num_nets
                value = values_pool[arg % len(values_pool)]
                comp = RISING if arg % 2 else FALLING
                state.assign(net, value, comp)
            elif op == "require":
                net = arg % ec.num_nets
                state.require_steady(net, arg % 2)
            elif op == "propagate":
                state.propagate()
            elif op == "checkpoint":
                marks.append((state.checkpoint(), snapshot(state)))
            elif op == "rollback" and marks:
                index = arg % len(marks)
                mark, snap = marks[index]
                state.rollback(mark)
                assert snapshot(state) == snap
                del marks[index:]
            assert code_violations(state) == []
        # Finally, unwind everything: state must be pristine.
        state.rollback(0)
        assert all(v == Value9.XX for comp in state.values for v in comp)
        assert state.alive == [True, True]
        assert state.obligations == []
        assert state.codes == [ec.kernel.xx_codes] * 2

    def test_sabotaged_sink_weight_is_caught(self):
        """A sink weight off by one must trip the code invariant the
        trail test checks after every operation."""
        ec = EngineCircuit(techmap(random_dag("sabotage", 6, 18, seed=3)))
        net = next(n for n in ec.input_ids if ec.kernel.weights[n])
        gate_index, weight = ec.kernel.weights[net][0]
        ec.kernel.weights[net][0] = (gate_index, weight + 1)
        state = EngineState(ec)
        assert code_violations(state) == []
        state.assign(net, Value9.S1, RISING)
        assert code_violations(state) == [(RISING, gate_index)]

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_propagation_is_idempotent(self, seed):
        circuit = techmap(random_dag(f"idem{seed}", 6, 16, seed=seed))
        ec = EngineCircuit(circuit)
        state = EngineState(ec)
        origin = ec.input_ids[seed % len(ec.input_ids)]
        state.assign(origin, Value9.RISE, RISING)
        state.assign(origin, Value9.FALL, FALLING)
        state.propagate()
        snap = snapshot(state)
        state.propagate()
        assert snapshot(state) == snap

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_implication_matches_three_valued_simulation(self, seed):
        """Forward propagation of steady PI values equals simulate3."""
        circuit = techmap(random_dag(f"s3{seed}", 8, 20, seed=seed))
        ec = EngineCircuit(circuit)
        state = EngineState(ec)
        assigned = {}
        for k, name in enumerate(circuit.inputs):
            if (seed >> k) & 1:
                bit = (seed >> (k + 3)) & 1
                assigned[name] = bit
                state.assign(ec.net_id[name], Value9.steady(bit), RISING)
                state.assign(ec.net_id[name], Value9.steady(bit), FALLING)
        assert state.propagate()
        reference = circuit.simulate3(assigned)
        for net_name, expected in reference.items():
            value = state.values[RISING][ec.net_id[net_name]]
            final = Value9.final_of(value)
            if expected is None:
                # The engine may know MORE than plain 3-valued forward
                # simulation never... it cannot: same mechanism.
                assert final is None, net_name
            else:
                assert final == expected, net_name
