import random

import pytest

from tscsynth import sim
from tscsynth.netlist import (
    Circuit,
    Fault,
    FaultSite,
    Gate,
    SignalRef,
    TT_AND,
    TT_OR,
    TT_XOR,
)
from tscsynth.sim import FaultScope, full_mask, input_patterns, simulate

from conftest import enumerate_faults, full_wave, random_circuit, scalar_simulate

X = SignalRef.x
G = SignalRef.g


def _xor_circuit():
    return Circuit(2, (Gate(TT_XOR, X(0), X(1)),), (G(0),))


def faulty(circuit: Circuit, fault: Fault) -> dict:
    """Outputs and rails under fault through the packed full wave, in the
    form of scalar_simulate."""
    v = full_wave(circuit, fault)
    rails = None if circuit.rails is None else tuple(v[s] for s in circuit.rails)
    return {"outputs": tuple(v[s] for s in circuit.outputs), "rails": rails}


def test_input_patterns_bit_convention():
    # Bit j of word w is the value of x_j; x_0 is the least significant.
    x0, x1 = input_patterns(2)
    assert x0 == 0b1010
    assert x1 == 0b1100


def test_fault_free_xor():
    resp = simulate(_xor_circuit())
    assert resp.outputs[0] == 0b0110
    assert resp.n_words == 4


def test_output_stuck_at_zero():
    assert faulty(_xor_circuit(), Fault(FaultSite.OUTPUT, 0, 0))["outputs"] == (0,)


def test_input_a_stuck_one_on_and_gate():
    # AND with its first input stuck at 1 passes the second input through.
    c = Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),))
    outputs = faulty(c, Fault(FaultSite.INPUT_A, 0, 1))["outputs"]
    assert outputs == (input_patterns(2)[1],)


def test_simulate_is_deterministic(rng):
    c = random_circuit(rng, r=4, n_gates=10, q=3, rails="random")
    assert simulate(c) == simulate(c)


class TestBitParallelEquivalence:
    def test_matches_scalar_reference(self, rng):
        for _ in range(60):
            r = rng.randrange(1, 5)
            c = random_circuit(rng, r=r, n_gates=rng.randrange(0, 10), q=2, rails="random")
            packed = simulate(c)
            ref = scalar_simulate(c)
            assert packed.outputs == ref["outputs"]
            assert packed.rails == ref["rails"]

    def test_matches_scalar_reference_r6(self, rng):
        c = random_circuit(rng, r=6, n_gates=12, q=3, rails="random")
        ref = scalar_simulate(c)
        packed = simulate(c)
        assert packed.outputs == ref["outputs"]
        assert packed.rails == ref["rails"]

    def test_matches_scalar_under_faults(self, rng):
        for _ in range(25):
            c = random_circuit(rng, r=3, n_gates=6, q=2, rails="complement")
            for fault in enumerate_faults(c, FaultScope.ALL):
                assert faulty(c, fault) == scalar_simulate(c, fault)


class TestEnumerateFaults:
    def test_outputs_only_counts(self):
        c = _xor_circuit()
        assert len(enumerate_faults(c, FaultScope.OUTPUTS_ONLY)) == 2

    def test_all_counts(self, rng):
        c = random_circuit(rng, r=3, n_gates=3, q=3, rails="none")
        assert len(enumerate_faults(c, FaultScope.ALL)) == 6 * len(c.gates)

    def test_deterministic_order(self):
        c = Circuit(
            2,
            (Gate(TT_AND, X(0), X(1)), Gate(TT_OR, G(0), X(1))),
            (G(1),),
        )
        faults = enumerate_faults(c, FaultScope.ALL)
        assert faults[:4] == [
            Fault(FaultSite.OUTPUT, 0, 0),
            Fault(FaultSite.OUTPUT, 0, 1),
            Fault(FaultSite.INPUT_A, 0, 0),
            Fault(FaultSite.INPUT_A, 0, 1),
        ]
        assert [f.gate for f in faults] == [0] * 6 + [1] * 6


def test_input_fault_flips_or_leaves_gate_output(rng):
    # Premise behind scoring input faults from output-fault responses: at any
    # word an input stuck-at either leaves the faulted gate's output alone or
    # makes it equal the matching output stuck-at value.
    for _ in range(40):
        c = random_circuit(rng, r=3, n_gates=6, q=2, rails="complement")
        full = full_mask(c.r)
        free = simulate(c).outputs
        for gate in range(len(c.gates)):
            out0 = faulty(c, Fault(FaultSite.OUTPUT, gate, 0))["outputs"]
            out1 = faulty(c, Fault(FaultSite.OUTPUT, gate, 1))["outputs"]
            for site in (FaultSite.INPUT_A, FaultSite.INPUT_B):
                for stuck in (0, 1):
                    outputs = faulty(c, Fault(site, gate, stuck))["outputs"]
                    for j in range(c.q):
                        same = ~(outputs[j] ^ free[j]) & full
                        as0 = ~(outputs[j] ^ out0[j]) & full
                        as1 = ~(outputs[j] ^ out1[j]) & full
                        assert (same | as0 | as1) == full


@pytest.mark.parametrize("width", [1, 2, 4, 32, 6 << 12])
def test_tt_vector_matches_scalar_table(width):
    # Every table against (t >> (2*a + b)) & 1 at every bit, on operands 0,
    # all-ones and random: the packed kernel that the fault-free wave, the
    # oracle's fault passes and the fitness checking pass all apply, not only
    # through the reports built on it.
    full = (1 << width) - 1
    rng = random.Random(width)
    operands = (0, full, rng.getrandbits(width), rng.getrandbits(width))
    for a in operands:
        for b in operands:
            # The minterm 2*a + b at each bit, most significant bit first.
            minterms = "".join(str(2 * int(x) + int(y)) for x, y in
                               zip(format(a, f"0{width}b"), format(b, f"0{width}b")))
            for t in range(16):
                bit = {ord(str(k)): str(t >> k & 1) for k in range(4)}
                assert sim.GATE_EVAL[t](a, b, full) == int(minterms.translate(bit), 2)
