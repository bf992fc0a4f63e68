"""Shared test helpers: reference simulator and random circuit generators."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from tscsynth.genome import Genotype
from tscsynth.netlist import (
    Circuit,
    Fault,
    FaultSite,
    Gate,
    SignalRef,
    TT_NOT_A,
    _append_two_rail_checker,
)

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def scalar_simulate(circuit: Circuit, fault: Fault | None = None) -> dict:
    """Word-by-word reference simulator with scalar gate evaluation.

    Returns {"outputs": [list of per-word bits], "rails": ... or None},
    packed the same way as the bit-parallel simulator for easy comparison.
    """
    r = circuit.r
    outputs = [0] * circuit.q
    rails = [0, 0] if circuit.rails is not None else None
    for w in range(1 << r):
        values = [(w >> j) & 1 for j in range(r)]
        for i, (tt, sa, sb) in enumerate(zip(circuit.tt, circuit.src_a, circuit.src_b)):
            a, b = values[sa], values[sb]
            if fault is not None and fault.gate == i:
                if fault.site is FaultSite.INPUT_A:
                    a = fault.stuck
                elif fault.site is FaultSite.INPUT_B:
                    b = fault.stuck
            out = (tt >> (2 * a + b)) & 1
            if fault is not None and fault.gate == i and fault.site is FaultSite.OUTPUT:
                out = fault.stuck
            values.append(out)
        for j, s in enumerate(circuit.outputs):
            outputs[j] |= values[s] << w
        if rails is not None:
            rails[0] |= values[circuit.rails[0]] << w
            rails[1] |= values[circuit.rails[1]] << w
    return {
        "outputs": tuple(outputs),
        "rails": tuple(rails) if rails is not None else None,
    }


def random_ref(rng: random.Random, r: int, n_gates: int) -> SignalRef:
    k = rng.randrange(r + n_gates)
    return SignalRef.x(k) if k < r else SignalRef.g(k - r)


def random_circuit(
    rng: random.Random,
    r: int,
    n_gates: int,
    q: int,
    rails: str = "none",
) -> Circuit:
    """Random feed-forward circuit, n_gates drawn and the unread ones dropped.

    rails: "none", "random" (two random refs), or "complement" (z_1 random,
    z_0 = explicit inverter gate on z_1, so fault-free rails never collide).
    """
    gates = []
    for i in range(n_gates):
        gates.append(
            Gate(rng.randrange(16), random_ref(rng, r, i), random_ref(rng, r, i))
        )
    error_rails = None
    if rails == "random":
        error_rails = (random_ref(rng, r, n_gates), random_ref(rng, r, n_gates))
    elif rails == "complement":
        z1 = random_ref(rng, r, n_gates)
        gates.append(Gate(TT_NOT_A, z1, z1))
        error_rails = (SignalRef.g(len(gates) - 1), z1)
    func = tuple(random_ref(rng, r, n_gates) for _ in range(q))
    return live_circuit(r, gates, func, error_rails)


def live_circuit(r: int, gates, func, rails=None) -> Circuit:
    """Circuit of the gates with a path to an output or a rail, in order.

    A Circuit rejects a gate nothing reads, so drawn netlists drop theirs
    first.  Sources precede their gates, so one sweep from the last gate
    back marks every live gate before its sources are reached.
    """
    live = [False] * len(gates)
    for ref in func + (rails or ()):
        if ref.kind == "g":
            live[ref.index] = True
    for i in range(len(gates) - 1, -1, -1):
        if live[i]:
            for ref in (gates[i].a, gates[i].b):
                if ref.kind == "g":
                    live[ref.index] = True
    keep = [i for i in range(len(gates)) if live[i]]
    new_index = {old: new for new, old in enumerate(keep)}

    def move(ref: SignalRef) -> SignalRef:
        return ref if ref.kind == "x" else SignalRef.g(new_index[ref.index])

    return Circuit(
        r,
        tuple(Gate(gates[i].tt, move(gates[i].a), move(gates[i].b)) for i in keep),
        tuple(move(ref) for ref in func),
        None if rails is None else (move(rails[0]), move(rails[1])),
    )


def two_rail_checker_circuit() -> Circuit:
    """Standalone checker cell: inputs (a_0, a_1, b_0, b_1) = x0..x3, no
    function outputs, the cell's output pair as the error rails."""
    tt: list[int] = []
    src_a: list[int] = []
    src_b: list[int] = []
    (c0, _), (c1, _) = _append_two_rail_checker(
        4, tt, src_a, src_b, ((0, False), (1, False)), ((2, False), (3, False))
    )
    return Circuit.from_arrays(4, tt, src_a, src_b, (), (c0, c1))


def genotype_bit(g: Genotype, pos: int) -> int:
    """Genotype bit pos; bit 0 is the most significant bit of the value."""
    return (g.value >> (g.layout.total_len - 1 - pos)) & 1


# Half adder: y_0 = x0 XOR x1, y_1 = x0 AND x1 (PLA inputs read x0 first).
HALF_ADDER_PLA = ".i 2\n.o 2\n01 10\n10 10\n11 01\n.e\n"


def tsc_half_adder(sum_xnor: bool = False) -> Circuit:
    """A verified-TSC half adder found by search (10 live gates).

    With sum_xnor=True the sum gate computes XNOR and its two consumers take
    its complement in their tables, so every fault behaves as before: the
    circuit is still TSC, but y_0 is the complement of the sum.
    """
    x, g = SignalRef.x, SignalRef.g
    xor, le, gt = (9, 7, 1) if sum_xnor else (6, 11, 4)
    gates = (
        Gate(xor, x(0), x(1)),
        Gate(8, x(0), x(1)),
        Gate(le, x(1), g(0)),
        Gate(6, x(0), x(1)),
        Gate(9, g(2), g(3)),
        Gate(gt, g(0), x(1)),
        Gate(6, g(4), g(5)),
        Gate(1, x(0), x(1)),
        Gate(9, g(1), g(7)),
        Gate(9, g(8), x(0)),
    )
    return Circuit(2, gates, (g(0), g(1)), (g(6), g(9)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
