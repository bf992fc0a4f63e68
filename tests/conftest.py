"""Shared test helpers: reference simulators, a reference oracle and random
circuit generators."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from tscsynth.genome import Genotype
from tscsynth.netlist import (
    Builder,
    Circuit,
    Fault,
    FaultSite,
    Gate,
    SignalRef,
    TT_AND,
    TT_GT,
    TT_NOT_A,
    TT_OR,
    TT_XNOR,
    TT_XOR,
    _append_two_rail_checker,
)
from tscsynth.sim import FaultScope
from tscsynth.verify import TscReport

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


def full_wave(circuit: Circuit, fault: Fault | None = None) -> list[int]:
    """Packed value of every index with every gate evaluated, under fault.

    The reference for the oracle's packed fault pass: one fault per wave, no
    index is taken from the fault-free circuit, and the 4-entry table is
    applied minterm by minterm.  It is the only minterm-by-minterm table
    application: the package's one kernel (sim.GATE_EVAL), which the oracle
    and fitness share, writes each table as its own bitwise expression, so
    the reference does not share the kernel's form.
    """
    r = circuit.r
    full = (1 << (1 << r)) - 1
    v = [sum(1 << w for w in range(1 << r) if (w >> j) & 1) for j in range(r)]
    for i, (t, a, b) in enumerate(zip(circuit.tt, circuit.src_a, circuit.src_b)):
        a, b = v[a], v[b]
        if fault is not None and fault.gate == i:
            if fault.site is FaultSite.INPUT_A:
                a = full if fault.stuck else 0
            elif fault.site is FaultSite.INPUT_B:
                b = full if fault.stuck else 0
        out = 0
        for k in range(4):
            if (t >> k) & 1:
                out |= (a if k & 2 else a ^ full) & (b if k & 1 else b ^ full)
        if fault is not None and fault.gate == i and fault.site is FaultSite.OUTPUT:
            out = full if fault.stuck else 0
        v.append(out)
    return v


def enumerate_faults(circuit: Circuit, scope: FaultScope) -> list[Fault]:
    """All stuck-at faults of scope, in the order the oracle reports them.

    Order: ascending gate index, site (output, input a, input b), stuck-0
    before stuck-1.  OUTPUTS_ONLY yields 2 faults per gate, ALL yields 6.
    Written out here, apart from the oracle's slot order, so that
    full_wave_report checks that order against an independent listing.
    """
    sites = [FaultSite.OUTPUT]
    if scope is FaultScope.ALL:
        sites += [FaultSite.INPUT_A, FaultSite.INPUT_B]
    return [
        Fault(site, g, stuck)
        for g in range(len(circuit.tt))
        for site in sites
        for stuck in (0, 1)
    ]


def full_wave_report(
    circuit: Circuit,
    scope: FaultScope = FaultScope.ALL,
    word_mask: int | None = None,
    target=None,
) -> TscReport:
    """The oracle's report with one full wave per fault (full_wave).

    Same definitions and list order as verify_tsc and verify_fs: faults in
    enumerate_faults order, each fault's unsignalled incorrect words
    ascending, no violations listed under a fault-free false alarm.
    """
    full = (1 << (1 << circuit.r)) - 1
    applied = full if word_mask is None else word_mask & full
    free = full_wave(circuit)
    z0, z1 = circuit.rails
    computes_target = None
    if target is not None:
        computes_target = all(
            not (free[s] ^ want) & applied for s, want in zip(circuit.outputs, target)
        )
    false_alarm = (free[z0] ^ free[z1] ^ full) & applied != 0
    undetected = []
    violations = []
    for fault in enumerate_faults(circuit, scope):
        v = full_wave(circuit, fault)
        signalled = (v[z0] ^ v[z1] ^ full) & applied
        if not signalled:
            undetected.append(fault)
        for w in range(1 << circuit.r):
            wrong = any((v[s] ^ free[s]) >> w & 1 for s in circuit.outputs)
            if wrong and (applied & ~signalled) >> w & 1:
                violations.append((fault, w))
    if false_alarm:
        violations = []
    return TscReport(false_alarm, undetected, violations, computes_target)


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
    bld = Builder(4)
    (c0, _), (c1, _) = _append_two_rail_checker(bld, ((0, False), (1, False)),
                                                ((2, False), (3, False)))
    return bld.circuit((), (c0, c1))


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


def checked_mult2() -> Circuit:
    """A verified-TSC mult2 seed of 13 gates: mult2.blif's 7 gates (its
    function core), z_1 = XOR(XOR(y0, y1), XOR(y2, y3)) and
    z_0 = OR(XNOR(x1, x0), XNOR(x3, x2)).  Overhead 6 against duplication's
    25."""
    return Circuit.from_arrays(
        4,
        (TT_AND, TT_AND, TT_AND, TT_XOR, TT_AND, TT_GT, TT_AND,
         TT_XOR, TT_XOR, TT_XOR, TT_XNOR, TT_XNOR, TT_OR),
        (0, 1, 0, 5, 1, 8, 4, 4, 9, 11, 1, 3, 14),
        (2, 2, 3, 6, 3, 4, 8, 7, 10, 12, 0, 2, 15),
        (4, 7, 9, 10),
        (16, 13),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
