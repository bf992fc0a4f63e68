"""Exhaustive-input, levelized, bit-parallel simulation with stuck-at injection.

Signals are packed integers: bit w of a vector is the signal's value under
input word w, for all 2**r words in ascending numeric order with x_0 as the
least significant input bit.  The fault-free wave (values, simulate)
refreshes every gate once, in index order, which suffices for feed-forward
circuits; the simulator reads a Circuit's stored arrays, not its Gate view.
GATE_EVAL, the table kernel, and values, the fault-free wave, are all of the
simulation that the verify oracle and fitness share.  Each injects faults and
reads them out its own way: the oracle through fault_pass below, fitness
through one inverted-output slot per gate (fitness._fault_counts).

The faulty circuits come from fault_pass, parallel fault simulation
(Abramovici, Breuer & Friedman, "Digital Systems Testing and Testable
Design", 1990, ch. 5): one packed int holds a 2**r-bit slot per fault of a
run of consecutive gates, and slot i is the whole circuit under the i-th of
those faults.  Each gate is applied once over the whole int, and right after
it the gate's own slots are overwritten with the fault explicitly: the stuck
constant for an output fault, the table over the stuck constant and the
other source's fault-free value for an input fault.  That is exact: a gate
reads only lower indices, so in its own slots its sources are fault-free;
every later gate is applied after its sources; and a table acts bit by bit,
so no slot reads another.  A gate that reads no index the pass changed (every
gate before the run, and every gate outside the run's fan-out) is fault-free
in every slot and is not applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .netlist import Circuit, Fault, FaultSite


# Most primary inputs a circuit or target read from a file may have: a
# packed vector holds 2**r bits, and PLA parsing grows 5x per two inputs.
MAX_INPUTS = 16


class FaultScope(Enum):
    OUTPUTS_ONLY = "outputs"
    ALL = "all"


@lru_cache(maxsize=None)
def input_patterns(r: int) -> tuple[int, ...]:
    """Packed value of each primary input across all 2**r words."""
    patterns = []
    for j in range(r):
        v = 0
        for w in range(1 << r):
            if (w >> j) & 1:
                v |= 1 << w
        patterns.append(v)
    return tuple(patterns)


def full_mask(r: int) -> int:
    return (1 << (1 << r)) - 1


@dataclass(frozen=True)
class ResponseMatrix:
    """Per-output (and per-rail) response vectors over all 2**r input words."""

    n_words: int
    outputs: tuple[int, ...]
    rails: tuple[int, int] | None


# Gate evaluators indexed by truth-table value (bit 2a + b holds the output
# for inputs (a, b), as in netlist), over packed vectors whose all-ones value
# is f.
GATE_EVAL = (
    lambda a, b, f: 0,                    # ZERO
    lambda a, b, f: (a | b) ^ f,          # NOR
    lambda a, b, f: (a ^ f) & b,          # LT: a < b
    lambda a, b, f: a ^ f,                # NOTA
    lambda a, b, f: a & (b ^ f),          # GT: a > b
    lambda a, b, f: b ^ f,                # NOTB
    lambda a, b, f: a ^ b,                # XOR
    lambda a, b, f: (a & b) ^ f,          # NAND
    lambda a, b, f: a & b,                # AND
    lambda a, b, f: a ^ b ^ f,            # XNOR
    lambda a, b, f: b,                    # B
    lambda a, b, f: (a & (b ^ f)) ^ f,    # LE: a <= b
    lambda a, b, f: a,                    # A
    lambda a, b, f: ((a ^ f) & b) ^ f,    # GE: a >= b
    lambda a, b, f: a | b,                # OR
    lambda a, b, f: f,                    # ONE
)


def values(circuit: Circuit) -> list[int]:
    """Fault-free value of every index: the inputs, then each gate in order."""
    full = full_mask(circuit.r)
    v = list(input_patterns(circuit.r))
    for t, a, b in zip(circuit.tt, circuit.src_a, circuit.src_b):
        v.append(GATE_EVAL[t](v[a], v[b], full))
    return v


def simulate(circuit: Circuit) -> ResponseMatrix:
    """Fault-free outputs and rails across all 2**r words."""
    v = values(circuit)
    rails = None if circuit.rails is None else tuple(v[s] for s in circuit.rails)
    return ResponseMatrix(1 << circuit.r, tuple(v[s] for s in circuit.outputs), rails)


def fault_sites(scope: FaultScope) -> tuple[FaultSite, ...]:
    """The lines of a gate that scope faults, in enumerate_faults order."""
    if scope is FaultScope.OUTPUTS_ONLY:
        return (FaultSite.OUTPUT,)
    return (FaultSite.OUTPUT, FaultSite.INPUT_A, FaultSite.INPUT_B)


def enumerate_faults(circuit: Circuit, scope: FaultScope) -> list[Fault]:
    """All stuck-at faults of the circuit, in deterministic order.

    Order: ascending gate index, site (output, input a, input b), stuck-0
    before stuck-1.  OUTPUTS_ONLY yields 2 faults per gate, ALL yields 6.
    """
    return [
        Fault(site, g, stuck)
        for g in range(len(circuit.tt))
        for site in fault_sites(scope)
        for stuck in (0, 1)
    ]


@lru_cache(maxsize=64)
def repeat(r: int, slots: int) -> int:
    """Bit 0 of each of slots consecutive 2**r-bit slots: times a packed
    vector, that vector once in every slot.

    Cached, since fault_pass and the oracle's readout each ask for the
    constant of the same pass; a pass takes one or two sizes per circuit."""
    return int(("0" * ((1 << r) - 1) + "1") * slots, 2)


def fault_pass(circuit: Circuit, free: list[int], first: int,
               last: int) -> list[int | None]:
    """Every index under each fault of gates first..last-1, packed.

    Slot i (2**r bits, from the least significant end) is the circuit under
    the i-th of those faults in enumerate_faults(circuit, FaultScope.ALL)
    order: six slots per gate.  free is the fault-free value of every index
    (values).  An entry is None where the pass left the index fault-free in
    every slot: its packed value is then free[i] * repeat(r, slots).
    """
    r = circuit.r
    full = full_mask(r)
    width = 1 << r
    tt, src_a, src_b = circuit.tt, circuit.src_a, circuit.src_b
    block_width = 6 * width
    block = (1 << block_width) - 1
    rep = repeat(r, (last - first) * 6)
    wide = full * rep
    v: list[int | None] = [None] * (r + len(tt))
    for k in range(first, len(tt)):
        a, b = src_a[k], src_b[k]
        va, vb = v[a], v[b]
        if va is not None or vb is not None:
            out = GATE_EVAL[tt[k]](free[a] * rep if va is None else va,
                                   free[b] * rep if vb is None else vb, wide)
        elif k < last:
            out = free[r + k] * rep
        else:
            continue
        if k < last:
            # The gate's own slots, in fault order: its output stuck-at 0 and
            # 1, then the table over input a stuck-at 0 and 1, then over
            # input b.  The gate reads only lower indices, so in these slots
            # its sources hold their fault-free values.
            gate = GATE_EVAL[tt[k]]
            fa, fb = free[a], free[b]
            own = (full << width
                   | gate(0, fb, full) << 2 * width
                   | gate(full, fb, full) << 3 * width
                   | gate(fa, 0, full) << 4 * width
                   | gate(fa, full, full) << 5 * width)
            shift = (k - first) * block_width
            out = out & ~(block << shift) | own << shift
        v[r + k] = out
    return v
