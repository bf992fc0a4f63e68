"""Exhaustive-input, levelized, bit-parallel fault-free simulation.

Signals are packed integers: bit w of a vector is the signal's value under
input word w, for all 2**r words in ascending numeric order with x_0 as the
least significant input bit.  The fault-free wave (values, simulate)
refreshes every gate once, in index order, which suffices for feed-forward
circuits; the simulator reads a Circuit's stored arrays, not its Gate view.
This is all of the simulation that the verify oracle and fitness share: the
gate table kernel (GATE_EVAL) and the fault-free wave (values).  Each
injects faults and reads them out its own way, the oracle through
verify.fault_pass and fitness through one inverted-output slot per gate
(fitness._fault_counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .netlist import Circuit


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
