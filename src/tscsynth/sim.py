"""Exhaustive-input, levelized, bit-parallel fault-free simulation.

Signals are packed integers: bit w of a vector is the signal's value under
input word w, for all 2**r words in ascending numeric order with x_0 as the
least significant input bit, so input j's vector (input_patterns) has bit w
set iff bit j of w is.  The fault-free wave (values) starts from those and
refreshes every gate once, in index order, which suffices for feed-forward
circuits; it reads a Circuit's stored arrays, not its Gate view.  The
verify oracle and fitness share the gate table kernel (GATE_EVAL) and the
wave, and inject and read out faults each its own way: verify.fault_pass,
and one inverted-output slot per gate in fitness's one scoring body,
fitness.evaluate_circuit.  simulate, the wave's outputs and rails, backs
fitness.fault_free_response, which the benchmark times apart from
fitness.evaluate_checking.
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
    """The faults verify_fs reports on: those of gate outputs, or all.
    perfbench calls it, so it stays here until the benchmark is re-founded;
    then it moves to the tests."""

    OUTPUTS_ONLY = "outputs"
    ALL = "all"


@lru_cache(maxsize=None)
def input_patterns(r: int) -> tuple[int, ...]:
    """Packed value of each primary input across all 2**r words: from word 0
    up, input j repeats 2**j zeros then 2**j ones, and all-ones divided by
    2**(2**j) + 1 repeats 2**j ones then 2**j zeros."""
    full = full_mask(r)
    return tuple(full // ((1 << (1 << j)) + 1) << (1 << j) for j in range(r))


def full_mask(r: int) -> int:
    return (1 << (1 << r)) - 1


def check_word_mask(mask: int | None, r: int) -> None:
    """Reject a mask that applies none of the 2**r input words, which would
    score every circuit at f_f = 0, or a word beyond them; None applies all."""
    if mask is not None and (mask <= 0 or mask >> (1 << r)):
        raise ValueError(f"word mask {mask:#x} must apply at least one word "
                         f"and only words below 2**{r}")


@dataclass(frozen=True)
class ResponseMatrix:
    """Per-output (and per-rail) response vectors over all 2**r input words."""

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
    return ResponseMatrix(tuple(v[s] for s in circuit.outputs), rails)
