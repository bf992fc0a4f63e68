"""Exhaustive-input, levelized, bit-parallel simulation with stuck-at injection.

Signals are packed integers: bit w of a vector is the signal's value under
input word w, for all 2**r words in ascending numeric order with x_0 as the
least significant input bit.  Gates are refreshed once, in list order, which
is sufficient for feed-forward circuits; the simulator reads a Circuit's
stored arrays, not its Gate view.
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


def _tt_vector(tt_value: int, a: int, b: int, full: int) -> int:
    # Minterm-by-minterm application of the 4-entry table to packed vectors.
    out = 0
    for k in range(4):
        if (tt_value >> k) & 1:
            out |= (a if k & 2 else a ^ full) & (b if k & 1 else b ^ full)
    return out


def simulate(circuit: Circuit, fault: Fault | None = None) -> ResponseMatrix:
    """Evaluate every gate once per wave across all 2**r words.

    A fault at a gate output forces that gate's vector to the stuck value; a
    fault at a gate input forces the corresponding source value before the
    table is applied, for that gate only.
    """
    r = circuit.r
    if fault is not None and not 0 <= fault.gate < len(circuit.tt):
        raise ValueError(f"fault on gate {fault.gate} outside the circuit")
    full = full_mask(r)
    v = list(input_patterns(r))  # value of every index: inputs, then gates
    for i, (t, a, b) in enumerate(zip(circuit.tt, circuit.src_a, circuit.src_b)):
        a, b = v[a], v[b]
        if fault is not None and fault.gate == i:
            if fault.site is FaultSite.INPUT_A:
                a = full if fault.stuck else 0
            elif fault.site is FaultSite.INPUT_B:
                b = full if fault.stuck else 0
        out = _tt_vector(t, a, b, full)
        if fault is not None and fault.gate == i and fault.site is FaultSite.OUTPUT:
            out = full if fault.stuck else 0
        v.append(out)

    rails = None if circuit.rails is None else tuple(v[s] for s in circuit.rails)
    return ResponseMatrix(1 << r, tuple(v[s] for s in circuit.outputs), rails)


def enumerate_faults(circuit: Circuit, scope: FaultScope) -> list[Fault]:
    """All stuck-at faults of the circuit, in deterministic order.

    Order: ascending gate index, site (output, input a, input b), stuck-0
    before stuck-1.  OUTPUTS_ONLY yields 2 faults per gate, ALL yields 6.
    """
    if scope is FaultScope.OUTPUTS_ONLY:
        sites = (FaultSite.OUTPUT,)
    else:
        sites = (FaultSite.OUTPUT, FaultSite.INPUT_A, FaultSite.INPUT_B)
    return [
        Fault(site, g, stuck)
        for g in range(len(circuit.tt))
        for site in sites
        for stuck in (0, 1)
    ]
