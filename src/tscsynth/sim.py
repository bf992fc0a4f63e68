"""Exhaustive-input, levelized, bit-parallel simulation with stuck-at injection.

Signals are packed integers: bit w of a vector is the signal's value under
input word w, for all 2**r words in ascending numeric order with x_0 as the
least significant input bit.  The fault-free wave (values, simulate)
refreshes every gate once, in index order, which suffices for feed-forward
circuits; the simulator reads a Circuit's stored arrays, not its Gate view.

A fault's wave is fault_values alone: from the fault-free values it
refreshes only the faulted gate and its fan-out cone, in index order (the
idea of concurrent fault simulation: Ulrich & Baker, "Concurrent simulation
of nearly identical digital networks", 1974).  That is exact: a gate reads
only lower indices, so a fault can change no index outside its gate's cone,
and every gate of the cone is refreshed after its sources.
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


def values(circuit: Circuit) -> list[int]:
    """Fault-free value of every index: the inputs, then each gate in order."""
    full = full_mask(circuit.r)
    v = list(input_patterns(circuit.r))
    for t, a, b in zip(circuit.tt, circuit.src_a, circuit.src_b):
        v.append(_tt_vector(t, v[a], v[b], full))
    return v


def readers(circuit: Circuit) -> list[list[int]]:
    """For every index, the indices of the gates that read it, ascending."""
    r = circuit.r
    read: list[list[int]] = [[] for _ in range(r + len(circuit.tt))]
    for i, (a, b) in enumerate(zip(circuit.src_a, circuit.src_b), r):
        read[a].append(i)
        if b != a:
            read[b].append(i)
    return read


def fan_out_cone(read: list[list[int]], index: int) -> list[int]:
    """index and every gate that reads it through some path, ascending."""
    cone = {index}
    stack = [index]
    while stack:
        for i in read[stack.pop()]:
            if i not in cone:
                cone.add(i)
                stack.append(i)
    return sorted(cone)


def fault_values(circuit: Circuit, free: list[int], fault: Fault,
                 cone: list[int]) -> list[int]:
    """The value of every index under fault, from the fault-free values.

    cone is the faulted gate's index and its fan-out cone, ascending
    (fan_out_cone).  A fault at a gate output forces that gate's vector to
    the stuck value; a fault at a gate input forces the corresponding source
    value before the table is applied, for that gate only.  Then every later
    gate of the cone is refreshed in index order; every other index keeps its
    fault-free value, which no fault outside it can change.
    """
    r = circuit.r
    full = full_mask(r)
    tt, src_a, src_b = circuit.tt, circuit.src_a, circuit.src_b
    v = free.copy()
    g = fault.gate
    stuck = full if fault.stuck else 0
    if fault.site is FaultSite.OUTPUT:
        v[r + g] = stuck
    elif fault.site is FaultSite.INPUT_A:
        v[r + g] = _tt_vector(tt[g], stuck, v[src_b[g]], full)
    else:
        v[r + g] = _tt_vector(tt[g], v[src_a[g]], stuck, full)
    for i in cone[1:]:
        k = i - r
        v[i] = _tt_vector(tt[k], v[src_a[k]], v[src_b[k]], full)
    return v


def simulate(circuit: Circuit) -> ResponseMatrix:
    """Fault-free outputs and rails across all 2**r words."""
    v = values(circuit)
    rails = None if circuit.rails is None else tuple(v[s] for s in circuit.rails)
    return ResponseMatrix(1 << circuit.r, tuple(v[s] for s in circuit.outputs), rails)


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
