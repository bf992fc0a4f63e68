"""Four-objective fitness (f_f, f_ST, f_FS, f_p) and its lexicographic order.

evaluate_circuit is the one scoring body.  From one fault-free wave
(sim.values) of a circuit with error rails (without them it raises
ValueError) it scores f_f and computes_target over the function outputs
and hands the wave to the checking half, _fault_counts, which tests the
fault-free rails for a collision, counts the checking faults (u_f, u_i)
and maps them to f_ST and f_FS.  Both read the flat int arrays a Circuit
stores (see netlist), never its Gate view; every gate is live.  The
benchmark (perfbench) times the fault-free half and the checking half
apart through fault_free_response and evaluate_checking, which the search
does not call; evaluate_checking runs the same _fault_counts on a wave of
its own.
The wave and the gate table kernel (sim.GATE_EVAL) are shared with the
verify oracle; the fault model below, one inverted-output slot per gate and
its readouts, is not.

Gate faults are simulated in parallel (Waicukauski et al., "Fault
simulation for structured VLSI", 1985).  A packed int holds one 2**r-bit
slot per gate, and bit w of slot k is a signal's value at input word w with
gate k's output inverted at every word.  Each input is copied across all
slots by one multiply with the slot-repeat constant, every gate is
evaluated once over the whole int, and a gate's own slot is inverted as
soon as it is evaluated, so the flip reaches its fan-out.  The rails then
give every slot's error mask (applied words where z_0 == z_1), and u_i is
one popcount of the applied words with a wrong function output and no error
signal.  One packed int is at most PASS_BITS wide; a circuit with more
gates takes several passes, each over the slots of a run of consecutive
gates.  A pass copies the fault-free values of the gates before its run the
same way as the inputs, since no flip of its run reaches them.

One slot serves all six stuck-at faults of its gate, because the checking
counts are taken only when the fault-free rails do not collide on any
applied word.  At each word a fault either leaves the gate output as it is,
and the circuit is fault-free there (no error signal, no wrong output), or
flips it, and the circuit behaves as the slot.  Output stuck-at-0 flips the
output where the fault-free output is 1, stuck-at-1 where it is 0.  Input a
stuck at s flips it where the gate follows a (flipping a flips the output,
as the truth table says) and a != s; likewise b.  A fault is detected when
a word it flips is signalled in its gate's slot; _detections gives those
words for all six faults.  The two output faults' wrong unsignalled words
add up to the slot's own, which is why u_i is one popcount.

u_f is read out pass by pass.  One carry per slot counts the busy slots,
those with a signalled word (_busy_slots, the "find a zero field" test of
Warren, "Hacker's Delight", 2nd ed., 2012, ch. 6, which verify uses for its
undetected faults too); each other slot is idle and leaves all six faults
of its gate undetected.  The busy slots are read out in one of two ways,
which give the same counts.  The per-slot readout cuts each slot off the
error int and counts its empty _detections masks.  The packed readout lays
the pass's fault-free gate outputs, a and b sources and tables out in the
same slots (_pack), one int for all four, takes every slot's masks from one
_detections call and counts each mask's busy slots.  Its set-up costs about
as much as reading a dozen slots one by one, so a pass is read packed only
from PACKED_READOUT_SLOTS busy slots up, and only where a slot is one array
item (8 to 64 bits, so 3 <= r <= 6).
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from typing import Sequence

from . import sim
from .netlist import Circuit
from .sim import GATE_EVAL, ResponseMatrix, full_mask

K_ST = 25
K_FS = 200

# Width cap, in bits, of one packed int of the fault pass: a pass holds
# PASS_BITS >> r gates (at least one), one 2**r-bit slot each.  The
# one-slot pass is exact only where the fault-free rails do not collide on
# an applied word.
PASS_BITS = 1 << 16

# Fewest busy slots at which a pass is read out packed rather than slot by
# slot; the two readouts tie between 8-11 and 12-15.  Per call of
# _fault_counts on checked mult2 search circuits (4 islands, 5k evals, rng
# seeds 0-2; r = 4, median 23-40 gates; 2-vCPU Xeon, Python 3.11; per
# circuit the best of 9 calls of each readout in turn, median over up to 150
# circuits, two runs), packed minus per-slot: +7.1 to +7.3 us at 0-3 busy
# slots, +2.5 to +2.6 at 8-11, -2.0 to -2.6 at 12-15 and -3.5 to -7.0 at
# 16-19.  On the decod duplication baseline (r = 5, 146 gates, every slot
# busy) packed took 102 us against 228 us per slot.
PACKED_READOUT_SLOTS = 12

# array typecode of each slot width that has one: 1, 2, 4 and 8 bytes.
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}

@dataclass(frozen=True)
class FitnessVector:
    """Objectives in priority order plus the raw counts behind them; only a
    circuit with error rails is scored.

    u_f and u_i are None when the fault-free rails already collide (the
    checking scores are then zero by definition and no faults are simulated).
    computes_target says whether every function output equals its target
    column on the applied words: f_f scores |correlation|, so a complemented
    output scores as high as the right one.
    """

    f_f: float
    f_st: float
    f_fs: float
    f_p: float
    u_f: int | None = None
    u_i: int | None = None
    live_gates: int = 0
    computes_target: bool = False

    def key(self) -> tuple[float, float, float, float]:
        """Dictionary order on (f_f, f_ST, f_FS, f_p); later entries break ties."""
        return (self.f_f, self.f_st, self.f_fs, self.f_p)

    @property
    def perfect_checking(self) -> bool:
        return (self.f_f == 1.0 and self.f_st == 1.0 and self.f_fs == 1.0
                and self.computes_target)


def st_score(u_f: int) -> float:
    return 1.0 / (1 + K_ST * u_f)


def fs_score(u_i: int) -> float:
    return 1.0 / (1 + K_FS * u_i)


def _abs_corr(x: int, y: int, n: int) -> float:
    """|Pearson correlation| of two packed binary sequences of length n.

    Zero-variance sequences carry no function information and score 0.
    """
    n1x = x.bit_count()
    n1y = y.bit_count()
    den_x = n1x * (n - n1x)
    den_y = n1y * (n - n1y)
    if den_x == 0 or den_y == 0:
        return 0.0
    num = n * (x & y).bit_count() - n1x * n1y
    if num * num == den_x * den_y:
        return 1.0
    return abs(num) / math.sqrt(den_x * den_y)


def _detections(err: int, o: int, a: int, b: int, t: int, full: int,
                repeat: int) -> tuple[int, int, int, int, int, int]:
    """Each slot's signalled words at which each of its gate's six faults
    flips the output: output stuck-at-0 and -1, then input a's, then b's.
    err, o, a, b and t hold per slot the signalled words, the fault-free
    output and inputs and the table; full is one slot's all-words mask and
    repeat the slot-repeat constant, 1 for a single slot.

    Bit 2a + b of a table is the output at (a, b), so the output follows a
    where b = 0 if bits 0 and 2 differ, where b = 1 if bits 1 and 3 differ:
    bits 0 and 1 of t ^ t >> 2.  Bits 0 and 2 of t ^ t >> 1 say the same of b
    where a = 0 and where a = 1.  Each such bit, picked out with repeat and
    multiplied by full, becomes a slot of no words or all words, and
    x ^ (x ^ y) & b takes x's words where b = 0 and y's where b = 1.  A
    table is 4 bits and a packed slot at least 8, so the bits a shift carries
    in from the next slot land in the slot's top two bits, never read.
    """
    along_a = t ^ t >> 2
    along_b = t ^ t >> 1
    b0 = (along_a & repeat) * full
    a0 = (along_b & repeat) * full
    on_o = err & o
    on_a = err & (b0 ^ (b0 ^ (along_a >> 1 & repeat) * full) & b)
    on_b = err & (a0 ^ (a0 ^ (along_b >> 2 & repeat) * full) & a)
    at_a1 = on_a & a
    at_b1 = on_b & b
    return on_o, err ^ on_o, at_a1, on_a ^ at_a1, at_b1, on_b ^ at_b1


def _pack(items: list[int], code: str) -> int:
    """One int holding items[i] in its i-th array item of typecode code, least
    significant first; every item fits one."""
    packed = array(code, items)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _busy_slots(x: int, low: int, top: int) -> int:
    """Number of slots of x with a set bit, given the masks of every slot's
    low bits and of its top bit: all-ones added to a slot's low bits carries
    into its top bit iff one of them is set, and the top bit is or-ed in."""
    return (((x & low) + low | x) & top).bit_count()


def _fault_counts(circuit: Circuit, values: list[int],
                  applied: int) -> tuple[int | None, int | None, float, float]:
    """(u_f, u_i, f_ST, f_FS): the checking faults over the gates of a circuit
    with error rails, given its fault-free wave, and their scores.  Fault-free
    rails that collide (z_0 == z_1) on an applied word give (None, None, 0.0,
    0.0) without simulating a fault."""
    r = circuit.r
    slot = 1 << r
    full = (1 << slot) - 1
    z0, z1 = circuit.rails
    if (values[z0] ^ values[z1] ^ full) & applied:
        return None, None, 0.0, 0.0
    tt, src_a, src_b = circuit.tt, circuit.src_a, circuit.src_b
    n = len(tt)
    per_pass = max(1, PASS_BITS >> r)
    code = _ARRAY_CODES.get(slot >> 3)

    u_f = 0
    u_i = 0
    for k0 in range(0, n, per_pass):
        k1 = min(n, k0 + per_pass)
        span = (k1 - k0) * slot
        wide = (1 << span) - 1
        repeat = wide // full
        # No flip of this pass reaches the gates before its run.
        v = [x * repeat for x in values[: r + k0]]
        flip = full
        for k in range(k0, k1):
            v.append(GATE_EVAL[tt[k]](v[src_a[k]], v[src_b[k]], wide) ^ flip)
            flip <<= slot
        for k in range(k1, n):
            v.append(GATE_EVAL[tt[k]](v[src_a[k]], v[src_b[k]], wide))

        applied_all = applied * repeat
        err = (v[z0] ^ v[z1] ^ wide) & applied_all
        wrong = 0
        for i in circuit.outputs:
            wrong |= v[i] ^ values[i] * repeat
        u_i += (wrong & (err ^ applied_all)).bit_count()

        top = repeat << (slot - 1)
        low = wide ^ top
        busy = _busy_slots(err, low, top)
        u_f += 6 * (k1 - k0 - busy)  # both output faults and all four input faults
        if code is not None and busy >= PACKED_READOUT_SLOTS:
            # Fields, low to high: fault-free outputs, a, b, tables.
            packed = _pack([*values[r + k0:r + k1],
                            *map(values.__getitem__, src_a[k0:k1]),
                            *map(values.__getitem__, src_b[k0:k1]),
                            *tt[k0:k1]], code)
            detected = _detections(err, packed & wide, packed >> span & wide,
                                   packed >> 2 * span & wide, packed >> 3 * span,
                                   full, repeat)
            u_f += 6 * busy - sum(_busy_slots(x, low, top) for x in detected)
            continue
        for k in range(k0, k1):
            err_k = err & full
            err >>= slot
            if err_k:
                u_f += _detections(err_k, values[r + k], values[src_a[k]],
                                   values[src_b[k]], tt[k], full, 1).count(0)
    return u_f, u_i, st_score(u_f), fs_score(u_i)


def fault_free_response(circuit: Circuit) -> ResponseMatrix:
    """Fault-free response of a circuit with error rails."""
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    return sim.simulate(circuit)


def evaluate_checking(
    circuit: Circuit,
    resp_free: ResponseMatrix,
    word_mask: int | None = None,
) -> tuple[int | None, int | None, float, float]:
    """(u_f, u_i, f_ST, f_FS) of a circuit with error rails: evaluate_circuit's
    checking half (_fault_counts).  The benchmark times it apart from
    fault_free_response, whose resp_free it is handed; the counts come from
    the circuit's own wave, so resp_free is not read."""
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    full = full_mask(circuit.r)
    applied = full if word_mask is None else word_mask & full
    return _fault_counts(circuit, sim.values(circuit), applied)


def evaluate_circuit(
    circuit: Circuit,
    target: Sequence[int],
    max_gates: int,
    word_mask: int | None = None,
) -> FitnessVector:
    """All four metrics of a circuit with error rails (ValueError without);
    none is short-circuited when an earlier one is low."""
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    if len(circuit.outputs) != len(target):
        raise ValueError("target column count does not match circuit outputs")
    if not target:
        raise ValueError("no function outputs to score")
    values = sim.values(circuit)
    full = full_mask(circuit.r)
    applied = full if word_mask is None else word_mask & full
    n = applied.bit_count()
    total = 0.0
    wrong = 0
    for i, want in zip(circuit.outputs, target):
        got = values[i]
        total += _abs_corr(got & applied, want & applied, n)
        wrong |= got ^ want
    live_count = len(circuit.tt)
    f_p = (max_gates - live_count) / max_gates
    u_f, u_i, f_st, f_fs = _fault_counts(circuit, values, applied)
    return FitnessVector(total / len(target), f_st, f_fs, f_p, u_f, u_i, live_count,
                         not wrong & applied)
