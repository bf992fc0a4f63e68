"""Four-objective fitness (f_f, f_ST, f_FS, f_p) and its lexicographic order.

Only circuits with error rails (z_0, z_1) are scored; one without them
raises ValueError.  Every evaluation reads the flat int arrays a Circuit
stores (truth table, source a, source b, in one index space that holds the
r primary inputs first and then the gates in order; see netlist) and never
its Gate view; every gate of a circuit is live.  The fault-free values, f_f,
the live gate count and the checking counts (u_f, u_i) all come from that
one form and one fault-free simulation, sim.values.  That wave and the gate
table kernel (sim.GATE_EVAL) are shared with the verify oracle; the fault
model below, its one inverted-output slot per gate and its readouts, is not.

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

One slot serves both stuck-at faults of the output, because the checking
counts are taken only when the fault-free rails do not collide on any
applied word.  At a word where the fault-free output o is 1, stuck-at-0 is
the flip; where o is 0, it is the fault-free circuit, which signals no error
there and has no wrong output.  So output stuck-at-0 is detected at the
flip slot's error words where o is 1, and stuck-at-1 at those where o is 0,
and the two faults' wrong unsignalled words add up to the flip slot's own,
which is why u_i is still one popcount.

Input faults never get their own simulation either.  An input stuck-at
leaves the gate output unchanged at a word or flips it, and at a flipped
word the circuit behaves as under the flip.  The output flips where it
follows that input (_follows, read off the truth-table bits) and the input
differs from the stuck value, so the fault is detected when one of those
words is in the gate's error mask.

u_f is read out pass by pass.  One carry per slot counts the busy slots,
those with a signalled word (_busy_slots, the "find a zero field" test of
Warren, "Hacker's Delight", 2nd ed., 2012, ch. 6, which verify uses for its
undetected faults too); each other slot is idle and leaves all six faults
of its gate undetected.  The busy slots are read out in one of two ways,
which give the same counts.  The per-slot readout cuts each slot off the
error int and tests its six faults with _follows.  The packed readout lays
the pass's fault-free gate outputs, a and b sources and tables out in the
same slots (_pack), one int for all four, builds every slot's follow masks
at once and counts the slots where each of the six faults is detected with
one carry test each.  Its set-up costs about as much as reading a dozen
slots one by one, so a pass is read packed only from PACKED_READOUT_SLOTS
busy slots up, and only where a slot is one array item (8 to 64 bits, so
3 <= r <= 6).
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
# slot; the two readouts tie at 12-15.  Per call of _fault_counts on checked
# mult2 search circuits (r = 4, median 19-27 gates; 2-vCPU Xeon, Python
# 3.11, median of the best of 9 calls, two runs), per-slot against packed:
# 13.0-14.0 vs 19.7-21.1 us at 0-3 busy slots, 17.9-18.1 vs 20.2-21.0 at
# 8-11, 23.3-24.7 vs 24.7-24.8 at 12-15 and 22.3-23.0 vs 20.2-20.4 at 16-19.
# On decod replay circuits (r = 5, 146 gates, every slot busy) packed took
# 194 us against 356 us per slot.
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


def f_function(
    resp: ResponseMatrix, target: Sequence[int], word_mask: int | None = None
) -> float:
    """Mean |correlation| between each function output and its target column."""
    return _function_scores(resp, target, word_mask)[0]


def _function_scores(
    resp: ResponseMatrix, target: Sequence[int], word_mask: int | None
) -> tuple[float, bool]:
    """f_f, and whether every output equals its target on the applied words."""
    if len(resp.outputs) != len(target):
        raise ValueError("target column count does not match circuit outputs")
    if not target:
        raise ValueError("no function outputs to score")
    full = (1 << resp.n_words) - 1
    mask = full if word_mask is None else word_mask & full
    n = mask.bit_count()
    total = 0.0
    wrong = 0
    for got, want in zip(resp.outputs, target):
        total += _abs_corr(got & mask, want & mask, n)
        wrong |= got ^ want
    return total / len(target), not wrong & mask


def _response(circuit: Circuit, values: list[int]) -> ResponseMatrix:
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    z0, z1 = circuit.rails
    return ResponseMatrix(1 << circuit.r, tuple(values[i] for i in circuit.outputs),
                          (values[z0], values[z1]))


def _follows(t: int, a: int, b: int, full: int) -> tuple[int, int]:
    """Words at which a gate with table t and packed inputs a, b follows
    input a (flipping a flips the output), and those at which it follows b.

    Bit 2a + b of t is the output at (a, b), so the output follows a where
    b = 0 if bits 0 and 2 differ, where b = 1 if bits 1 and 3 differ, and
    follows b where a = 0 if bits 0 and 1 differ, where a = 1 if bits 2 and 3
    differ.  Input a stuck at s flips the output exactly at the words where it
    follows a and a != s; likewise for b.

    The packed readout of _fault_counts builds these masks for every slot of
    a pass at once, from its tables laid out one per slot.  Bits 0 and 1 of
    a slot of t ^ (t >> 2) are that table's along_a bits, and bits 0 and 2
    of t ^ (t >> 1) its along_b bits: a table is 4 bits and a slot at least
    8, so the bits a shift carries in from the next slot land in the slot's
    top two bits, which are never read.  Each such bit, picked out with the
    slot-repeat constant and multiplied by the all-words mask, becomes a
    slot of no words or all words, which selects b ^ full and b (a ^ full
    and a) exactly as the conditionals here do.
    """
    along_a = t ^ (t >> 2)
    along_b = t ^ (t >> 1)
    return (
        (b ^ full if along_a & 1 else 0) | (b if along_a & 2 else 0),
        (a ^ full if along_b & 1 else 0) | (a if along_b & 4 else 0),
    )


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


def _fault_counts(circuit: Circuit, values: list[int], applied: int) -> tuple[int, int]:
    """(u_f, u_i) over the gates of a circuit whose fault-free rails do not
    collide on the applied words."""
    r = circuit.r
    slot = 1 << r
    full = (1 << slot) - 1
    tt, src_a, src_b = circuit.tt, circuit.src_a, circuit.src_b
    n = len(tt)
    z0, z1 = circuit.rails
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
        # Signalled words at which a flip of the output, of input a and of
        # input b flips the output.  Stuck-at-0 of a line acts where the line
        # is 1, stuck-at-1 where it is 0; a fault acting at none of its
        # line's words is undetected, and an idle slot has no such word.
        if code is not None and busy >= PACKED_READOUT_SLOTS:
            # Fields, low to high: fault-free outputs, a, b, tables (see
            # _follows for the follow masks).  Each of the six tests counts
            # the slots where one fault is detected.
            packed = _pack([*values[r + k0:r + k1],
                            *map(values.__getitem__, src_a[k0:k1]),
                            *map(values.__getitem__, src_b[k0:k1]),
                            *tt[k0:k1]], code)
            a = packed >> span & wide
            b = packed >> 2 * span & wide
            t = packed >> 3 * span
            along_a = t ^ (t >> 2)
            along_b = t ^ (t >> 1)
            on_o = err & packed
            on_a = err & ((b ^ wide) & (along_a & repeat) * full
                          | b & (along_a >> 1 & repeat) * full)
            on_b = err & ((a ^ wide) & (along_b & repeat) * full
                          | a & (along_b >> 2 & repeat) * full)
            at_a1 = on_a & a
            at_b1 = on_b & b
            u_f += 6 * busy - sum(
                _busy_slots(x, low, top)
                for x in (on_o, err ^ on_o, at_a1, on_a ^ at_a1, at_b1, on_b ^ at_b1)
            )
            continue
        for k in range(k0, k1):
            err_k = err & full
            err >>= slot
            if not err_k:
                continue
            a, b = values[src_a[k]], values[src_b[k]]
            on_a, on_b = _follows(tt[k], a, b, full)
            on_o = err_k & values[r + k]
            on_a &= err_k
            on_b &= err_k
            at_a1 = on_a & a
            at_b1 = on_b & b
            u_f += ((not on_o) + (on_o == err_k) + (not at_a1) + (at_a1 == on_a)
                    + (not at_b1) + (at_b1 == on_b))
    return u_f, u_i


def fault_free_response(circuit: Circuit) -> ResponseMatrix:
    """Fault-free response of a circuit with error rails."""
    return _response(circuit, sim.values(circuit))


def evaluate_checking(
    circuit: Circuit,
    resp_free: ResponseMatrix,
    word_mask: int | None = None,
) -> tuple[int | None, int | None, float, float]:
    """(u_f, u_i, f_ST, f_FS) for a circuit with error rails.

    An error signalled during fault-free operation (z_0 == z_1 at any applied
    word) zeroes both scores immediately.
    """
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    return _checking(circuit, resp_free.rails, word_mask)


def _checking(
    circuit: Circuit, rails: tuple[int, int], word_mask: int | None,
    values: list[int] | None = None,
) -> tuple[int | None, int | None, float, float]:
    """(u_f, u_i, f_ST, f_FS) given the fault-free rail values; the circuit
    is simulated only when they do not collide and values is None."""
    full = full_mask(circuit.r)
    applied = full if word_mask is None else word_mask & full
    if (rails[0] ^ rails[1] ^ full) & applied:
        return (None, None, 0.0, 0.0)
    if values is None:
        values = sim.values(circuit)
    u_f, u_i = _fault_counts(circuit, values, applied)
    return (u_f, u_i, st_score(u_f), fs_score(u_i))


def evaluate_circuit(
    circuit: Circuit,
    target: Sequence[int],
    max_gates: int,
    word_mask: int | None = None,
) -> FitnessVector:
    """All four metrics; none is short-circuited when an earlier one is low.

    The circuit must carry error rails; one without them raises ValueError.
    """
    values = sim.values(circuit)
    resp = _response(circuit, values)
    ff, exact = _function_scores(resp, target, word_mask)
    live_count = len(circuit.tt)
    f_p = (max_gates - live_count) / max_gates
    u_f, u_i, f_st, f_fs = _checking(circuit, resp.rails, word_mask, values)
    return FitnessVector(ff, f_st, f_fs, f_p, u_f, u_i, live_count, exact)
