"""Independent brute-force self-checking verification.

Every fault in the full set (output and both input lines, both polarities,
per gate) is simulated directly, with no manifestation shortcut: each call
runs the fault-free wave once, then every fault once, in its own slot of a
packed pass (fault_pass); nothing is kept across calls.  The oracle shares
the gate table kernel (sim.GATE_EVAL) and the fault-free wave (sim.values)
with fitness, and nothing of the fault model: its injection (fault_pass)
and readout (verify_tsc) are its own, not fitness's inverted-output slots.
This is the oracle the fast fitness path is checked against, and the proof
engine for candidate circuits.

There is one report type, TscReport, and two entry points: verify_tsc over
the full fault set, optionally checking the function against a target, and
verify_fs, the same report cut down to a chosen fault scope.  It is the only
diagnosis: a checker fault that a limited output codespace leaves untestable
is undetected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from . import sim
from .netlist import Circuit, Fault, FaultSite
from .sim import FaultScope, full_mask, values

# Most bits one packed fault pass holds: a pass takes the faults of as many
# consecutive gates as fit, one 2**r-bit slot each, and at least one gate.
# Of the caps 2**10 to 2**14, 2**12 was the fastest or within noise of it
# (2-vCPU Xeon, Python 3.11; median over 8 circuits of the best of 9 calls):
# 2**10..2**14 took 1.14/0.90/0.80/0.78/0.77 ms on decod replay circuits
# (r = 5, ~146 gates; the order of 2**12..2**14 changed between three
# runs), and 3.50/3.76/3.70/3.73/3.69, 6.92/6.81/6.85/6.75/6.90 and
# 13.8/13.7/13.9/16.4/14.6 ms on random circuits of 8-13 gates at r = 10,
# 11 and 12.
FAULT_PASS_BITS = 1 << 12
_ONE = re.compile("1")

# The (site, stuck) of a gate's six faults, in the order of their slots in a
# pass.
_SLOT_FAULTS = ((FaultSite.OUTPUT, 0), (FaultSite.OUTPUT, 1), (FaultSite.INPUT_A, 0),
                (FaultSite.INPUT_A, 1), (FaultSite.INPUT_B, 0), (FaultSite.INPUT_B, 1))


def _fault(i: int) -> Fault:
    """The circuit's fault i in slot order: gate i // 6, _SLOT_FAULTS[i % 6]."""
    gate, j = divmod(i, 6)
    site, stuck = _SLOT_FAULTS[j]
    return Fault(site, gate, stuck)


@dataclass
class TscReport:
    """is_tsc is the self-checking property alone: self-testing (is_st, no
    undetected fault) and fault-secure (is_fs, no violation and no fault-free
    false alarm).  computes_target says whether every function output equals
    its target column on the applied words; it is None when no target was
    given."""

    false_alarm: bool
    undetected: list[Fault] = field(default_factory=list)
    violations: list[tuple[Fault, int]] = field(default_factory=list)
    computes_target: bool | None = None

    @property
    def is_st(self) -> bool:
        return not self.undetected

    @property
    def is_fs(self) -> bool:
        return not self.violations and not self.false_alarm

    @property
    def is_tsc(self) -> bool:
        return self.is_st and self.is_fs

    def summary(self) -> str:
        verdict = "TSC" if self.is_tsc else "not TSC"
        parts = [
            f"{verdict}: self-testing={self.is_st}",
            f"fault-secure={self.is_fs}",
            f"fault-free false alarm={self.false_alarm}",
            f"undetected faults={len(self.undetected)}",
            f"unsignalled incorrect instances={len(self.violations)}",
        ]
        if self.computes_target is not None:
            parts.append(f"computes target={self.computes_target}")
        return ", ".join(parts)


def fault_pass(circuit: Circuit, free: list[int], first: int,
               last: int) -> tuple[list[int | None], int]:
    """Every index under each fault of gates first..last-1, packed, and the
    pass's slot-repeat constant rep.

    Parallel fault simulation (Abramovici, Breuer & Friedman, "Digital
    Systems Testing and Testable Design", 1990, ch. 5): slot i (2**r bits,
    from the least significant end) is the whole circuit under the i-th of
    those faults, six slots per gate in _SLOT_FAULTS order.  free is the
    fault-free value of every index (sim.values); rep holds bit 0 of every
    slot, so free[i] * rep is index i fault-free in every slot.

    Each gate is applied once over the whole int, and right after it the
    gate's own slots are overwritten with its faults explicitly: the stuck
    constant for an output fault, the table over the stuck constant and the
    other source's fault-free value for an input fault.  That is exact: a
    gate reads only lower indices, so in its own slots its sources are
    fault-free; every later gate is applied after its sources; and a table
    acts bit by bit, so no slot reads another.  A gate that reads no index
    the pass changed (every gate before the run, and every gate outside the
    run's fan-out) is fault-free in every slot: it is not applied, and its
    entry is None.
    """
    gate_eval = sim.GATE_EVAL
    r = circuit.r
    full = full_mask(r)
    width = 1 << r
    tt, src_a, src_b = circuit.tt, circuit.src_a, circuit.src_b
    block_width = 6 * width
    block = (1 << block_width) - 1
    wide = (1 << (last - first) * block_width) - 1
    rep = wide // full
    v: list[int | None] = [None] * (r + len(tt))
    for k in range(first, len(tt)):
        a, b = src_a[k], src_b[k]
        va, vb = v[a], v[b]
        if va is not None or vb is not None:
            out = gate_eval[tt[k]](free[a] * rep if va is None else va,
                                   free[b] * rep if vb is None else vb, wide)
        elif k < last:
            out = free[r + k] * rep
        else:
            continue
        if k < last:
            # The gate's own slots, in _SLOT_FAULTS order.
            gate = gate_eval[tt[k]]
            fa, fb = free[a], free[b]
            own = (full << width
                   | gate(0, fb, full) << 2 * width
                   | gate(full, fb, full) << 3 * width
                   | gate(fa, 0, full) << 4 * width
                   | gate(fa, full, full) << 5 * width)
            shift = (k - first) * block_width
            out = out & ~(block << shift) | own << shift
        v[r + k] = out
    return v, rep


def verify_tsc(
    circuit: Circuit,
    word_mask: int | None = None,
    target: Sequence[int] | None = None,
) -> TscReport:
    """TSC iff self-testing, fault-secure over the full set, and no fault-free
    rail collision.  With target (one packed column per function output) the
    report also says whether the circuit computes it on the applied words.

    A fault is detected iff some applied word yields z_0 == z_1.  Per pass
    (fault_pass), one addition marks every slot with such a word (a carry
    into the slot's top bit: the "find a zero field" test of Warren,
    "Hacker's Delight", 2nd ed., 2012, ch. 6); the unmarked slots, ascending,
    are the undetected faults.  An incorrect output on an applied word
    without that collision is a violation, one per set bit of the pass's
    unsignalled incorrect words; with a fault-free false alarm no violations
    are listed.
    """
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    if target is not None and len(target) != circuit.q:
        raise ValueError(
            f"target has {len(target)} columns, circuit has {circuit.q} outputs"
        )
    r = circuit.r
    full = full_mask(r)
    applied = full if word_mask is None else word_mask & full
    free = values(circuit)
    outputs, (rail0, rail1) = circuit.outputs, circuit.rails
    computes_target = None
    if target is not None:
        computes_target = all(
            not (free[s] ^ want) & applied for s, want in zip(outputs, target)
        )
    false_alarm = (free[rail0] ^ free[rail1] ^ full) & applied != 0
    width = 1 << r
    step = max(1, FAULT_PASS_BITS // (6 * width))
    n = len(circuit.tt)
    undetected: list[Fault] = []
    violations: list[tuple[Fault, int]] = []
    for first in range(0, n, step):
        v, rep = fault_pass(circuit, free, first, min(first + step, n))
        z0, z1 = (free[s] * rep if v[s] is None else v[s] for s in circuit.rails)
        applied_wide = applied * rep
        wide = full * rep
        signalled = (z0 ^ z1 ^ wide) & applied_wide
        # A slot's top bit is set in seen iff the slot has a signalled word:
        # all-ones added to the slot's low bits carries into its top bit iff
        # one of them is signalled, and the top bit's own word is or-ed in.
        # Each slot whose top bit stays clear, ascending, is undetected.
        top = rep << (width - 1)
        low = wide ^ top
        seen = ((signalled & low) + low | signalled) & top
        for m in _ONE.finditer(format(seen ^ top, "b")[::-1]):
            undetected.append(_fault(6 * first + (m.start() >> r)))
        if false_alarm:
            continue  # no violations are listed
        wrong = 0
        for s in outputs:
            if v[s] is not None:
                wrong |= v[s] ^ free[s] * rep
        # Each set bit of a fault's slot, ascending, is one violation.
        slot = -1
        for m in _ONE.finditer(format(wrong & applied_wide & ~signalled, "b")[::-1]):
            at = m.start()
            if at >> r != slot:
                slot = at >> r
                f = _fault(6 * first + slot)
            violations.append((f, at & width - 1))
    return TscReport(false_alarm, undetected, violations, computes_target)


def verify_fs(
    circuit: Circuit,
    scope: FaultScope = FaultScope.ALL,
    word_mask: int | None = None,
) -> TscReport:
    """Fault-secureness: no incorrect output without a simultaneous error.

    The report covers the faults of scope only, so its is_st, is_tsc and
    undetected hold for that scope alone: the full set's report with the
    other faults left out.  A circuit whose fault-free rails collide on some
    applied word is reported not fault-secure with the false_alarm flag set
    and no violations listed.
    """
    report = verify_tsc(circuit, word_mask)
    sites = (FaultSite.OUTPUT,) if scope is FaultScope.OUTPUTS_ONLY else tuple(FaultSite)
    undetected = [f for f in report.undetected if f.site in sites]
    violations = [(f, w) for f, w in report.violations if f.site in sites]
    return TscReport(report.false_alarm, undetected, violations)

