"""Independent brute-force self-checking verification.

Every fault in the full set (output and both input lines, both polarities,
per gate) is simulated directly, with no manifestation shortcut.  The oracle
shares the gate table kernel (sim.GATE_EVAL) and the fault-free wave
(sim.values) with fitness, and nothing of the fault model: its injection and
readout are its own, not fitness's inverted-output slots.  Each call
simulates the fault-free circuit once, then every fault of the full set once,
injected explicitly into its own slot of a packed pass (sim.fault_pass).  A
pass holds the faults of a run of consecutive gates, at most FAULT_PASS_BITS
bits (and at least one gate); nothing is kept across calls.  Self-testing,
fault-secureness, the fault-free false alarm and, given a target, whether
the function outputs compute it, are read from those passes word-parallel:
one carry per slot finds the slots with no signalled word (the "find a zero
field" test of Warren, "Hacker's Delight", 2nd ed., 2012, ch. 6), and each
violation is a set bit of the pass's unsignalled incorrect words.  This is
the oracle the fast fitness path is checked against, and the proof engine
for candidate circuits.

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

from .netlist import Circuit, Fault
from .sim import FaultScope, fault_pass, fault_sites, full_mask, repeat, values

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


@dataclass
class TscReport:
    """is_tsc is the self-checking property alone.  computes_target says
    whether every function output equals its target column on the applied
    words; it is None when no target was given."""

    is_tsc: bool
    is_st: bool
    is_fs: bool
    false_alarm: bool
    undetected: list[Fault] = field(default_factory=list)
    violations: list[tuple[Fault, int]] = field(default_factory=list)
    computes_target: bool | None = None

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


def verify_tsc(
    circuit: Circuit,
    word_mask: int | None = None,
    target: Sequence[int] | None = None,
) -> TscReport:
    """TSC iff self-testing, fault-secure over the full set, and no fault-free
    rail collision.  With target (one packed column per function output) the
    report also says whether the circuit computes it on the applied words.

    The fault-free circuit is simulated once and each fault of the full set
    once, in its slot of a packed pass.  A fault is detected iff some applied
    word yields z_0 == z_1.  Per pass, one addition marks every slot with
    such a word (a carry into the slot's top bit); the unmarked slots,
    ascending, are the undetected faults.  An incorrect output on an applied
    word without that collision is a violation; with a fault-free false alarm
    no violations are listed.
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
    sites = fault_sites(FaultScope.ALL)
    width = 1 << r
    per_gate = 2 * len(sites)
    step = max(1, FAULT_PASS_BITS // (per_gate * width))
    n = len(circuit.tt)
    undetected: list[Fault] = []
    violations: list[tuple[Fault, int]] = []
    reported: dict[int, Fault] = {}

    def fault(i: int) -> Fault:
        """Fault i of enumerate_faults, built once and only when reported."""
        if i not in reported:
            gate, j = divmod(i, per_gate)
            reported[i] = Fault(sites[j >> 1], gate, j & 1)
        return reported[i]

    for first in range(0, n, step):
        last = min(first + step, n)
        slots = (last - first) * per_gate
        v = fault_pass(circuit, free, first, last)
        rep = repeat(r, slots)
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
            undetected.append(fault(first * per_gate + (m.start() >> r)))
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
                f = fault(first * per_gate + slot)
            violations.append((f, at & width - 1))
    is_st = not undetected
    is_fs = not violations and not false_alarm
    return TscReport(is_st and is_fs, is_st, is_fs, false_alarm, undetected, violations,
                     computes_target)


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
    sites = fault_sites(scope)
    undetected = [f for f in report.undetected if f.site in sites]
    violations = [(f, w) for f, w in report.violations if f.site in sites]
    is_st = not undetected
    is_fs = not violations and not report.false_alarm
    return TscReport(is_st and is_fs, is_st, is_fs, report.false_alarm, undetected,
                     violations)

