"""Independent brute-force self-checking verification.

Every fault in the full set (output and both input lines, both polarities,
per gate) is simulated directly, with no manifestation shortcut and no code
shared with the fitness-side fault evaluation.  Each call simulates the
fault-free circuit once, then each fault of its scope once: the fault's
wave starts from the fault-free values and re-evaluates only the faulted
gate and its fan-out cone (sim.fault_values), which is exact because no
other index can differ from its fault-free value.  The cone is built just
before a gate's faults from reader lists built once per call; nothing is
kept across calls.  Self-testing, fault-secureness, the fault-free false
alarm and, given a target, whether the function outputs compute it, are read
from that one pass.  This is the oracle the fast fitness path is checked
against, and the proof engine for candidate circuits.

There is one report type, TscReport, and two entry points: verify_tsc over
the full fault set, optionally checking the function against a target, and
verify_fs over a chosen fault scope.  It is the only diagnosis: a checker
fault that a limited output codespace leaves untestable is undetected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .netlist import Circuit, Fault
from .sim import (FaultScope, enumerate_faults, fan_out_cone, fault_values, full_mask,
                  readers, values)


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


def _report(
    circuit: Circuit,
    scope: FaultScope,
    word_mask: int | None,
    target: Sequence[int] | None = None,
) -> TscReport:
    """Simulate the fault-free circuit once and each fault of scope once, over
    its gate's fan-out cone.

    A fault is detected iff some applied word yields z_0 == z_1.  An incorrect
    output on an applied word without that collision is a violation; with a
    fault-free false alarm no violations are listed.  With a target, the
    fault-free outputs are also compared with its columns on the applied
    words.
    """
    if circuit.rails is None:
        raise ValueError("circuit has no error rails")
    if target is not None and len(target) != circuit.q:
        raise ValueError(
            f"target has {len(target)} columns, circuit has {circuit.q} outputs"
        )
    full = full_mask(circuit.r)
    applied = full if word_mask is None else word_mask & full
    free = values(circuit)
    outputs, (rail0, rail1) = circuit.outputs, circuit.rails
    computes_target = None
    if target is not None:
        computes_target = all(
            not (free[s] ^ want) & applied for s, want in zip(outputs, target)
        )
    false_alarm = (free[rail0] ^ free[rail1] ^ full) & applied != 0
    read = readers(circuit)
    undetected: list[Fault] = []
    violations: list[tuple[Fault, int]] = []
    cone_gate = None
    for fault in enumerate_faults(circuit, scope):
        if fault.gate != cone_gate:
            cone_gate = fault.gate
            cone = fan_out_cone(read, circuit.r + cone_gate)
        v = fault_values(circuit, free, fault, cone)
        signalled = (v[rail0] ^ v[rail1] ^ full) & applied
        if not signalled:
            undetected.append(fault)
        wrong = 0
        for s in outputs:
            wrong |= v[s] ^ free[s]
        w = wrong & applied & ~signalled
        while w:
            low = w & -w
            violations.append((fault, low.bit_length() - 1))
            w ^= low
    if false_alarm:
        violations = []
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
    undetected hold for that scope alone.  A circuit whose fault-free rails
    collide on some applied word is reported not fault-secure with the
    false_alarm flag set and no violations listed.
    """
    return _report(circuit, scope, word_mask)


def verify_tsc(
    circuit: Circuit,
    word_mask: int | None = None,
    target: Sequence[int] | None = None,
) -> TscReport:
    """TSC iff self-testing, fault-secure over the full set, and no fault-free
    rail collision.  With target (one packed column per function output) the
    report also says whether the circuit computes it on the applied words."""
    return _report(circuit, FaultScope.ALL, word_mask, target)
