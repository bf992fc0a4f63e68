"""Independent brute-force self-checking verification.

Every fault in the full set (output and both input lines, both polarities,
per live gate) is simulated directly, one full wave each; no manifestation
shortcut and no code shared with the fitness-side fault evaluation.  This is
the oracle the fast fitness path is checked against, and the proof engine
for candidate circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .netlist import Circuit, Fault, baseline_checker_range, build_duplication_baseline
from .sim import FaultScope, ResponseMatrix, enumerate_faults, full_mask, simulate


class StResult(NamedTuple):
    is_st: bool
    undetected: list[Fault]


class FsResult(NamedTuple):
    is_fs: bool
    violations: list[tuple[Fault, int]]
    false_alarm: bool


@dataclass
class TscReport:
    is_tsc: bool
    is_st: bool
    is_fs: bool
    false_alarm: bool
    undetected: list[Fault] = field(default_factory=list)
    violations: list[tuple[Fault, int]] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "TSC" if self.is_tsc else "not TSC"
        parts = [
            f"{verdict}: self-testing={self.is_st}",
            f"fault-secure={self.is_fs}",
            f"fault-free false alarm={self.false_alarm}",
            f"undetected faults={len(self.undetected)}",
            f"unsignalled incorrect instances={len(self.violations)}",
        ]
        return ", ".join(parts)


def _applied(circuit: Circuit, word_mask: int | None) -> int:
    full = full_mask(circuit.r)
    return full if word_mask is None else word_mask & full


def _collision_words(resp: ResponseMatrix, applied: int, full: int) -> int:
    z0, z1 = resp.rails
    return ((z0 ^ z1) ^ full) & applied


def verify_st(circuit: Circuit, word_mask: int | None = None) -> StResult:
    """Self-testing over all gate input and output faults.

    A fault is detected iff some applied word yields z_0 == z_1 under direct
    simulation of that fault.
    """
    if circuit.error_rails is None:
        raise ValueError("circuit has no error rails")
    full = full_mask(circuit.r)
    applied = _applied(circuit, word_mask)
    undetected = []
    for fault in enumerate_faults(circuit, FaultScope.ALL):
        resp = simulate(circuit, fault)
        if _collision_words(resp, applied, full) == 0:
            undetected.append(fault)
    return StResult(not undetected, undetected)


def verify_fs(
    circuit: Circuit,
    scope: FaultScope = FaultScope.ALL,
    word_mask: int | None = None,
) -> FsResult:
    """Fault-secureness: no incorrect output without a simultaneous error.

    A circuit whose fault-free rails collide on some applied word is reported
    not fault-secure with the false_alarm flag set and no violations listed.
    """
    if circuit.error_rails is None:
        raise ValueError("circuit has no error rails")
    full = full_mask(circuit.r)
    applied = _applied(circuit, word_mask)
    free = simulate(circuit)
    if _collision_words(free, applied, full):
        return FsResult(False, [], True)

    violations: list[tuple[Fault, int]] = []
    for fault in enumerate_faults(circuit, scope):
        resp = simulate(circuit, fault)
        wrong = 0
        for got, want in zip(resp.outputs, free.outputs):
            wrong |= got ^ want
        silent_wrong = wrong & applied & (_collision_words(resp, applied, full) ^ applied)
        w = silent_wrong
        while w:
            low = w & -w
            violations.append((fault, low.bit_length() - 1))
            w ^= low
    return FsResult(not violations, violations, False)


def verify_tsc(circuit: Circuit, word_mask: int | None = None) -> TscReport:
    """TSC iff self-testing, fault-secure over the full set, and no fault-free
    rail collision."""
    full = full_mask(circuit.r)
    applied = _applied(circuit, word_mask)
    false_alarm = _collision_words(simulate(circuit), applied, full) != 0
    st = verify_st(circuit, word_mask)
    fs = verify_fs(circuit, FaultScope.ALL, word_mask)
    is_tsc = st.is_st and fs.is_fs and not false_alarm
    return TscReport(is_tsc, st.is_st, fs.is_fs, false_alarm, st.undetected, fs.violations)


def check_theorem2(circuit: Circuit, word_mask: int | None = None) -> bool:
    """True iff fault-secureness over output faults implies it over all faults.

    Expected to hold for every circuit; a counterexample indicates a
    simulator defect.
    """
    over_outputs = verify_fs(circuit, FaultScope.OUTPUTS_ONLY, word_mask)
    if not over_outputs.is_fs:
        return True
    return verify_fs(circuit, FaultScope.ALL, word_mask).is_fs


@dataclass
class CodespaceReport:
    """Why a duplication baseline can fail to be self-testing.

    The checker tree only sees output patterns the seed actually produces;
    checker faults needing unproduced patterns are undetectable.
    """

    realized_patterns: int
    codespace_size: int
    baseline_is_st: bool
    undetectable_checker_faults: list[Fault]

    def summary(self) -> str:
        return (
            f"output codespace {self.realized_patterns}/{self.codespace_size} patterns, "
            f"baseline self-testing={self.baseline_is_st}, "
            f"undetectable checker faults={len(self.undetectable_checker_faults)}"
        )


def codespace_report(
    seed: Circuit,
    baseline: Circuit | None = None,
    word_mask: int | None = None,
) -> CodespaceReport:
    if baseline is None:
        baseline = build_duplication_baseline(seed)
    resp = simulate(seed)
    applied = _applied(seed, word_mask)
    patterns = set()
    w = applied
    while w:
        low = w & -w
        word = low.bit_length() - 1
        patterns.add(tuple((vec >> word) & 1 for vec in resp.outputs))
        w ^= low
    lo, hi = baseline_checker_range(seed)
    st = verify_st(baseline, word_mask)
    checker_faults = [f for f in st.undetected if lo <= f.gate < hi]
    return CodespaceReport(
        realized_patterns=len(patterns),
        codespace_size=1 << seed.q,
        baseline_is_st=st.is_st,
        undetectable_checker_faults=checker_faults,
    )
