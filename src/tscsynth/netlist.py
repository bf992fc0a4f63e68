"""Two-input gate netlists and reference checking constructions.

A circuit is a feed-forward list of two-input gates over primary inputs
x_0..x_{r-1}.  Gate sources always point at primary inputs or at gates
earlier in the list, so the list order is a topological order.  A circuit
exposes q function outputs y_0..y_{q-1} and, optionally, a dual-rail error
signal (z_0, z_1): normal operation requires z_0 != z_1 and the error
condition is z_0 == z_1.

Every gate is live: a later gate, a function output or a rail reads it, so
each has a path to an output.  Simulation, fault enumeration and size
metrics therefore take all gates, and the gate count is the circuit's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# Function names for the 16 two-input truth tables, indexed by table value.
# LT/GT/LE/GE read as comparisons of the first input against the second.
GATE_NAMES = (
    "ZERO", "NOR", "LT", "NOTA", "GT", "NOTB", "XOR", "NAND",
    "AND", "XNOR", "B", "LE", "A", "GE", "OR", "ONE",
)


@dataclass(frozen=True)
class TruthTable2:
    """Boolean function of two inputs; bit 2*a + b holds the output for (a, b)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 16:
            raise ValueError(f"truth table value out of range: {self.value}")

    @classmethod
    def from_bits(cls, bits) -> "TruthTable2":
        t0, t1, t2, t3 = bits
        if not {t0, t1, t2, t3} <= {0, 1}:
            raise ValueError(f"truth-table entries must be 0 or 1, got {list(bits)}")
        return cls(t0 | (t1 << 1) | (t2 << 2) | (t3 << 3))

    @classmethod
    def from_function(cls, fn) -> "TruthTable2":
        return cls.from_bits([fn(a, b) for a in (0, 1) for b in (0, 1)])

    @property
    def bits(self) -> tuple[int, int, int, int]:
        return tuple((self.value >> k) & 1 for k in range(4))

    @property
    def name(self) -> str:
        return GATE_NAMES[self.value]

    def eval(self, a: int, b: int) -> int:
        return (self.value >> (2 * a + b)) & 1

    def complemented(self) -> "TruthTable2":
        return TruthTable2(self.value ^ 0b1111)


TT_ZERO = TruthTable2(0)
TT_NOR = TruthTable2(1)
TT_NOT_A = TruthTable2(3)
TT_XOR = TruthTable2(6)
TT_NAND = TruthTable2(7)
TT_AND = TruthTable2(8)
TT_XNOR = TruthTable2(9)
TT_BUF_A = TruthTable2(12)
TT_OR = TruthTable2(14)
TT_ONE = TruthTable2(15)


@dataclass(frozen=True)
class SignalRef:
    """Reference to a primary input ("x") or to a gate output ("g")."""

    kind: str
    index: int

    def __post_init__(self) -> None:
        if self.kind not in ("x", "g"):
            raise ValueError(f"bad signal kind: {self.kind!r}")
        if self.index < 0:
            raise ValueError(f"negative signal index: {self.index}")

    @classmethod
    def x(cls, index: int) -> "SignalRef":
        return cls("x", index)

    @classmethod
    def g(cls, index: int) -> "SignalRef":
        return cls("g", index)

    @classmethod
    def parse(cls, text: str) -> "SignalRef":
        if len(text) < 2 or text[0] not in ("x", "g") or not text[1:].isdigit():
            raise ValueError(f"bad signal reference: {text!r}")
        return cls(text[0], int(text[1:]))

    @property
    def is_input(self) -> bool:
        return self.kind == "x"

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class Gate:
    tt: TruthTable2
    a: SignalRef
    b: SignalRef


class FaultSite(Enum):
    OUTPUT = "q"
    INPUT_A = "a"
    INPUT_B = "b"


@dataclass(frozen=True)
class Fault:
    """Stuck-at fault at one gate line: output, first input, or second input."""

    site: FaultSite
    gate: int
    stuck: int

    def __post_init__(self) -> None:
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.stuck}")

    def __str__(self) -> str:
        return f"{self.site.value}{self.gate}.{self.stuck}"


@dataclass(frozen=True)
class Circuit:
    r: int
    gates: tuple[Gate, ...]
    func_outputs: tuple[SignalRef, ...]
    error_rails: tuple[SignalRef, SignalRef] | None = None

    def __post_init__(self) -> None:
        # Every reference is checked here, inline: an input index must be
        # below r, a gate index below the gate's own position for a gate
        # source, or below the gate count for an output or rail.  read[k]
        # marks gate k as read; a gate nothing reads is rejected.
        r = self.r
        if r < 0:
            raise ValueError("negative input count")
        n = len(self.gates)
        read = bytearray(n)
        for i, gate in enumerate(self.gates):
            a, b = gate.a, gate.b
            if a.kind == "g" and a.index < i:
                read[a.index] = 1
            elif a.index >= (r if a.kind == "x" else i):
                raise _bad_ref(a)
            if b.kind == "g" and b.index < i:
                read[b.index] = 1
            elif b.index >= (r if b.kind == "x" else i):
                raise _bad_ref(b)
        if self.error_rails is not None and len(self.error_rails) != 2:
            raise ValueError("error rails come in pairs")
        for ref in self.output_refs:
            if ref.kind == "g" and ref.index < n:
                read[ref.index] = 1
            elif ref.index >= (r if ref.kind == "x" else n):
                raise _bad_ref(ref)
        if 0 in read:
            raise ValueError(
                f"gate read by no later gate, output or rail: g{read.index(0)}"
            )

    @property
    def q(self) -> int:
        return len(self.func_outputs)

    @property
    def output_refs(self) -> tuple[SignalRef, ...]:
        if self.error_rails is None:
            return self.func_outputs
        return self.func_outputs + self.error_rails


def _bad_ref(ref: SignalRef) -> ValueError:
    if ref.is_input:
        return ValueError(f"input reference out of range: {ref}")
    return ValueError(f"forward or dangling gate reference: {ref}")


def duplication_overhead(g: int, q: int) -> int:
    """Gate cost of duplication-and-comparison checking: g + 6*(q - 1)."""
    if g < 0 or q < 1:
        raise ValueError("need g >= 0 and q >= 1")
    return g + 6 * (q - 1)


def _and_tt(invert_a: bool, invert_b: bool) -> TruthTable2:
    # AND with either input optionally complemented; absorbing inversions into
    # the table keeps inverted-copy outputs cost-free.
    return TruthTable2.from_function(
        lambda a, b: (a ^ invert_a) & (b ^ invert_b)
    )


# A dual-rail operand is ((low_ref, low_inverted), (high_ref, high_inverted)):
# the pair encodes value v as (NOT v, v), with per-wire flags marking sources
# whose complement should be consumed.
def _append_two_rail_checker(gates: list[Gate], pair_a, pair_b):
    """Append the 6-gate two-rail checker merging pair_a and pair_b.

    Output pair (c_0, c_1) with c_1 = (a_1 AND b_1) OR (a_0 AND b_0) and
    c_0 = (a_1 AND b_0) OR (a_0 AND b_1); it is a valid dual-rail word iff
    both input pairs are valid.
    """
    (a0, ia0), (a1, ia1) = pair_a
    (b0, ib0), (b1, ib1) = pair_b

    def emit(tt: TruthTable2, sa: SignalRef, sb: SignalRef) -> SignalRef:
        gates.append(Gate(tt, sa, sb))
        return SignalRef.g(len(gates) - 1)

    u = emit(_and_tt(ia1, ib1), a1, b1)
    v = emit(_and_tt(ia0, ib0), a0, b0)
    c1 = emit(TT_OR, u, v)
    p = emit(_and_tt(ia1, ib0), a1, b0)
    t = emit(_and_tt(ia0, ib1), a0, b1)
    c0 = emit(TT_OR, p, t)
    return ((c0, False), (c1, False))


def build_duplication_baseline(seed: Circuit) -> Circuit:
    """Seed plus an inverted functional copy and a two-rail checker tree.

    The copy's output inversions are absorbed into the consuming gates'
    truth tables, so the added gate count is gates(seed) + 6*(q - 1).  The
    checker tree is balanced, merging output pairs in index order.  For a
    single-output seed the copy itself is built inverted and the pair
    (NOT y_0, y_0) is used as the error rails directly.
    """
    if seed.error_rails is not None:
        raise ValueError("seed already carries error rails")
    q = seed.q
    if q < 1:
        raise ValueError("seed has no function outputs")

    n = len(seed.gates)
    gates = list(seed.gates)

    def copy_ref(ref: SignalRef) -> SignalRef:
        return ref if ref.is_input else SignalRef.g(n + ref.index)

    if q == 1:
        driver = seed.func_outputs[0]
        if driver.is_input:
            # Wire output: one explicit inverter is the whole "copy".
            gates.append(Gate(TT_NOT_A, driver, driver))
            rails = (SignalRef.g(len(gates) - 1), driver)
        else:
            for i, gate in enumerate(seed.gates):
                tt = gate.tt.complemented() if i == driver.index else gate.tt
                gates.append(Gate(tt, copy_ref(gate.a), copy_ref(gate.b)))
            rails = (copy_ref(driver), driver)
        return Circuit(seed.r, tuple(gates), seed.func_outputs, rails)

    for gate in seed.gates:
        gates.append(Gate(gate.tt, copy_ref(gate.a), copy_ref(gate.b)))

    pairs = [((copy_ref(drv), True), (drv, False)) for drv in seed.func_outputs]
    while len(pairs) > 1:
        merged = []
        for k in range(0, len(pairs) - 1, 2):
            merged.append(_append_two_rail_checker(gates, pairs[k], pairs[k + 1]))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    (z0, _), (z1, _) = pairs[0]
    return Circuit(seed.r, tuple(gates), seed.func_outputs, (z0, z1))


def baseline_checker_range(seed: Circuit) -> tuple[int, int]:
    """Gate index range [start, stop) holding the checker tree of the baseline."""
    n = len(seed.gates)
    if seed.q == 1:
        start = n if seed.func_outputs[0].is_input else 2 * n
        return (start, start + (1 if seed.func_outputs[0].is_input else 0))
    return (2 * n, 2 * n + 6 * (seed.q - 1))
