"""Two-input gate netlists and reference checking constructions.

A circuit is a feed-forward list of two-input gates over primary inputs
x_0..x_{r-1}.  It exposes q function outputs y_0..y_{q-1} and, optionally,
a dual-rail error signal (z_0, z_1): normal operation requires z_0 != z_1
and the error condition is z_0 == z_1.

A Circuit stores one form: flat int arrays over one index space (input x_j
at j, gate k at r + k).  A gate reads only lower indices, so the list order
is a topological order.  decode emits these arrays; fitness and the verify
oracle's simulator read them.  Gate and SignalRef objects are a
read-only view of them (Circuit.gates, func_outputs, error_rails), used to
build circuits by hand and by the text formats and the CLI.

Every gate is live: a later gate, a function output or a rail reads it, so
each has a path to an output.  Simulation, fault enumeration and size
metrics therefore take all gates, and the gate count is the circuit's size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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


_TABLE_VALUES = frozenset(range(16))


@dataclass(frozen=True, init=False)
class Circuit:
    """Gate k has truth table tt[k] and reads indices src_a[k] and src_b[k];
    outputs holds the index of each function output, rails those of z_0 and
    z_1 (or None).  Equality and hash are over these fields.  The constructor
    converts Gate and SignalRef objects, from_arrays takes the arrays; both
    go through _store.  The views gates, func_outputs and error_rails are
    each built at most once."""

    r: int
    tt: tuple[int, ...]
    src_a: tuple[int, ...]
    src_b: tuple[int, ...]
    outputs: tuple[int, ...]
    rails: tuple[int, int] | None

    def __init__(self, r: int, gates, func_outputs, error_rails=None) -> None:
        # Each reference is converted inline.  An input x_j beyond r has no
        # index: ~j is negative, so it never aliases gate j - r, and _store
        # rejects it by name.
        gates = tuple(gates)
        tt, src_a, src_b = [], [], []
        for gate in gates:
            a, b = gate.a, gate.b
            tt.append(gate.tt.value)
            src_a.append(r + a.index if a.kind == "g" else a.index if a.index < r else ~a.index)
            src_b.append(r + b.index if b.kind == "g" else b.index if b.index < r else ~b.index)
        rails = () if error_rails is None else tuple(error_rails)
        outs = [r + s.index if s.kind == "g" else s.index if s.index < r else ~s.index
                for s in (*func_outputs, *rails)]
        q = len(outs) - len(rails)
        self._store(r, tt, src_a, src_b, outs[:q],
                    None if error_rails is None else outs[q:])
        self.__dict__["gates"] = gates

    @classmethod
    def from_arrays(cls, r: int, tt, src_a, src_b, outputs, rails) -> "Circuit":
        circuit = object.__new__(cls)
        circuit._store(r, tt, src_a, src_b, outputs, rails)
        return circuit

    def _store(self, r: int, tt, src_a, src_b, outputs, rails) -> None:
        """Store the arrays as tuples if they are a feed-forward netlist of
        live gates.  Gate k may read only indices below r + k, an output or
        rail only indices below r + n; a negative index is an input beyond r.
        A gate index that nothing reads is rejected."""
        tt, src_a, src_b, outputs = tuple(tt), tuple(src_a), tuple(src_b), tuple(outputs)
        rails = None if rails is None else tuple(rails)
        if r < 0:
            raise ValueError("negative input count")
        n = len(tt)
        if len(src_a) != n or len(src_b) != n:
            raise ValueError("gate arrays differ in length")
        if not _TABLE_VALUES.issuperset(tt):
            bad = next(t for t in tt if t not in _TABLE_VALUES)
            raise ValueError(f"truth table value out of range: {bad}")
        for limit, a, b in zip(range(r, r + n), src_a, src_b):
            if not 0 <= a < limit:
                raise _bad_index(a, r)
            if not 0 <= b < limit:
                raise _bad_index(b, r)
        if rails is not None and len(rails) != 2:
            raise ValueError("error rails come in pairs")
        for s in outputs + (rails or ()):
            if not 0 <= s < r + n:
                raise _bad_index(s, r)
        read = {*src_a, *src_b, *outputs, *(rails or ())}
        if not read.issuperset(range(r, r + n)):
            unread = min(set(range(r, r + n)) - read)
            raise ValueError(f"gate read by no later gate, output or rail: g{unread - r}")
        d = self.__dict__
        d["r"], d["tt"], d["src_a"], d["src_b"] = r, tt, src_a, src_b
        d["outputs"], d["rails"] = outputs, rails

    @property
    def q(self) -> int:
        return len(self.outputs)

    def _ref(self, s: int) -> SignalRef:
        return SignalRef.x(s) if s < self.r else SignalRef.g(s - self.r)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        ref = self._ref
        return tuple(Gate(TruthTable2(t), ref(a), ref(b))
                     for t, a, b in zip(self.tt, self.src_a, self.src_b))

    @cached_property
    def func_outputs(self) -> tuple[SignalRef, ...]:
        return tuple(map(self._ref, self.outputs))

    @cached_property
    def error_rails(self) -> tuple[SignalRef, SignalRef] | None:
        return None if self.rails is None else tuple(map(self._ref, self.rails))


def _bad_index(s: int, r: int) -> ValueError:
    if s < 0:
        return ValueError(f"input reference out of range: x{~s}")
    return ValueError(f"forward or dangling gate reference: g{s - r}")


def duplication_overhead(g: int, q: int) -> int:
    """Gate cost of duplication-and-comparison checking: g + 6*(q - 1)."""
    if g < 0 or q < 1:
        raise ValueError("need g >= 0 and q >= 1")
    return g + 6 * (q - 1)


def _and_tt(invert_a: bool, invert_b: bool) -> TruthTable2:
    # AND with either input optionally complemented, a table with one 1 at
    # a = not invert_a, b = not invert_b; absorbing inversions into the
    # table keeps inverted-copy outputs cost-free.
    return TruthTable2(1 << (2 * (not invert_a) + (not invert_b)))


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

    The seed's n gates come first, then the copy's, then the checker tree's:
    the checker is every gate from index 2n on.  The copy's output
    inversions are absorbed into the consuming gates' truth tables, so the
    added gate count is gates(seed) + 6*(q - 1).  The checker tree is
    balanced, merging output pairs in index order.  For a single-output seed
    the copy itself is built inverted and the pair (NOT y_0, y_0) is used as
    the error rails directly.
    """
    if seed.rails is not None:
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
