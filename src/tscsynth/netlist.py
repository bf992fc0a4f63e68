"""Two-input gate netlists and reference checking constructions.

A circuit is a feed-forward list of two-input gates over primary inputs
x_0..x_{r-1}.  It exposes q function outputs y_0..y_{q-1} and, optionally,
a dual-rail error signal (z_0, z_1): normal operation requires z_0 != z_1
and the error condition is z_0 == z_1.

A Circuit is one form: flat int arrays over one index space (input x_j at
j, gate k at r + k).  A truth table is an int, bit 2*a + b holding the
output for inputs (a, b), and a signal is an index.  A gate reads only
lower indices, so the list order is a topological order.  read_native
builds these arrays through Circuit.from_arrays; parse_blif, the duplication
baseline and the benchmark seeds through a Builder, gate by gate, which ends
in from_arrays too; genome.decode and genome.redraw emit them directly.
Fitness, the verify oracle's simulator and the text formats read them.  Gate
and SignalRef are only the input of the Gate-form constructor Circuit(r,
gates, func_outputs, error_rails), and Circuit.gates gives them back.

from_arrays and the Gate-form constructor check every table and reference
of the arrays they store, so a netlist from outside the search is rejected
with the reason.  decode and redraw store theirs without that check
(Circuit._unchecked): their arrays pass it by construction, as decode's
docstring shows.

Every gate is live: a later gate, a function output or a rail reads it, so
each has a path to an output.  Simulation, fault enumeration and size
metrics therefore take all gates, and the gate count is the circuit's size.

A circuit's function core (function_core) is the gates a function output
reaches: its function logic, as against the checking logic that only the
rails read.  A circuit without rails is all core.  A seed's size is its
function_size: the core's gates with structurally identical ones counted
once, so that private copies of shared logic, which some checked seeds make
for their outputs, count as the logic they copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

# Function names for the 16 two-input truth tables, indexed by table value.
# LT/GT/LE/GE read as comparisons of the first input against the second.
GATE_NAMES = (
    "ZERO", "NOR", "LT", "NOTA", "GT", "NOTB", "XOR", "NAND",
    "AND", "XNOR", "B", "LE", "A", "GE", "OR", "ONE",
)


# The truth tables the constructions below and hand-built circuits use.
TT_ZERO = 0
TT_NOR = 1
TT_LT = 2
TT_NOT_A = 3
TT_GT = 4
TT_XOR = 6
TT_NAND = 7
TT_AND = 8
TT_XNOR = 9
TT_BUF_A = 12
TT_OR = 14
TT_ONE = 15


@dataclass(frozen=True)
class SignalRef:
    """Reference to a primary input ("x") or to a gate output ("g").

    perfbench calls it, so it stays here until the benchmark is re-founded;
    then it moves to the tests."""

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


@dataclass(frozen=True)
class Gate:
    """A gate of a hand-built circuit: truth table tt over sources a and b.

    perfbench calls it, so it stays here until the benchmark is re-founded;
    then it moves to the tests."""

    tt: int
    a: SignalRef
    b: SignalRef


class FaultSite(Enum):
    OUTPUT = "q"
    INPUT_A = "a"
    INPUT_B = "b"


class Fault(NamedTuple):
    """Stuck-at fault at one gate line (output, first input, or second
    input); stuck is 0 or 1."""

    site: FaultSite
    gate: int
    stuck: int

    def __str__(self) -> str:
        return f"{self.site.value}{self.gate}.{self.stuck}"


_TABLE_VALUES = frozenset(range(16))


def signal_index(r: int, gate: bool, k: int) -> int:
    """The index of gate k, or of input k.  An input beyond r becomes ~k,
    which is negative, so it never aliases a gate, and Circuit rejects it
    by name."""
    return r + k if gate else k if k < r else ~k


@dataclass(frozen=True, init=False)
class Circuit:
    """Gate k has truth table tt[k] and reads indices src_a[k] and src_b[k];
    outputs holds the index of each function output, rails those of z_0 and
    z_1 (or None).  Equality and hash are over these fields.  The constructor
    converts Gate and SignalRef objects, from_arrays takes the arrays; both
    store them as tuples (_store) and then check them (_check).  _unchecked
    stores decode's and redraw's arrays, valid by construction, without the
    check.  The gates view is built at most once."""

    r: int
    tt: tuple[int, ...]
    src_a: tuple[int, ...]
    src_b: tuple[int, ...]
    outputs: tuple[int, ...]
    rails: tuple[int, int] | None

    def __init__(self, r: int, gates, func_outputs, error_rails=None) -> None:
        """The Gate form: perfbench calls it, so it stays here until the
        benchmark is re-founded; then it moves to the tests."""

        def index(s: SignalRef) -> int:
            return signal_index(r, s.kind == "g", s.index)

        gates = tuple(gates)
        tt = [gate.tt for gate in gates]
        src_a = [index(gate.a) for gate in gates]
        src_b = [index(gate.b) for gate in gates]
        outputs = [index(s) for s in func_outputs]
        rails = None if error_rails is None else [index(s) for s in error_rails]
        self._store(r, tt, src_a, src_b, outputs, rails)
        self._check()
        self.__dict__["gates"] = gates

    @classmethod
    def from_arrays(cls, r: int, tt, src_a, src_b, outputs, rails) -> "Circuit":
        circuit = cls._unchecked(r, tt, src_a, src_b, outputs, rails)
        circuit._check()
        return circuit

    @classmethod
    def _unchecked(cls, r: int, tt, src_a, src_b, outputs, rails) -> "Circuit":
        """The circuit of arrays that _check would pass, stored without that
        check.  Only genome.decode and genome.redraw call it; their
        docstrings say why their arrays pass."""
        circuit = object.__new__(cls)
        circuit._store(r, tt, src_a, src_b, outputs, rails)
        return circuit

    def _store(self, r: int, tt, src_a, src_b, outputs, rails) -> None:
        d = self.__dict__
        d["r"], d["tt"], d["src_a"], d["src_b"] = r, tuple(tt), tuple(src_a), tuple(src_b)
        d["outputs"], d["rails"] = tuple(outputs), None if rails is None else tuple(rails)

    def _check(self) -> None:
        """Raise ValueError unless the stored arrays are a feed-forward
        netlist of live gates.  Gate k may read only indices below r + k, an
        output or rail only indices below r + n; a negative index is an input
        beyond r.  A gate index that nothing reads is rejected."""
        r, tt, src_a, src_b, outputs, rails = (
            self.r, self.tt, self.src_a, self.src_b, self.outputs, self.rails)
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

    @property
    def q(self) -> int:
        return len(self.outputs)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gates as Gate objects.  perfbench reads it, so it stays here
        until the benchmark is re-founded; then it moves to the tests."""
        r, x, g = self.r, SignalRef.x, SignalRef.g
        return tuple(Gate(t, x(a) if a < r else g(a - r), x(b) if b < r else g(b - r))
                     for t, a, b in zip(self.tt, self.src_a, self.src_b))


def function_core(circuit: Circuit) -> tuple[int, ...]:
    """The gates a function output reaches, ascending.  A gate reads only
    lower indices, so one sweep from the last gate down marks each core gate
    before its sources are reached."""
    r, n = circuit.r, len(circuit.tt)
    reached = bytearray(r + n)
    for s in circuit.outputs:
        reached[s] = 1
    for k in range(n - 1, -1, -1):
        if reached[r + k]:
            reached[circuit.src_a[k]] = reached[circuit.src_b[k]] = 1
    return tuple(k for k in range(n) if reached[r + k])


def function_size(circuit: Circuit) -> int:
    """The function core's gate count, with structurally identical gates
    counted once: two core gates are one if they have the same table and
    the same sources once identical gates are merged.  A checked seed whose
    function outputs have private copies of shared logic counts that logic
    once, as the circuit it checks has it."""
    merged: dict[int, int] = {}  # core gate index -> first identical gate's
    first: dict[tuple[int, int, int], int] = {}
    for k in function_core(circuit):
        a, b = circuit.src_a[k], circuit.src_b[k]
        key = (circuit.tt[k], merged.get(a, a), merged.get(b, b))
        merged[circuit.r + k] = first.setdefault(key, circuit.r + k)
    return len(first)


def _bad_index(s: int, r: int) -> ValueError:
    if s < 0:
        return ValueError(f"input reference out of range: x{~s}")
    return ValueError(f"forward or dangling gate reference: g{s - r}")


def duplication_overhead(g: int, q: int) -> int:
    """Gate cost of duplication-and-comparison checking: g + 6*(q - 1)."""
    if g < 0 or q < 1:
        raise ValueError("need g >= 0 and q >= 1")
    return g + 6 * (q - 1)


class Builder:
    """A netlist over r inputs made gate by gate: gate(tt, a, b) appends gate
    k at index r + k and returns it, circuit() calls Circuit.from_arrays."""

    def __init__(self, r: int) -> None:
        self.r = r
        self.tt: list[int] = []
        self.src_a: list[int] = []
        self.src_b: list[int] = []

    def gate(self, tt: int, a: int, b: int) -> int:
        self.tt.append(tt)
        self.src_a.append(a)
        self.src_b.append(b)
        return self.r + len(self.tt) - 1

    def circuit(self, outputs, rails=None) -> Circuit:
        return Circuit.from_arrays(self.r, self.tt, self.src_a, self.src_b, outputs, rails)


def _and_tt(invert_a: bool, invert_b: bool) -> int:
    # AND with either input optionally complemented, a table with one 1 at
    # a = not invert_a, b = not invert_b; absorbing inversions into the
    # table keeps inverted-copy outputs cost-free.
    return 1 << (2 * (not invert_a) + (not invert_b))


# A dual-rail operand is ((low, low_inverted), (high, high_inverted)) over
# signal indices: the pair encodes value v as (NOT v, v), with per-wire flags
# marking sources whose complement should be consumed.
def _append_two_rail_checker(bld: Builder, pair_a, pair_b):
    """Append to bld the 6-gate two-rail checker merging pair_a and pair_b.

    Output pair (c_0, c_1) with c_1 = (a_1 AND b_1) OR (a_0 AND b_0) and
    c_0 = (a_1 AND b_0) OR (a_0 AND b_1); it is a valid dual-rail word iff
    both input pairs are valid.
    """
    (a0, ia0), (a1, ia1) = pair_a
    (b0, ib0), (b1, ib1) = pair_b
    u = bld.gate(_and_tt(ia1, ib1), a1, b1)
    v = bld.gate(_and_tt(ia0, ib0), a0, b0)
    c1 = bld.gate(TT_OR, u, v)
    p = bld.gate(_and_tt(ia1, ib0), a1, b0)
    t = bld.gate(_and_tt(ia0, ib1), a0, b1)
    c0 = bld.gate(TT_OR, p, t)
    return ((c0, False), (c1, False))


def build_duplication_baseline(seed: Circuit) -> Circuit:
    """Seed plus an inverted functional copy and a two-rail checker tree.

    The seed's n gates come first, then the copy's, then the checker tree's.
    Output y gives the pair (NOT copy(y), y), the NOT absorbed into the
    tables of the checker gates that read it; a balanced tree merges the
    pairs in index order.  A lone pair is the rails, its NOT folded into the
    copy's output gate, whose table is complemented, or for a bare-wire
    output into one NOT gate.  So the added gate count is n + 6*(q - 1), as
    duplication_overhead counts it, but one, the NOT, for a bare-wire output.

    That one-output bare-wire baseline is not TSC: its NOT gate reads the
    wire on both pins and never depends on pin b, so b stuck-at-0 and
    stuck-at-1 go undetected.  No two-input gate over a single wire computes
    the wire's complement with both pins testable.
    """
    if seed.rails is not None:
        raise ValueError("seed already carries error rails")
    if seed.q < 1:
        raise ValueError("seed has no function outputs")

    r, n = seed.r, len(seed.tt)

    def copy(s: int) -> int:
        # Gate k's copy is gate n + k.
        return s if s < r else s + n

    bld = Builder(r)
    bld.tt += seed.tt + seed.tt
    bld.src_a += (*seed.src_a, *map(copy, seed.src_a))
    bld.src_b += (*seed.src_b, *map(copy, seed.src_b))
    pairs = [((copy(y), True), (y, False)) for y in seed.outputs]
    while len(pairs) > 1:
        merged = [_append_two_rail_checker(bld, pairs[k], pairs[k + 1])
                  for k in range(0, len(pairs) - 1, 2)]
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    (z0, inverted), (z1, _) = pairs[0]
    if inverted and z0 < r:
        z0 = bld.gate(TT_NOT_A, z0, z0)
    elif inverted:
        bld.tt[z0 - r] ^= 0b1111
    return bld.circuit(seed.outputs, (z0, z1))
