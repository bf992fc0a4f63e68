"""Fixed-length bit-string genotypes: circuit encoding and genetic operators.

Layout of a genotype for q function outputs and M = 2**b - r gene slots:

  [m = q + 2 output address fields of b bits] [M genes of 4 + 2b bits]

The m routed outputs are y_0..y_{q-1}, then the error rails z_0, z_1: every
genotype carries its dual-rail error signal.

A gene holds the four truth-table bits t0..t3 followed by two b-bit source
address fields.  Address values 0..M-1 name gene slots; the r largest values
(2**b - r .. 2**b - 1) name primary inputs x_0..x_{r-1} in ascending order.
All multi-bit fields read most-significant-bit first in genotype order, and
genotype bit 0 is the first bit of the first output field.

Decoding reads genes on demand: a depth-first search from the routed outputs
reads a gene when it first reaches its slot and emits the gate in post-order,
once both sources are done.  Unreached genes are never read, so every
emitted gate is live.  decode emits the Circuit's flat arrays directly and
builds no Gate object; encode_seed reads the same arrays back.  The arrays
are a valid netlist by construction (see decode), so decode and redraw store
them with Circuit._unchecked: the reference check that from_arrays runs on
netlists from outside the search would find nothing here.

The walk is one loop with no call per slot.  The slot being walked (its
table, sources and next pin) lives in locals, and one list tells every
address apart as unreached, on the search path or done, so each source
costs one lookup.  A gate whose sources are both done is emitted in the
loop turn that reads its gene; the walk pushes a frame only when it
descends into a source, and pops it when that source's gate is emitted.

The walk depends only on the bits it reads: the m routing fields and the
genes of the slots it reaches.  A cycle repair reroutes an edge to a primary
input, whose index is fixed from the start, so which input rng draws never
steers the walk; it only sets that source.  So the reached slots, the repair
sites and the order of the repair draws are all fixed by the bits read.
decode reports them in a Reading when asked: the mask of the bits read, and
the repair sites.  A genotype that agrees with an earlier one on its mask
(same_reading) decodes to the earlier netlist with each repair site drawn
again in order (redraw): the same circuit and rng state as decoding it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .netlist import Circuit, duplication_overhead, function_core

# Reverse the bit order of a 4-bit value: genotype stores t0 first (most
# significant in the field), a Circuit's truth table stores t0 in bit 0.
_REV4 = tuple(
    ((v >> 3) & 1) | (((v >> 2) & 1) << 1) | (((v >> 1) & 1) << 2) | ((v & 1) << 3)
    for v in range(16)
)

# Widest address field a layout may have: 2**b - r gene slots, and decode
# holds one entry per slot.
MAX_ADDRESS_BITS = 16
# Fewest gene slots a layout may have: translocation copies one gene over another.
MIN_GENE_SLOTS = 2


@dataclass(frozen=True)
class GenomeLayout:
    """Genotype geometry for circuits with r inputs and q function outputs.

    The two error rails (z_0, z_1) follow the function outputs, giving
    m = q + 2 routed outputs in total.
    """

    r: int
    q: int
    b: int
    # Derived sizes, computed once: operators and decode read them on every
    # call.  They take no part in equality, hashing or repr.
    m: int = field(init=False, repr=False, compare=False)
    max_gates: int = field(init=False, repr=False, compare=False)
    gene_len: int = field(init=False, repr=False, compare=False)
    total_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.r < 1 or self.q < 1 or self.b < 1:
            raise ValueError("bad layout dimensions")
        if self.b > MAX_ADDRESS_BITS:
            raise ValueError(f"address width b={self.b}; at most "
                             f"{MAX_ADDRESS_BITS} is supported")
        max_gates = max((1 << self.b) - self.r, 0)
        if max_gates < MIN_GENE_SLOTS:
            raise ValueError(f"the layout has {max_gates} gene slot"
                             f"{'s' * (max_gates != 1)}, translocation needs "
                             f"{MIN_GENE_SLOTS}: raise the address width b")
        m = self.q + 2
        gene_len = 4 + 2 * self.b
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "max_gates", max_gates)
        object.__setattr__(self, "gene_len", gene_len)
        object.__setattr__(self, "total_len", m * self.b + max_gates * gene_len)

    def gene_offset(self, k: int) -> int:
        return self.m * self.b + k * self.gene_len


def default_address_width(r: int, seed_gates: int, q: int) -> int:
    """Smallest b whose gene space holds a duplication-style circuit.

    That needs the seed's g gates and duplication's overhead on them, and
    at least the MIN_GENE_SLOTS that GenomeLayout needs.
    """
    need = max(MIN_GENE_SLOTS, seed_gates + duplication_overhead(seed_gates, q))
    b = 1
    while (1 << b) - r < need:
        b += 1
    return b


@dataclass(frozen=True)
class Genotype:
    """Bit string of layout.total_len bits; genotype bit 0 is the MSB of value."""

    value: int
    layout: GenomeLayout

    def __post_init__(self) -> None:
        if self.value < 0 or self.value.bit_length() > self.layout.total_len:
            raise ValueError("genotype value does not fit the layout")

    def __len__(self) -> int:
        return self.layout.total_len

    def field(self, offset: int, width: int) -> int:
        shift = self.layout.total_len - offset - width
        return (self.value >> shift) & ((1 << width) - 1)

    def with_field(self, offset: int, width: int, value: int) -> "Genotype":
        shift = self.layout.total_len - offset - width
        mask = ((1 << width) - 1) << shift
        return Genotype((self.value & ~mask) | (value << shift), self.layout)

    def to_hex(self) -> str:
        """Bits packed 8 per byte, bit 8k+i at byte k position 7-i, as hex."""
        nbytes = (self.layout.total_len + 7) // 8
        padded = self.value << (nbytes * 8 - self.layout.total_len)
        return padded.to_bytes(nbytes, "big").hex()

    @classmethod
    def from_hex(cls, text: str, layout: GenomeLayout) -> "Genotype":
        nbytes = (layout.total_len + 7) // 8
        raw = bytes.fromhex(text)
        if len(raw) != nbytes:
            raise ValueError(
                f"hex genotype is {len(raw)} bytes, layout needs {nbytes}"
            )
        padded = int.from_bytes(raw, "big")
        pad_bits = nbytes * 8 - layout.total_len
        if padded & ((1 << pad_bits) - 1):
            raise ValueError("nonzero padding bits in serialized genotype")
        return cls(padded >> pad_bits, layout)


@dataclass(frozen=True)
class LockMask:
    """Genotype positions no genetic operator may write.  The operators take
    a mask that leaves a gene free, as seed_lock_mask's does."""

    locked: frozenset[int]

    @classmethod
    def empty(cls) -> "LockMask":
        return cls(frozenset())

    def covers_any(self, offset: int, width: int) -> bool:
        return any(p in self.locked for p in range(offset, offset + width))


@lru_cache(maxsize=64)
def _unlocked_positions(layout: GenomeLayout, lock: LockMask) -> tuple[int, ...]:
    return tuple(p for p in range(layout.total_len) if p not in lock.locked)


@lru_cache(maxsize=64)
def _unlocked_address_fields(layout: GenomeLayout, lock: LockMask) -> tuple[int, ...]:
    offsets = [i * layout.b for i in range(layout.m)]
    for k in range(layout.max_gates):
        base = layout.gene_offset(k)
        offsets.append(base + 4)
        offsets.append(base + 4 + layout.b)
    return tuple(o for o in offsets if not lock.covers_any(o, layout.b))


@lru_cache(maxsize=64)
def unlocked_genes(layout: GenomeLayout, lock: LockMask) -> tuple[int, ...]:
    """Gene slots that lock covers no bit of."""
    return tuple(
        k
        for k in range(layout.max_gates)
        if not lock.covers_any(layout.gene_offset(k), layout.gene_len)
    )


@dataclass
class Reading:
    """What one decode read: read masks, in the genotype's value, every bit
    the walk read (the routing fields and each reached gene), and repairs
    lists its cycle repairs as 2*gate + pin (pin 0 for source a, 1 for
    source b) in the order their inputs were drawn."""

    read: int = 0
    repairs: tuple[int, ...] = ()


def decode(
    genotype: Genotype, rng: random.Random, reading: Reading | None = None
) -> Circuit:
    """Decode to a feed-forward circuit in one depth-first pass.

    Outputs are routed first (y_0..y_{q-1}, then z_0, z_1).  The
    search starts from each output and visits source a before source b.  A
    gene is read when the search first reaches its slot, and its gate is
    emitted once both sources are done, so gates come out in post-order.  An
    edge back onto the current search path is rerouted to a primary input
    drawn from rng; repair changes the decoded circuit only, never the
    genotype.  Genes the search never reaches are never read: their gates
    have no path to an output.  If reading is given, decode fills it in.

    The search is iterative, so path depth is bounded by the slot count, not
    the interpreter's recursion limit.  Each turn of its loop reads one gene
    and goes on with the slot's sources: an unreached source is descended
    into, with the slot kept as a frame on the stack; a source on the path
    is repaired; a done source is taken.  Once both are done the gate is
    emitted, and so is every waiting frame whose other source is done too.

    The arrays pass Circuit's reference check by construction, so they are
    stored without it (Circuit._unchecked):
    - a gate is emitted only after both its sources, so each source index is
      below the gate's own index (a repaired source is a primary input);
    - each table is a _REV4 entry, so every table value is 0 to 15;
    - every emitted gate is read: by the frame that waits for it, or, for
      the gate a root's walk ends with, by that routed output;
    - each routed output is an input or an emitted gate, and the last two
      of the m = q + 2 routing fields are the two rails.
    """
    lay = genotype.layout
    b = lay.b
    M = lay.max_gates
    L = lay.total_len
    v = genotype.value
    bmask = (1 << b) - 1
    b2 = 2 * b
    glen = lay.gene_len
    gmask = (1 << glen) - 1
    genes_end = L - lay.m * b
    top = genes_end - glen  # shift of gene 0

    # index[address] is None until the walk reaches the slot, -1 while the
    # slot is on the search path, then its circuit index: inputs from the
    # start, a gene slot once its gate is emitted.  on_path marks every
    # slot ever reached, for the Reading only.
    r = lay.r
    index: list[int | None] = [None] * M + list(range(r))
    on_path = bytearray(M)
    tt: list[int] = []
    src_a: list[int] = []
    src_b: list[int] = []
    repairs: list[int] = []
    # A frame (slot, table, x, pin) waits for the source on pin (0 for
    # source a, 1 for b) that the walk descended into: with pin 0, x is
    # source b's address; with pin 1, x is source a's circuit index.  That
    # source's gate is the last its subtree emits, so on return its circuit
    # index is n - 1.  The slot being walked is not on the stack.
    stack: list[tuple[int, int, int, int]] = []
    n = r  # circuit index of the next gate

    out_addrs = [(v >> (L - (i + 1) * b)) & bmask for i in range(lay.m)]
    for root in out_addrs:
        if index[root] is not None:
            continue
        slot = root
        while True:
            # slot was just reached: read its gene and look at its sources.
            # An edge back onto the search path is rerouted to an input; the
            # site is kept as 2*slot + pin until the slot has its gate.
            index[slot] = -1
            on_path[slot] = 1
            gene = (v >> (top - slot * glen)) & gmask
            t = _REV4[gene >> b2]
            sa = (gene >> b) & bmask
            sb = gene & bmask
            ia = index[sa]
            if ia is None:
                stack.append((slot, t, sb, 0))
                slot = sa
                continue
            if ia < 0:
                ia = rng.randrange(r)
                repairs.append(2 * slot)
            ib = index[sb]
            if ib is None:
                stack.append((slot, t, ia, 1))
                slot = sb
                continue
            while True:
                if ib < 0:
                    ib = rng.randrange(r)
                    repairs.append(2 * slot + 1)
                # Both sources are done: emit the gate, then return to the
                # frame that waits for it.
                index[slot] = n
                tt.append(t)
                src_a.append(ia)
                src_b.append(ib)
                n += 1
                if not stack:
                    break
                slot, t, x, pin = stack.pop()
                if pin:
                    ia, ib = x, n - 1
                    continue
                ia, sb = n - 1, x
                ib = index[sb]
                if ib is None:
                    stack.append((slot, t, ia, 1))
                    slot = sb
                    break
            if not stack:  # root's gate was emitted
                break

    if reading is not None:
        # Each gene's glen bits as reached or not, one base-4 digit per two
        # bits (glen = 4 + 2b is even), under the routing fields' m*b bits,
        # whose count may be odd.
        half = glen // 2
        digits = on_path.replace(b"\0", b"0" * half).replace(b"\1", b"3" * half)
        reading.read = ((1 << lay.m * b) - 1) << genes_end | int(digits, 4)
        # Converted in place: a generator expression here, one per decode,
        # raised search-mult2's peak resident memory by about 9%.
        for i, s in enumerate(repairs):
            repairs[i] = 2 * (index[s >> 1] - r) + (s & 1)
        reading.repairs = tuple(repairs)
    outs = [index[a] for a in out_addrs]
    return Circuit._unchecked(r, tt, src_a, src_b, outs[: lay.q], outs[lay.q :])


def same_reading(reading: Reading, parent: Genotype, child: Genotype) -> bool:
    """True if child agrees with parent on every bit that parent's decode,
    which gave reading, read.  Then decode(child) takes parent's walk (see
    the module docstring)."""
    return not (parent.value ^ child.value) & reading.read


def redraw(circuit: Circuit, repairs: tuple[int, ...], rng: random.Random) -> Circuit:
    """decode's result for a genotype that reads as circuit's did: circuit
    with the source at each repair site drawn again from rng, in order.
    Returns circuit itself when no drawn input differs from the old one.
    A repair site's source is a primary input and a redraw makes it another
    one, so no gate loses a reader and every source stays below its gate:
    the result keeps every property decode's docstring lists, and is stored,
    like decode's, without the reference check."""
    if not repairs:
        return circuit
    r = circuit.r
    draws = [rng.randrange(r) for _ in repairs]
    old = (circuit.src_a, circuit.src_b)
    if all(old[s & 1][s >> 1] == j for s, j in zip(repairs, draws)):
        return circuit
    src_a, src_b = new = (list(circuit.src_a), list(circuit.src_b))
    for s, j in zip(repairs, draws):
        new[s & 1][s >> 1] = j
    return Circuit._unchecked(r, circuit.tt, src_a, src_b, circuit.outputs,
                              circuit.rails)


def seed_lock_mask(circuit: Circuit, layout: GenomeLayout) -> LockMask:
    """Positions covering the genes of the seed's function core (gate k in
    slot k, as encode_seed places it) and the q function-output routing
    fields.  The rail routing and the seed's checking logic stay unlocked;
    a seed without rails is all core, so every seed gene is locked.  A core
    that fills every gene slot is refused, so the mask leaves a gene free."""
    core = function_core(circuit)
    if len(core) >= layout.max_gates:
        raise ValueError(f"the seed's function core fills all {layout.max_gates} gene "
                         "slots, which nonintrusive mode locks, so translocation "
                         "has no gene to write: raise the address width b")
    locked: set[int] = set()
    for i in range(circuit.q):
        locked.update(range(i * layout.b, (i + 1) * layout.b))
    for k in core:
        base = layout.gene_offset(k)
        locked.update(range(base, base + layout.gene_len))
    return LockMask(frozenset(locked))


def encode_seed(
    circuit: Circuit,
    layout: GenomeLayout,
    rng: random.Random,
) -> tuple[Genotype, LockMask]:
    """Embed a circuit of the layout's shape into gene slots 0..gates-1,
    which it fits (the Engine checks both), and randomize the rest.

    Function-output routing is set to the seed's drivers, and so is rail
    routing when the seed carries rails; a seed without rails gets random
    rail routing.  Every remaining bit is drawn uniformly from rng.  Returns
    (genotype, LockMask.empty()); the pair stays because perfbench's
    workloads take its [0].  Nonintrusive mode's mask is seed_lock_mask's.

    All L bits come from one draw, rng.getrandbits(L).  The routing fields
    set (the outputs', then the rails' when the seed has them) are
    contiguous, and so are the seed's genes: each is assembled as one run of
    fields and spliced into the draw under one mask, so the L-bit draw is
    rebuilt twice in all, not once per field: O(L) work on it.
    """
    b = layout.b
    L = layout.total_len
    value = rng.getrandbits(L)
    # address[s] is index s's address: inputs after the M gene slots.
    address = [*range(layout.max_gates, layout.max_gates + circuit.r), *range(len(circuit.tt))]
    routed = circuit.outputs + (circuit.rails or ())
    routing = 0
    for s in routed:
        routing = routing << b | address[s]
    genes = 0
    for t, a, c in zip(circuit.tt, circuit.src_a, circuit.src_b):
        genes = ((genes << 4 | _REV4[t]) << b | address[a]) << b | address[c]
    for offset, width, run in ((0, len(routed) * b, routing),
                               (layout.gene_offset(0), len(circuit.tt) * layout.gene_len, genes)):
        shift = L - offset - width
        value = value & ~(((1 << width) - 1) << shift) | run << shift
    return Genotype(value, layout), LockMask.empty()


def mutate_bit(g: Genotype, lock: LockMask, rng: random.Random) -> Genotype:
    """Flip exactly one uniformly chosen unlocked bit."""
    positions = _unlocked_positions(g.layout, lock)
    pos = positions[rng.randrange(len(positions))]
    return Genotype(g.value ^ (1 << (g.layout.total_len - 1 - pos)), g.layout)


def mutate_routing(g: Genotype, lock: LockMask, rng: random.Random) -> Genotype:
    """Replace one unlocked b-bit address field with a uniform random value.

    Gate source fields and output routing fields are both eligible; the new
    value may equal the old one.
    """
    fields = _unlocked_address_fields(g.layout, lock)
    offset = fields[rng.randrange(len(fields))]
    return g.with_field(offset, g.layout.b, rng.getrandbits(g.layout.b))


def mutate_translocate(g: Genotype, lock: LockMask, rng: random.Random) -> Genotype:
    """Copy one whole gene (gate plus routing) over another.

    The destination gene j is drawn uniformly from the fully unlocked genes,
    then the source i uniformly from all other genes.
    """
    lay = g.layout
    dests = unlocked_genes(lay, lock)
    j = dests[rng.randrange(len(dests))]
    i = rng.randrange(lay.max_gates - 1)
    if i >= j:
        i += 1
    content = g.field(lay.gene_offset(i), lay.gene_len)
    return g.with_field(lay.gene_offset(j), lay.gene_len, content)


def crossover_single_point(
    a: Genotype, b: Genotype, rng: random.Random
) -> Genotype:
    """Offspring takes a's bits before point p and b's bits from p onward."""
    if a.layout != b.layout:
        raise ValueError("parents have different layouts")
    L = a.layout.total_len
    p = rng.randrange(1, L)
    high = ((1 << p) - 1) << (L - p)
    low = (1 << L) - 1 - high
    return Genotype((a.value & high) | (b.value & low), a.layout)
