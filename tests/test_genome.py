import hashlib
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscsynth.genome import (
    MAX_ADDRESS_BITS,
    MIN_GENE_SLOTS,
    GenomeLayout,
    Genotype,
    LockMask,
    Reading,
    crossover_single_point,
    decode,
    default_address_width,
    encode_seed,
    mutate_bit,
    mutate_routing,
    mutate_translocate,
    redraw,
    same_reading,
    seed_lock_mask,
    unlocked_genes,
)
from tscsynth.formats import parse_blif, read_native, write_native
from tscsynth.netlist import (
    Circuit, Gate, SignalRef, TT_AND, TT_XOR, build_duplication_baseline,
)
from tscsynth.sim import simulate

from conftest import BENCH_DIR, checked_c17, checked_mult2, genotype_bit, random_circuit

X = SignalRef.x
G = SignalRef.g


def rebuilt(c: Circuit) -> Circuit:
    """c's arrays through from_arrays, which runs Circuit's reference check."""
    return Circuit.from_arrays(c.r, c.tt, c.src_a, c.src_b, c.outputs, c.rails)


def bits_to_genotype(bit_string: str, layout: GenomeLayout) -> Genotype:
    assert len(bit_string) == layout.total_len
    return Genotype(int(bit_string, 2), layout)


class TestLayout:
    def test_arithmetic(self):
        lay = GenomeLayout(r=4, q=10, b=6)
        assert lay.max_gates == 60
        assert lay.m == 12
        assert lay.gene_len == 16
        assert lay.total_len == 12 * 6 + 60 * 16 == 1032

    def test_rejects_too_narrow_addresses(self):
        with pytest.raises(ValueError):
            GenomeLayout(r=4, q=1, b=2)

    @pytest.mark.parametrize("r, b, slots", [(4, 2, 0), (5, 2, 0), (3, 2, 1), (1, 1, 1)])
    def test_rejects_fewer_than_two_gene_slots(self, r, b, slots):
        # Translocation copies one gene over another, so every operator
        # relies on two slots; the layout is the one place that says so.
        message = (f"^the layout has {slots} gene slots?, translocation needs 2: "
                   "raise the address width b$")
        with pytest.raises(ValueError, match=message):
            GenomeLayout(r=r, q=1, b=b)
        assert GenomeLayout(r=r, q=1, b=b + 1).max_gates >= MIN_GENE_SLOTS == 2

    def test_rejects_no_function_outputs(self):
        with pytest.raises(ValueError):
            GenomeLayout(r=2, q=0, b=4)

    def test_address_width_is_bounded(self):
        assert GenomeLayout(r=2, q=1, b=MAX_ADDRESS_BITS).max_gates == (1 << 16) - 2
        with pytest.raises(ValueError, match="at most 16"):
            GenomeLayout(r=2, q=1, b=MAX_ADDRESS_BITS + 1)

    def test_sizes_survive_pickle(self):
        # Configs cross to worker processes pickled, and the operator caches
        # key on layouts: a layout whose sizes were read must still equal
        # and hash like a fresh one after the round trip.
        lay = GenomeLayout(r=5, q=16, b=8)
        sizes = (lay.m, lay.max_gates, lay.gene_len, lay.total_len)
        back = pickle.loads(pickle.dumps(lay))
        assert back == lay == GenomeLayout(r=5, q=16, b=8)
        assert hash(back) == hash(lay) == hash(GenomeLayout(r=5, q=16, b=8))
        assert (back.m, back.max_gates, back.gene_len, back.total_len) == sizes
        assert repr(back) == "GenomeLayout(r=5, q=16, b=8)"
        assert back != GenomeLayout(r=5, q=15, b=8)

    def test_rails_are_not_optional(self):
        # Every genotype routes z_0 and z_1 after the function outputs.
        with pytest.raises(TypeError):
            GenomeLayout(r=2, q=1, b=2, rails=False)
        assert GenomeLayout(r=2, q=1, b=2).m == 3

    def test_genotype_value_range(self):
        lay = GenomeLayout(r=2, q=1, b=2)
        L = lay.total_len
        assert Genotype((1 << L) - 1, lay).value == (1 << L) - 1
        assert Genotype(0, lay).value == 0
        for value in (-1, 1 << L, 1 << (L + 5)):
            with pytest.raises(ValueError, match="does not fit"):
                Genotype(value, lay)

    def test_default_address_width_fits_duplication(self):
        # The smallest b whose 2**b - r gene slots hold the seed, its copy
        # and a checker tree of 6 gates per extra output, and at least 2.
        for r in (1, 2, 3, 4, 5, 6, 16):
            for g in range(64):
                for q in (1, 2, 3, 4, 16):
                    need = max(2, 2 * g + 6 * (q - 1))
                    b = next(b for b in range(1, 32) if (1 << b) - r >= need)
                    assert default_address_width(r, g, q) == b, (r, g, q)


class TestDecode:
    def test_hand_decoded_xor(self):
        # Output field "00" -> gene 0 and rail fields "10", "11" -> x0, x1
        # (addresses 2 and 3 name the primary inputs); gene 0 is XOR of x0,
        # x1; gene 1 is all zeros and pruned.
        lay = GenomeLayout(r=2, q=1, b=2)
        assert lay.max_gates == 2 and lay.gene_len == 8 and lay.total_len == 22
        g = bits_to_genotype("00" + "1011" + "0110" + "10" + "11" + "00000000", lay)
        circuit = decode(g, random.Random(0))
        assert circuit.tt == (0b0110,)
        assert simulate(circuit).outputs[0] == 0b0110
        assert circuit.rails == (0, 1)

    def test_self_loop_repaired_to_primary_input(self):
        # Gene 0 sources itself; repair must reroute that edge to an input.
        lay = GenomeLayout(r=2, q=1, b=2)
        g = bits_to_genotype("00" + "1011" + "0110" + "00" + "11" + "00000000", lay)
        circuit = decode(g, random.Random(7))
        assert len(circuit.tt) == 1
        assert circuit.src_a[0] < circuit.r  # rerouted
        assert circuit.src_b[0] == 1

    def test_every_bit_string_decodes(self, rng):
        lay = GenomeLayout(r=3, q=2, b=3)
        for _ in range(200):
            g = Genotype(rng.getrandbits(lay.total_len), lay)
            circuit = decode(g, rng)
            assert circuit.q == 2
            assert circuit.rails is not None

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        r=st.integers(1, 4),
        b=st.integers(1, 4),
    )
    def test_decode_never_cyclic(self, data, r, b):
        # decode stores its arrays without Circuit's reference check, so the
        # test runs that check: from_arrays accepts the repaired graph, and
        # every source lies below its gate, so the graph is feed-forward.
        if (1 << b) - r < MIN_GENE_SLOTS:
            return
        lay = GenomeLayout(r=r, q=1, b=b)
        value = data.draw(st.integers(0, (1 << lay.total_len) - 1))
        circuit = decode(Genotype(value, lay), random.Random(42))
        assert rebuilt(circuit) == circuit
        for k, (a, b) in enumerate(zip(circuit.src_a, circuit.src_b)):
            assert a < r + k and b < r + k

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           shape=st.sampled_from([(2, 1, 2), (2, 2, 2), (3, 2, 3), (4, 3, 5), (5, 4, 6),
                                  (5, 16, 8)]))
    def test_decode_and_redraw_pass_the_reference_check(self, data, shape):
        # decode and redraw store their arrays unchecked; from_arrays, which
        # checks, must accept them and give back the same circuit.  The
        # layouts are test_decode_pinned's, whose small b makes cycle
        # repairs common.  redraw builds the netlist of any child that reads
        # as the parent: the parent's with each repair site drawn again.
        r, q, b = shape
        lay = GenomeLayout(r=r, q=q, b=b)
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        parent = Genotype(data.draw(st.integers(0, (1 << lay.total_len) - 1)), lay)
        reading = Reading()
        circuit = decode(parent, rng, reading)
        assert rebuilt(circuit) == circuit
        for _ in range(4):
            again = redraw(circuit, reading.repairs, rng)
            assert rebuilt(again) == again

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(),
           shape=st.sampled_from([(2, 1, 2), (2, 2, 4), (3, 2, 4), (4, 3, 5), (5, 4, 6),
                                  (5, 16, 8)]))
    def test_gate_view_rebuilds_the_same_circuit(self, data, shape):
        # decode emits the arrays; the Gate view, the native format and a
        # pickle each give back an equal circuit with an equal hash.  The
        # last layout is decod-sized.
        r, q, b = shape
        lay = GenomeLayout(r=r, q=q, b=b)
        value = data.draw(st.integers(0, (1 << lay.total_len) - 1))
        c = decode(Genotype(value, lay), random.Random(data.draw(st.integers(0, 1 << 32))))
        refs = [X(j) for j in range(r)] + [G(k) for k in range(len(c.tt))]
        rails = None if c.rails is None else [refs[s] for s in c.rails]
        for again in (Circuit(r, c.gates, [refs[s] for s in c.outputs], rails),
                      read_native(write_native(c)), pickle.loads(pickle.dumps(c))):
            assert again == c and hash(again) == hash(c)

    def test_decode_pinned(self):
        # One sha256 over the decoded netlists and the rng state after each
        # decode, recorded from the one-pass decoder: any change to the
        # netlist or to the cycle-repair draws changes every later search.
        # Small b makes cycles common; the last layout is decod-sized.
        layouts = ((2, 1, 2, 300), (2, 2, 2, 300), (3, 2, 3, 300),
                   (4, 3, 5, 300), (5, 4, 6, 200), (5, 16, 8, 40))
        digest = hashlib.sha256()
        repaired = 0
        for i, (r, q, b, n) in enumerate(layouts):
            lay = GenomeLayout(r=r, q=q, b=b)
            genotypes = random.Random(i)
            rng = random.Random(100 + i)
            for _ in range(n):
                before = rng.getstate()
                circuit = decode(Genotype(genotypes.getrandbits(lay.total_len), lay), rng)
                state = rng.getstate()
                repaired += state != before
                digest.update(write_native(circuit).encode())
                digest.update(repr(state).encode())
        assert repaired == 1180  # of 1440 decodes
        assert digest.hexdigest() == (
            "6527cc35578a39814b3929985c0b2d1e521e7f48338253dcafc56b07a371cb50"
        )

    def test_reading_pinned(self):
        # One sha256 over each decode's Reading on test_decode_pinned's
        # genotypes and rng states: the read mask decides which children
        # reuse their parent's netlist, and the repair sites which inputs
        # redraw sets, so a change to either changes later searches.
        layouts = ((2, 1, 2, 300), (2, 2, 2, 300), (3, 2, 3, 300),
                   (4, 3, 5, 300), (5, 4, 6, 200), (5, 16, 8, 40))
        digest = hashlib.sha256()
        for i, (r, q, b, n) in enumerate(layouts):
            lay = GenomeLayout(r=r, q=q, b=b)
            genotypes = random.Random(i)
            rng = random.Random(100 + i)
            for _ in range(n):
                reading = Reading()
                decode(Genotype(genotypes.getrandbits(lay.total_len), lay), rng, reading)
                digest.update(f"{reading.read:x} {reading.repairs}\n".encode())
        assert digest.hexdigest() == (
            "6651dc5ce98eac50c95b2a8d55a2d359222524eec96a2b84d08699772bdc536e"
        )

    def test_decode_repair_changes_phenotype_only(self):
        lay = GenomeLayout(r=2, q=1, b=2)
        g = bits_to_genotype("00" + "1011" + "0110" + "00" + "11" + "00000000", lay)
        before = g.value
        decode(g, random.Random(1))
        assert g.value == before

    def test_deep_path_decodes_iteratively(self):
        # y_0 -> slot 0, slot k reads slot k + 1 on source a and x_1 on
        # source b, the last slot reads x_0: one path through all 4094
        # slots, far deeper than the interpreter's recursion limit.  The
        # rails read x_0 and x_1.
        lay = GenomeLayout(r=2, q=1, b=12)
        M = lay.max_gates
        assert M == 4094
        x0, x1 = M, M + 1
        value = 0
        fields = [(0, lay.b), (x0, lay.b), (x1, lay.b)]
        for k in range(M):
            fields += [(0b0110, 4), (k + 1 if k < M - 1 else x0, lay.b), (x1, lay.b)]
        for field_value, width in fields:
            value = value << width | field_value
        reading = Reading()
        circuit = decode(Genotype(value, lay), random.Random(0), reading)
        # Post-order: the last slot's gate comes first, slot 0's last.
        assert circuit.tt == (TT_XOR,) * M
        assert circuit.src_a == (0,) + tuple(range(2, M + 1))
        assert circuit.src_b == (1,) * M
        assert circuit.outputs == (M + 1,) and circuit.rails == (0, 1)
        assert reading.read == (1 << lay.total_len) - 1
        assert reading.repairs == ()


class TestReuse:
    """A child that agrees with its parent on every bit the parent's decode
    read decodes, under any rng state, to the parent's netlist with its
    repairs redrawn."""

    # The hand-decoded XOR: routing fields "00" (y0 -> gene 0), "10", "11"
    # (rails on x0 and x1), gene 0 XOR(x0, x1), gene 1 never read.
    XOR = "00" + "1011" + "0110" + "10" + "11" + "00000000"

    @staticmethod
    def check(parent, reading, circuit, child, state):
        """Assert redraw matches decode whenever same_reading holds; return
        whether it held."""
        if not same_reading(reading, parent, child):
            return False
        reused, decoded = random.Random(), random.Random()
        reused.setstate(state)
        decoded.setstate(state)
        again = Reading()
        assert redraw(circuit, reading.repairs, reused) == decode(child, decoded, again)
        assert reused.getstate() == decoded.getstate()
        assert (again.read, again.repairs) == (reading.read, reading.repairs)
        return True

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           shape=st.sampled_from([(2, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 3), (4, 3, 4)]))
    def test_redraw_equals_decode(self, data, shape):
        # Small b: most decodes repair a cycle, and a redraw often picks
        # another input.  Children come from every operator and crossover.
        r, q, b = shape
        lay = GenomeLayout(r=r, q=q, b=b)
        rng = random.Random(data.draw(st.integers(0, 1 << 32)))
        parents = []
        for _ in range(2):
            g = Genotype(data.draw(st.integers(0, (1 << lay.total_len) - 1)), lay)
            reading = Reading()
            parents.append((g, reading, decode(g, rng, reading)))
        lock = LockMask.empty()
        for _ in range(20):
            (pa, ra, ca), (pb, rb, cb) = parents
            op = rng.randrange(4)
            if op == 3:
                child = crossover_single_point(pa, pb, rng)
            else:
                child = (mutate_bit, mutate_routing, mutate_translocate)[op](pa, lock, rng)
            state = rng.getstate()
            self.check(pa, ra, ca, child, state)
            if op == 3:
                self.check(pb, rb, cb, child, state)
            reading = Reading()
            parents = [(child, reading, decode(child, rng, reading)), parents[0]]

    def test_redraw_equals_decode_with_repairs(self):
        # The same over a fixed sample, which must hold children that reuse
        # with repairs, and redraws that keep and that change a source.
        lay = GenomeLayout(r=2, q=2, b=3)
        rng = random.Random(5)
        lock = LockMask.empty()
        ops = (mutate_bit, mutate_routing, mutate_translocate)
        same = changed = 0
        for _ in range(400):
            parent = Genotype(rng.getrandbits(lay.total_len), lay)
            reading = Reading()
            circuit = decode(parent, rng, reading)
            child = ops[rng.randrange(3)](parent, lock, rng)
            state = rng.getstate()
            if self.check(parent, reading, circuit, child, state) and reading.repairs:
                probe = random.Random()
                probe.setstate(state)
                if redraw(circuit, reading.repairs, probe) is circuit:
                    same += 1
                else:
                    changed += 1
        assert same > 10 and changed > 10

    def test_reading_of_hand_decoded_xor(self):
        lay = GenomeLayout(r=2, q=1, b=2)
        reading = Reading()
        decode(bits_to_genotype(self.XOR, lay), random.Random(0), reading)
        # Bits 0-13: the three routing fields and gene 0; gene 1 is unread.
        read = int("1" * 14 + "0" * 8, 2)
        assert reading.read == read and reading.repairs == ()
        # Gene 0 reading itself as source a: one repair, gate 0 pin 0.
        loop = self.XOR[:10] + "00" + self.XOR[12:]
        decode(bits_to_genotype(loop, lay), random.Random(0), reading)
        assert reading.read == read and reading.repairs == (0,)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           shape=st.sampled_from([(2, 1, 2), (2, 2, 3), (3, 2, 4), (4, 3, 5)]))
    def test_read_masks_routing_and_reachable_genes(self, data, shape):
        # Reference: the genes reachable from the routing fields through
        # source fields, found without decode; a cycle repair only cuts an
        # edge to a gene already reached.
        lay = GenomeLayout(*shape)
        g = Genotype(data.draw(st.integers(0, (1 << lay.total_len) - 1)), lay)
        todo = [g.field(i * lay.b, lay.b) for i in range(lay.m)]
        reached = set()
        while todo:
            k = todo.pop()
            if k < lay.max_gates and k not in reached:
                reached.add(k)
                base = lay.gene_offset(k)
                todo += [g.field(base + 4, lay.b), g.field(base + 4 + lay.b, lay.b)]
        bits = [*range(lay.m * lay.b),
                *(p for k in reached
                  for p in range(lay.gene_offset(k), lay.gene_offset(k + 1)))]
        reading = Reading()
        decode(g, random.Random(data.draw(st.integers(0, 99))), reading)
        assert reading.read == sum(1 << (lay.total_len - 1 - p) for p in bits)

    @pytest.mark.parametrize("pos,reused", [
        (14, True), (21, True),  # gene 1, never read
        (6, False), (12, False),  # gene 0: truth table, source b
        (0, False), (5, False),  # routing: y0, z1
    ])
    def test_bit_flip_reuses_only_unread_gene(self, pos, reused):
        lay = GenomeLayout(r=2, q=1, b=2)
        parent = bits_to_genotype(self.XOR, lay)
        reading = Reading()
        circuit = decode(parent, random.Random(0), reading)
        child = Genotype(parent.value ^ (1 << (lay.total_len - 1 - pos)), lay)
        assert same_reading(reading, parent, child) is reused
        if reused:
            assert redraw(circuit, reading.repairs, random.Random(1)) is circuit


class TestEncodeSeed:
    def test_roundtrip_function_identity(self, rng):
        for _ in range(20):
            seed = random_circuit(rng, r=3, n_gates=5, q=2, rails="none")
            lay = GenomeLayout(r=3, q=2, b=4)
            genotype, _ = encode_seed(seed, lay, rng)
            decoded = decode(genotype, rng)
            assert simulate(decoded).outputs == simulate(seed).outputs

    def test_boundary_seed_fills_all_genes(self, rng):
        seed = Circuit(2, (Gate(TT_AND, X(0), X(1)), Gate(TT_XOR, G(0), X(0))), (G(1),))
        lay = GenomeLayout(r=2, q=1, b=2)
        genotype, _ = encode_seed(seed, lay, rng)
        decoded = decode(genotype, rng)
        assert simulate(decoded).outputs == simulate(seed).outputs

    def test_lock_covers_genes_and_output_routing(self, rng):
        seed = random_circuit(rng, r=3, n_gates=4, q=2, rails="none")
        lay = GenomeLayout(r=3, q=2, b=4)
        # encode_seed locks nothing; nonintrusive mode locks seed_lock_mask.
        assert encode_seed(seed, lay, rng)[1] == LockMask.empty()
        lock = seed_lock_mask(seed, lay)
        assert set(range(2 * lay.b)).issubset(lock.locked)  # y routing
        # z routing fields stay free
        z_bits = set(range(2 * lay.b, 4 * lay.b))
        assert not (z_bits & lock.locked)
        gene_bits = set(range(lay.gene_offset(0), lay.gene_offset(len(seed.gates))))
        assert gene_bits and gene_bits.issubset(lock.locked)

    def test_lock_of_seed_without_rails_is_every_gene(self, rng):
        # Every gate of a seed without rails is in its function core: the
        # lock is the y routing fields and genes 0..n-1, contiguous.
        for q, n_gates in ((1, 3), (2, 6), (3, 8)):
            seed = random_circuit(rng, r=3, n_gates=n_gates, q=q, rails="none")
            lay = GenomeLayout(r=3, q=q, b=5)
            every_gene = set(range(q * lay.b)) | set(
                range(lay.gene_offset(0), lay.gene_offset(len(seed.tt))))
            assert seed_lock_mask(seed, lay).locked == every_gene

    def test_lock_of_checked_seed_is_its_function_core(self, rng):
        # checked_mult2's core is genes 0-6; its rail routing and its six
        # checking genes stay free.
        seed = checked_mult2()
        lay = GenomeLayout(r=4, q=4, b=6)
        core = set(range(4 * lay.b)) | set(range(lay.gene_offset(0), lay.gene_offset(7)))
        assert seed_lock_mask(seed, lay).locked == core

    def test_lock_refuses_a_core_that_fills_every_slot(self, rng):
        # The half adder's two gates are its core: two slots leave no gene
        # to write; with more, the lock leaves every other slot free.
        seed = Circuit(2, (Gate(TT_XOR, X(0), X(1)), Gate(TT_AND, X(0), X(1))),
                       (G(0), G(1)))
        with pytest.raises(ValueError, match="^the seed's function core fills all 2 gene "
                           "slots, which nonintrusive mode locks, so translocation has "
                           "no gene to write: raise the address width b$"):
            seed_lock_mask(seed, GenomeLayout(r=2, q=2, b=2))
        for b in (3, 4):
            lay = GenomeLayout(r=2, q=2, b=b)
            assert unlocked_genes(lay, seed_lock_mask(seed, lay)) == tuple(range(2, lay.max_gates))

    def test_encode_seed_pinned(self):
        # One sha256 over five encodings each of every shipped seed, of its
        # duplication baseline and of checked_c17, in the layout sized for
        # the seed and in one a bit wider, recorded while encode_seed still
        # wrote one field at a time: the seed's encodings start every
        # island's population, so a change to them changes every search.
        pairs = []
        for path in sorted(BENCH_DIR.glob("*.blif")):
            seed = parse_blif(path.read_text())
            pairs += [(seed, len(seed.tt)), (build_duplication_baseline(seed), len(seed.tt))]
        pairs.append((checked_c17(), 6))
        digest = hashlib.sha256()
        for i, (circuit, seed_gates) in enumerate(pairs):
            b = default_address_width(circuit.r, seed_gates, circuit.q)
            for lay in (GenomeLayout(circuit.r, circuit.q, b),
                        GenomeLayout(circuit.r, circuit.q, b + 1)):
                rng = random.Random(i)
                for _ in range(5):
                    digest.update(encode_seed(circuit, lay, rng)[0].to_hex().encode())
        assert digest.hexdigest() == (
            "4d57162f9b9026d20f9a1a4e273d62c2a92cb0ae51530d5bca67a7b07a29f201"
        )

    def test_locked_content_identical_across_individuals(self, rng):
        seed = random_circuit(rng, r=3, n_gates=4, q=2, rails="none")
        lay = GenomeLayout(r=3, q=2, b=4)
        a, _ = encode_seed(seed, lay, rng)
        b, _ = encode_seed(seed, lay, rng)
        for pos in seed_lock_mask(seed, lay).locked:
            assert genotype_bit(a, pos) == genotype_bit(b, pos)


class TestOperators:
    def _layout(self):
        return GenomeLayout(r=2, q=1, b=2)

    def test_bit_mutation_hamming_distance_one(self, rng):
        lay = self._layout()
        g = Genotype(rng.getrandbits(lay.total_len), lay)
        child = mutate_bit(g, LockMask.empty(), rng)
        assert bin(g.value ^ child.value).count("1") == 1

    def test_bit_mutation_respects_lock(self, rng):
        lay = self._layout()
        g = Genotype(rng.getrandbits(lay.total_len), lay)
        lock = LockMask(frozenset(range(1, lay.total_len)))
        child = mutate_bit(g, lock, rng)
        assert g.value ^ child.value == 1 << (lay.total_len - 1)  # only bit 0

    def test_bit_mutation_reproducible(self):
        lay = self._layout()
        g = Genotype(12345, lay)
        seq1 = [mutate_bit(g, LockMask.empty(), random.Random(3)).value for _ in range(1)]
        seq2 = [mutate_bit(g, LockMask.empty(), random.Random(3)).value for _ in range(1)]
        assert seq1 == seq2

    def test_routing_mutation_confined_to_one_field(self, rng):
        lay = GenomeLayout(r=3, q=2, b=3)
        field_offsets = [i * lay.b for i in range(lay.m)]
        for k in range(lay.max_gates):
            field_offsets.append(lay.gene_offset(k) + 4)
            field_offsets.append(lay.gene_offset(k) + 4 + lay.b)
        for _ in range(50):
            g = Genotype(rng.getrandbits(lay.total_len), lay)
            child = mutate_routing(g, LockMask.empty(), rng)
            diff = g.value ^ child.value
            if diff == 0:
                continue  # replacement happened to equal the old value
            changed = {
                pos
                for pos in range(lay.total_len)
                if (diff >> (lay.total_len - 1 - pos)) & 1
            }
            assert any(
                set(range(off, off + lay.b)) >= changed for off in field_offsets
            )

    def test_translocation_copies_whole_gene(self, rng):
        lay = GenomeLayout(r=3, q=2, b=3)
        for _ in range(20):
            g = Genotype(rng.getrandbits(lay.total_len), lay)
            child = mutate_translocate(g, LockMask.empty(), rng)
            genes_child = [
                child.field(lay.gene_offset(k), lay.gene_len)
                for k in range(lay.max_gates)
            ]
            genes_parent = [
                g.field(lay.gene_offset(k), lay.gene_len)
                for k in range(lay.max_gates)
            ]
            changed = [k for k in range(lay.max_gates) if genes_child[k] != genes_parent[k]]
            assert len(changed) <= 1
            if changed:
                (j,) = changed
                assert genes_child[j] in genes_parent  # copied from some gene

    def test_translocation_never_writes_locked_gene(self, rng):
        lay = GenomeLayout(r=3, q=2, b=3)
        lock = LockMask(
            frozenset(range(lay.gene_offset(0), lay.gene_offset(2)))
        )  # genes 0 and 1 locked
        for _ in range(50):
            g = Genotype(rng.getrandbits(lay.total_len), lay)
            child = mutate_translocate(g, lock, rng)
            for k in (0, 1):
                off = lay.gene_offset(k)
                assert child.field(off, lay.gene_len) == g.field(off, lay.gene_len)

    def test_crossover_identical_parents(self, rng):
        lay = self._layout()
        g = Genotype(rng.getrandbits(lay.total_len), lay)
        assert crossover_single_point(g, g, rng).value == g.value

    def test_crossover_point_one(self):
        lay = self._layout()
        a = Genotype((1 << lay.total_len) - 1, lay)
        b = Genotype(0, lay)

        class FixedRng(random.Random):
            def randrange(self, *args):
                return 1

        child = crossover_single_point(a, b, FixedRng())
        assert child.value == 1 << (lay.total_len - 1)

    def test_crossover_layout_mismatch(self, rng):
        a = Genotype(0, GenomeLayout(r=2, q=1, b=2))
        b = Genotype(0, GenomeLayout(r=2, q=1, b=3))
        with pytest.raises(ValueError):
            crossover_single_point(a, b, rng)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), op_seq=st.lists(st.integers(0, 3), min_size=1, max_size=8))
    def test_lock_safety_under_operator_sequences(self, data, op_seq):
        lay = GenomeLayout(r=2, q=2, b=3)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        seed_value = data.draw(st.integers(0, (1 << lay.total_len) - 1))
        # The operators take a lock that leaves a whole gene free, as
        # seed_lock_mask's does; any other bit may be locked.
        free = lay.gene_offset(data.draw(st.integers(0, lay.max_gates - 1)))
        lockable = [p for p in range(lay.total_len) if not free <= p < free + lay.gene_len]
        lock = LockMask(frozenset(data.draw(st.sets(st.sampled_from(lockable)))))
        g = Genotype(seed_value, lay)
        current = g
        ops = [mutate_bit, mutate_routing, mutate_translocate]
        for op_index in op_seq:
            if op_index == 3:
                other = Genotype(data.draw(st.integers(0, (1 << lay.total_len) - 1)), lay)
                # crossover preserves locked regions only when both parents
                # agree there, so align the other parent's locked bits first
                for pos in lock.locked:
                    bit = genotype_bit(current, pos)
                    shift = lay.total_len - 1 - pos
                    other = Genotype(
                        (other.value & ~(1 << shift)) | (bit << shift), lay
                    )
                current = crossover_single_point(current, other, rng)
            else:
                current = ops[op_index](current, lock, rng)
        for pos in lock.locked:
            assert genotype_bit(current, pos) == genotype_bit(g, pos)

    def test_operators_preserve_length_and_layout(self, rng):
        lay = GenomeLayout(r=3, q=2, b=3)
        g = Genotype(rng.getrandbits(lay.total_len), lay)
        for op in (mutate_bit, mutate_routing, mutate_translocate):
            child = op(g, LockMask.empty(), rng)
            assert child.layout == lay
            assert len(child) == lay.total_len


class TestHexSerialization:
    def test_roundtrip(self, rng):
        lay = GenomeLayout(r=3, q=2, b=4)
        for _ in range(20):
            g = Genotype(rng.getrandbits(lay.total_len), lay)
            assert Genotype.from_hex(g.to_hex(), lay).value == g.value

    def test_known_packing(self):
        # 22-bit genotype 0b00_10_11_0110_10_11_00000000 packs MSB-first with
        # zero padding in the final byte.
        lay = GenomeLayout(r=2, q=1, b=2)
        g = bits_to_genotype("0010110110101100000000", lay)
        assert g.to_hex() == bytes([0b00101101, 0b10101100, 0]).hex()

    def test_wrong_length_rejected(self):
        lay = GenomeLayout(r=2, q=1, b=2)
        with pytest.raises(ValueError):
            Genotype.from_hex("ff", lay)

    def test_nonzero_padding_rejected(self):
        lay = GenomeLayout(r=2, q=1, b=2)
        with pytest.raises(ValueError):
            Genotype.from_hex("00000f", lay)


def _function_cone(circuit: Circuit) -> tuple[tuple, Counter]:
    """The function outputs as gate expressions, and the multiset of the
    gates in their cone, each as its expression.

    Neither depends on gate numbering, so two circuits whose function cones
    differ only in gate order compare equal.
    """
    r = circuit.r
    forms: list[tuple] = [("x", j) for j in range(r)]
    for t, a, b in zip(circuit.tt, circuit.src_a, circuit.src_b):
        forms.append((t, forms[a], forms[b]))
    cone: set[int] = set()
    stack = [s for s in circuit.outputs if s >= r]
    while stack:
        s = stack.pop()
        if s not in cone:
            cone.add(s)
            stack += [t for t in (circuit.src_a[s - r], circuit.src_b[s - r]) if t >= r]
    return tuple(forms[s] for s in circuit.outputs), Counter(forms[s] for s in cone)


def _mutated_locked(seed: Circuit, lay: GenomeLayout, rng: random.Random) -> Circuit:
    """The seed encoded with its lock, after 30 rounds of bit and routing
    mutation, decoded."""
    genotype, _ = encode_seed(seed, lay, rng)
    lock = seed_lock_mask(seed, lay)
    for _ in range(30):
        genotype = mutate_bit(genotype, lock, rng)
        genotype = mutate_routing(genotype, lock, rng)
    return decode(genotype, rng)


def test_nonintrusive_champion_contains_seed_verbatim(rng):
    # Locked genes and function routing must decode to the seed's function
    # cone, gate for gate, whatever the mutations did elsewhere.
    seed = random_circuit(rng, r=3, n_gates=5, q=2, rails="none")
    circuit = _mutated_locked(seed, GenomeLayout(r=3, q=2, b=4), rng)
    assert _function_cone(circuit) == _function_cone(seed)


def test_nonintrusive_checked_seed_keeps_only_its_function_cone(rng):
    # The checking logic and the rail routing are free to change.
    seed = checked_mult2()
    lay = GenomeLayout(r=4, q=4, b=6)
    circuits = [_mutated_locked(seed, lay, rng) for _ in range(5)]
    assert all(_function_cone(c) == _function_cone(seed) for c in circuits)
    assert any(c.rails != seed.rails or c.tt[7:] != seed.tt[7:] for c in circuits)
