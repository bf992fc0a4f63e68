import hashlib
import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscsynth.formats import (
    ParseError,
    TargetSpec,
    export_dot,
    parse_blif,
    parse_pla,
    read_native,
    render_blif,
    render_pla,
    write_native,
)
from tscsynth.netlist import Circuit, Gate, SignalRef, TT_XOR, build_duplication_baseline
from tscsynth.sim import MAX_INPUTS, simulate

from conftest import BENCH_DIR, random_circuit

X = SignalRef.x
G = SignalRef.g


@pytest.mark.parametrize("q,columns,message", [
    (2, (0b0110,), "column count does not match q"),
    (1, (0b10000,), r"target column does not fit 2\*\*r words"),
    (1, (-1,), r"target column does not fit 2\*\*r words"),
])
def test_target_spec_rejects_bad_columns(q, columns, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TargetSpec(2, q, columns)


class TestPla:
    def test_single_and_cube(self):
        target = parse_pla(".i 2\n.o 1\n11 1\n.e\n")
        assert target.columns == (0b1000,)

    def test_dont_care_input_column(self):
        # "1-" asserts whenever x_0 is 1, i.e. words 1 and 3.
        target = parse_pla(".i 2\n.o 1\n1- 1\n.e\n")
        assert target.columns == (0b1010,)

    def test_no_cubes_means_all_zero(self):
        target = parse_pla(".i 2\n.o 2\n.e\n")
        assert target.columns == (0, 0)

    def test_cubes_accumulate(self):
        target = parse_pla(".i 2\n.o 1\n00 1\n11 1\n.e\n")
        assert target.columns == (0b1001,)

    def test_tilde_output_not_asserted(self):
        target = parse_pla(".i 1\n.o 2\n1 1~\n.e\n")
        assert target.columns == (0b10, 0)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_pla("11 1\n.e\n")

    @pytest.mark.parametrize("text", [
        ".i\n.o 1\n1 1\n.e\n",
        ".i 1\n.o\n1 1\n.e\n",
        ".i 1 2\n.o 1\n1 1\n.e\n",
        ".i x\n.o 1\n1 1\n.e\n",
    ])
    def test_count_directive_needs_one_count(self, text):
        with pytest.raises(ParseError, match="needs one count"):
            parse_pla(text)

    @pytest.mark.parametrize("text,key", [
        (".i 3\n.i 2\n.o 1\n11 1\n.e\n", "i"),
        (".i 2\n.o 1\n.o 1\n11 1\n.e\n", "o"),
        (".i 1\n.o 1\n.type fr\n.type f\n1 1\n1 0\n.e\n", "type"),
    ])
    def test_repeated_count_directive_rejected(self, text, key):
        # The second directive used to replace the first without a word.
        with pytest.raises(ParseError, match=f"^PLA .{key} is given twice$"):
            parse_pla(text)

    def test_inconsistent_width_rejected(self):
        with pytest.raises(ParseError):
            parse_pla(".i 2\n.o 1\n111 1\n.e\n")

    def test_bad_character_rejected(self):
        with pytest.raises(ParseError):
            parse_pla(".i 2\n.o 1\n1x 1\n.e\n")

    def test_output_dont_care_rejected(self):
        with pytest.raises(ParseError):
            parse_pla(".i 2\n.o 1\n11 -\n.e\n")

    @pytest.mark.parametrize("line", [
        ".type r", ".type d", ".type dr", ".type", ".type f r", ".type fx",
    ])
    def test_type_without_on_set_cubes_rejected(self, line):
        # Under r, d and dr a cube's 1 outputs are not the on-set: .type r
        # with the cube "11 1" specifies the complement of column 0b1000.
        with pytest.raises(ParseError, match="PLA .type must be one of f, fd, fr, fdr"):
            parse_pla(f".i 2\n.o 1\n{line}\n11 1\n.e\n")

    @pytest.mark.parametrize("kind", ["f", "fd", "fr", "fdr"])
    def test_on_set_types_read_as_no_type(self, kind):
        text = ".i 2\n.o 2\n00 10\n11 01\n1- 0~\n.e\n"
        typed = text.replace(".o 2\n", f".o 2\n.type {kind}\n")
        assert parse_pla(typed).columns == parse_pla(text).columns == (0b0001, 0b1000)

    @pytest.mark.parametrize("kind", ["fr", "fdr"])
    def test_word_in_on_set_and_off_set_rejected(self, kind):
        # Under fr and fdr a '0' output puts the word in the off-set.  The
        # error names the output and a word in both sets, x_0 first.
        for head, cubes, where in ((".i 1\n.o 1", "1 1\n1 0", "output 0 has word 1"),
                                   (".i 2\n.o 2", "10 01\n1- 00", "output 1 has word 10")):
            with pytest.raises(ParseError, match=f"PLA {where} in both its on-set and off-set"):
                parse_pla(f"{head}\n.type {kind}\n{cubes}\n.e\n")

    @pytest.mark.parametrize("kind", ["f", "fd"])
    def test_zero_output_outside_off_set_types_is_not_on_set(self, kind):
        assert parse_pla(f".i 1\n.o 1\n.type {kind}\n1 1\n1 0\n.e\n").columns == (0b10,)

    @pytest.mark.parametrize("text,message", [
        (".i 1\n.o 1\n.kiss\n1 1\n.e\n", "unsupported PLA directive: .kiss"),
        (".i 1\n.o 1\n1 1 1\n.e\n", "bad cube line: '1 1 1'"),
        (".i 0\n.o 1\n.e\n", "PLA needs at least one input and one output"),
        (".i 1\n.o 0\n.e\n", "PLA needs at least one input and one output"),
        (".i 1\n.o 1\n1 2\n.e\n", "bad output character '2' in cube"),
    ])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_pla(text)

    def test_backslash_continues_a_line(self):
        # The continued line is joined with a space: "11 \\" and "1" read
        # as the cube "11 1", and "# ..." after it is a comment.
        assert parse_pla(".i 2\n.o 1\n11 \\\n1  # and\n.e\n").columns == (0b1000,)

    @pytest.mark.parametrize("r", [MAX_INPUTS + 1, 40])
    def test_more_than_max_inputs_rejected(self, r):
        # Rejected before any 2**r-word column is built.
        with pytest.raises(ParseError, match=f"PLA has {r} inputs; at most 16"):
            parse_pla(f".i {r}\n.o 1\n{'1' * r} 1\n.e\n")

    def test_max_inputs_accepted(self):
        r = MAX_INPUTS
        assert parse_pla(f".i {r}\n.o 1\n{'1' * r} 1\n.e\n").columns == (1 << (1 << r) - 1,)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), r=st.integers(1, 6), q=st.integers(1, 4))
    def test_render_parse_roundtrip(self, data, r, q):
        full = (1 << (1 << r)) - 1
        cols = tuple(data.draw(st.integers(0, full)) for _ in range(q))
        target = TargetSpec(r, q, cols)
        assert parse_pla(render_pla(target)).columns == cols


class TestBlif:
    def test_and_gate(self):
        c = parse_blif(
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
        )
        assert len(c.gates) == 1
        assert simulate(c).outputs == (0b1000,)

    def test_unary_not_embeds_as_two_input(self):
        c = parse_blif(".model t\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n")
        assert len(c.gates) == 1
        assert c.tt == (0b0011,)
        assert simulate(c).outputs == (0b01,)

    def test_more_than_max_inputs_rejected(self):
        names = " ".join(f"a{j}" for j in range(MAX_INPUTS + 1))
        text = f".model t\n.inputs {names}\n.outputs y\n.names a0 a1 y\n11 1\n.end\n"
        with pytest.raises(ParseError, match="BLIF has 17 inputs; at most 16"):
            parse_blif(text)

    def test_constant_one(self):
        c = parse_blif(".model t\n.inputs a\n.outputs y\n.names y\n1\n.end\n")
        assert simulate(c).outputs == (0b11,)

    def test_off_set_cover(self):
        # All-zero cover rows define the complement.
        c = parse_blif(
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n"
        )
        assert simulate(c).outputs == (0b0111,)

    @pytest.mark.parametrize("sources", [["b"], ["b", "a"]])
    @pytest.mark.parametrize("polarity", ["0", "1"])
    def test_table_matches_the_cover_row_by_row(self, sources, polarity):
        # Every pattern over 0, 1 and -, as a cover's one row and with every
        # pattern as a second row.
        patterns = ["".join(p) for p in product("01-", repeat=len(sources))]
        covers = [[p] for p in patterns] + [list(pq) for pq in product(patterns, repeat=2)]
        for rows in covers:
            text = (".model t\n.inputs a b\n.outputs y\n"
                    f".names {' '.join(sources)} y\n"
                    + "".join(f"{row} {polarity}\n" for row in rows) + ".end\n")
            (t,) = parse_blif(text).tt
            for a, b in product((0, 1), repeat=2):
                # The gate's first source is pin a, its second (or x_0 in
                # place of a missing one) pin b.
                hit = any(all(ch == "-" or int(ch) == v for ch, v in zip(row, (a, b)))
                          for row in rows)
                assert t >> (2 * a + b) & 1 == (hit == (polarity == "1")), (rows, a, b)

    def test_out_of_order_blocks_sorted(self):
        c = parse_blif(
            ".model t\n.inputs a b\n.outputs y\n"
            ".names m y\n1 1\n.names a b m\n11 1\n.end\n"
        )
        assert simulate(c).outputs == (0b1000,)

    def test_undeclared_net_rejected(self):
        with pytest.raises(ParseError, match="undefined net 'ghost'"):
            parse_blif(".model t\n.inputs a\n.outputs y\n.names ghost y\n1 1\n.end\n")

    def test_fanin_three_rejected(self):
        with pytest.raises(ParseError):
            parse_blif(
                ".model t\n.inputs a b c\n.outputs y\n.names a b c y\n111 1\n.end\n"
            )

    @pytest.mark.parametrize("body,tt,src_a,src_b,outputs", [
        # A reads C, listed last: C's gate comes first, then A's, then B's.
        (".outputs A B\n.names C b A\n11 1\n.names a b B\n10 1\n.names a b C\n01 1\n",
         (0b0010, 0b1000, 0b0100), (0, 2, 0), (1, 1, 1), (3, 4)),
        # A block's sources are walked in the order it lists them.
        (".outputs A\n.names F E A\n11 1\n.names a b E\n11 1\n.names a b F\n01 1\n",
         (0b0010, 0b1000, 0b1000), (0, 0, 2), (1, 1, 3), (4,)),
    ], ids=["read-before-defined", "sources-in-order"])
    def test_gates_numbered_in_post_order_from_file_order(
            self, body, tt, src_a, src_b, outputs):
        c = parse_blif(f".model t\n.inputs a b\n{body}.end\n")
        assert (c.tt, c.src_a, c.src_b, c.outputs) == (tt, src_a, src_b, outputs)

    def test_cycle_named_where_the_walk_meets_its_path(self):
        # The walk goes y, p, q and then meets p again; y is not on the cycle.
        text = (".model t\n.inputs a\n.outputs y\n"
                ".names p y\n1 1\n.names q p\n1 1\n.names p q\n1 1\n.end\n")
        with pytest.raises(ParseError, match="^cyclic definition through net 'p'$"):
            parse_blif(text)

    def test_cycle_rejected(self):
        with pytest.raises(ParseError, match="cyclic definition through net"):
            parse_blif(
                ".model t\n.inputs a\n.outputs y\n"
                ".names y m\n1 1\n.names m y\n1 1\n.end\n"
            )

    @pytest.mark.parametrize("extra,net", [
        (".names a spare\n1 1\n", "spare"),
        # Read, but only by a block no output reads: that one is named.
        (".names a n1\n1 1\n.names n1 n2\n0 1\n", "n2"),
    ])
    def test_block_no_output_reads_rejected(self, extra, net):
        text = f".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n{extra}.end\n"
        with pytest.raises(ParseError, match=f"^net '{net}' feeds no output"):
            parse_blif(text)

    @pytest.mark.parametrize("text,message", [
        (".inputs a\n.outputs a\n.names\n", "empty .names line"),
        (".inputs a\n.outputs a\n.latch a b\n", "unsupported BLIF directive: .latch"),
        (".inputs a\n.outputs a\n11 1\n", "cover row outside a .names block: '11 1'"),
        (".outputs y\n.names y\n1\n", "BLIF has no .inputs"),
        (".inputs a\n", "BLIF has no .outputs"),
        (".inputs a b\n.outputs y\n.names a b y\n11 1\n.names a b y\n10 1\n",
         "a net is defined by more than one .names block"),
        (".inputs a b\n.outputs a\n.names b a\n1 1\n",
         "primary input 'a' redefined by .names"),
        (".inputs a\n.outputs z\n", "undefined output net 'z'"),
        (".inputs a\n.outputs y\n.names y\n2\n",
         "bad constant cover row '2' in .names block for 'y'"),
        (".inputs a b\n.outputs y\n.names a b y\n1 1\n",
         "bad cover row '1 1' in .names block for 'y'"),
        (".inputs a b\n.outputs y\n.names a b y\n1x 1\n",
         "bad cover pattern '1x' in .names block for 'y'"),
        (".inputs a b\n.outputs y\n.names a b y\n11 2\n",
         "bad cover output '2' in .names block for 'y'"),
        (".inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n",
         "mixed cover polarity in .names block for 'y'"),
    ])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_blif(f".model t\n{text}.end\n")

    def test_end_and_model_optional(self):
        # The last block ends with the text; a long .inputs line may be
        # continued with a backslash.
        c = parse_blif(".inputs a \\\n b\n.outputs y\n.names a b y\n11 1\n")
        assert c == parse_blif(".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
        assert simulate(c).outputs == (0b1000,)

    @pytest.mark.parametrize("inputs", [".inputs a a", ".inputs a b\n.inputs a"])
    def test_repeated_input_rejected(self, inputs):
        # Otherwise every reader of 'a' reads the last x_j named 'a', and
        # the first one is left unread.
        text = f".model t\n{inputs}\n.outputs y\n.names a y\n1 1\n.end\n"
        with pytest.raises(ParseError, match="^primary input 'a' is declared twice$"):
            parse_blif(text)

    def test_repeated_output_name_accepted(self):
        # render_blif names both outputs y0 when they share a driver.
        c = Circuit(2, (Gate(TT_XOR, X(0), X(1)),), (G(0), G(0)))
        text = render_blif(c)
        assert ".outputs y0 y0" in text
        assert parse_blif(text) == c

    def test_render_refuses_rails(self):
        c = Circuit(2, (Gate(TT_XOR, X(0), X(1)),), (G(0),), (X(0), G(0)))
        with pytest.raises(ValueError, match="native JSON"):
            render_blif(c)

    def test_long_chain_listed_last_gate_first(self):
        # 3000 inverters, each block listed before the one it reads.
        n = 3000
        blocks = [f".names n{i - 1} n{i}\n0 1" for i in range(n - 1, 0, -1)]
        text = "\n".join(
            [".model t", ".inputs a", f".outputs n{n - 1}", *blocks,
             ".names a n0\n0 1", ".end"]
        )
        c = parse_blif(text)
        # With r = 1, x_0 is index 0 and gate i is index i + 1.
        assert len(c.tt) == n
        assert c.src_a == tuple(range(n))
        assert c.outputs == (n,)
        assert simulate(c).outputs == (0b10,)

    def test_render_parse_gives_the_same_arrays(self, rng):
        # render_blif lists the gates in order, and the reader keeps a file's
        # order when it is topological; every encode_seed depends on it.
        for _ in range(200):
            c = random_circuit(rng, r=rng.randint(1, 5), n_gates=rng.randint(1, 12),
                               q=rng.randint(1, 3), rails="none")
            assert parse_blif(render_blif(c)) == c


class TestNative:
    def test_example_shape(self):
        c = Circuit(2, (Gate(TT_XOR, X(0), X(1)),), (G(0),))
        obj = json.loads(write_native(c))
        assert obj == {
            "r": 2,
            "gates": [{"tt": "0110", "a": "x0", "b": "x1"}],
            "y": ["g0"],
            "z": [],
        }

    def test_roundtrip_random(self, rng):
        for _ in range(25):
            c = random_circuit(rng, r=3, n_gates=5, q=2, rails="random")
            assert read_native(write_native(c)) == c

    @pytest.mark.parametrize("r,message", [
        (MAX_INPUTS + 1, "circuit has 17 inputs; at most 16 are supported"),
        (40, "circuit has 40 inputs; at most 16 are supported"),
        (2.5, "input count must be an integer, got 2.5"),
        (2.0, "input count must be an integer, got 2.0"),
        (True, "input count must be an integer, got True"),
        ("2", "input count must be an integer, got '2'"),
        (-1, "negative input count"),
    ])
    def test_bad_input_count_rejected(self, r, message):
        text = json.dumps({"r": r, "gates": [], "y": ["x0"], "z": []})
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_native(text)

    def test_single_rail_rejected(self):
        text = json.dumps(
            {"r": 2, "gates": [{"tt": "0110", "a": "x0", "b": "x1"}], "y": ["g0"], "z": ["g0"]}
        )
        with pytest.raises(ParseError, match="^error rails come in pairs$"):
            read_native(text)

    @pytest.mark.parametrize("rails", [None, 3, "g0"])
    def test_rails_not_a_list_rejected(self, rails):
        text = json.dumps({"r": 2, "gates": [], "y": ["x0"], "z": rails})
        with pytest.raises(ParseError, match="error rails must be a list"):
            read_native(text)

    @pytest.mark.parametrize("gates,y,message", [
        ({}, ["x0"], "gates must be a list, got {}"),
        ("g0", ["x0"], "gates must be a list, got 'g0'"),
        ([], "x0", "function outputs must be a list, got 'x0'"),
        ([], None, "function outputs must be a list, got None"),
        (["0110"], ["x0"], "gate 0 must be an object, got '0110'"),
        ([{"tt": "0110", "a": "x0", "b": "x1"}, [6, "x0", "x1"]], ["g0"],
         r"gate 1 must be an object, got \[6, 'x0', 'x1'\]"),
    ])
    def test_gates_and_outputs_not_lists_rejected(self, gates, y, message):
        text = json.dumps({"r": 2, "gates": gates, "y": y, "z": []})
        with pytest.raises(ParseError, match=f"^{message}$"):
            read_native(text)

    @pytest.mark.parametrize("text,message", [
        ('{"r": 2,', "bad JSON: "),
        ('{"r": 2, "gates": []}', "missing circuit field: 'y'"),
        ("[2]", "missing circuit field: "),
        ('{"r": 2, "gates": [{"tt": "0110", "a": "x0"}], "y": ["g0"]}',
         "bad circuit field: 'b'"),
    ])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}"):
            read_native(text)

    def test_dangling_ref_rejected(self):
        text = json.dumps({"r": 2, "gates": [], "y": ["g0"], "z": []})
        with pytest.raises(ParseError):
            read_native(text)

    @pytest.mark.parametrize("tt", ["01", "0120", "01100", 6, None])
    def test_bad_table_rejected(self, tt):
        text = json.dumps({"r": 2, "gates": [{"tt": tt, "a": "x0", "b": "x1"}],
                           "y": ["g0"], "z": []})
        with pytest.raises(ParseError, match="^bad truth table .*: want four digits, each 0 or 1$"):
            read_native(text)

    @pytest.mark.parametrize("ref", ["y0", "x", "g-1", "x1.0", "", 3, None])
    def test_bad_signal_reference_rejected(self, ref):
        text = json.dumps({"r": 2, "gates": [{"tt": "0110", "a": "x0", "b": ref}],
                           "y": ["g0"], "z": []})
        with pytest.raises(ParseError, match="^bad signal reference: "):
            read_native(text)

    @pytest.mark.parametrize("gates,y,z", [
        ([{"tt": "0110", "a": "x0", "b": "x5"}], ["g0"], []),
        ([], ["x5"], []),
        ([], ["x0"], ["x1", "x5"]),
    ])
    def test_input_beyond_r_rejected_by_name(self, gates, y, z):
        text = json.dumps({"r": 2, "gates": gates, "y": y, "z": z})
        with pytest.raises(ParseError, match="^input reference out of range: x5$"):
            read_native(text)

    def test_forward_ref_rejected(self):
        text = json.dumps(
            {
                "r": 2,
                "gates": [
                    {"tt": "0110", "a": "g1", "b": "x1"},
                    {"tt": "1000", "a": "x0", "b": "x1"},
                ],
                "y": ["g0"],
                "z": [],
            }
        )
        with pytest.raises(ParseError):
            read_native(text)


class TestDot:
    def test_xor_graph(self):
        c = Circuit(2, (Gate(TT_XOR, X(0), X(1)),), (G(0),))
        dot = export_dot(c)
        assert "digraph" in dot
        assert 'g0 [shape=box, label="0:XOR"]' in dot
        assert "x0 -> g0" in dot
        assert "g0 -> y0" in dot

    def test_empty_circuit(self):
        c = Circuit(1, (), (X(0),))
        dot = export_dot(c)
        assert "x0" in dot and "y0" in dot

    def test_rails_use_distinct_shape(self):
        c = Circuit(
            2,
            (Gate(TT_XOR, X(0), X(1)),),
            (G(0),),
            (X(0), G(0)),
        )
        dot = export_dot(c)
        assert "z0 [shape=diamond]" in dot

    def test_deterministic(self, rng):
        c = random_circuit(rng, r=3, n_gates=4, q=2, rails="random")
        assert export_dot(c) == export_dot(c)


def test_shipped_benchmark_text_pinned():
    # One sha256 over the native JSON and DOT text of every shipped seed and
    # of its duplication baseline, and the seed's BLIF, recorded when the
    # writers and the baseline still went through Gate and SignalRef
    # objects: the array-based ones must write the same bytes.
    digest = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.blif")):
        seed = parse_blif(path.read_text())
        baseline = build_duplication_baseline(seed)
        for circuit in (seed, baseline):
            assert read_native(write_native(circuit)) == circuit
        for text in (write_native(seed), export_dot(seed), render_blif(seed, model=path.stem),
                     write_native(baseline), export_dot(baseline)):
            digest.update(text.encode())
    assert digest.hexdigest() == (
        "ea9a6853f17d7596ff1de836db428ebd0bd3a8a2d8caad6548ae5bfc9be99587")
