import hashlib
import random
from types import SimpleNamespace

import pytest

from tscsynth.netlist import (
    GATE_NAMES,
    Circuit,
    Gate,
    SignalRef,
    TT_AND,
    TT_BUF_A,
    TT_NOT_A,
    TT_OR,
    TT_XNOR,
    TT_XOR,
    build_duplication_baseline,
    duplication_overhead,
    function_core,
    function_size,
)
from tscsynth.formats import parse_blif
from tscsynth.sim import simulate
from tscsynth.verify import verify_tsc

from conftest import (
    BENCH_DIR,
    checked_c17,
    checked_mult2,
    live_circuit,
    random_circuit,
    random_ref,
    scalar_simulate,
    two_rail_checker_circuit,
)

X = SignalRef.x
G = SignalRef.g


@pytest.mark.parametrize(
    "name,fn",
    [
        ("LT", lambda a, b: a < b),
        ("GT", lambda a, b: a > b),
        ("LE", lambda a, b: a <= b),
        ("GE", lambda a, b: a >= b),
        ("A", lambda a, b: a),
        ("B", lambda a, b: b),
        ("NOTA", lambda a, b: 1 - a),
        ("NOTB", lambda a, b: 1 - b),
    ],
)
def test_gate_names_match_tables(name, fn):
    t = GATE_NAMES.index(name)
    for a in (0, 1):
        for b in (0, 1):
            assert t >> (2 * a + b) & 1 == int(fn(a, b))


def test_truth_table_rejects_out_of_range():
    with pytest.raises(ValueError, match="^truth table value out of range: 16$"):
        Circuit(1, (Gate(16, X(0), X(0)),), (G(0),))


def test_circuit_rejects_forward_reference():
    with pytest.raises(ValueError):
        Circuit(1, (Gate(TT_AND, G(0), X(0)),), (G(0),))


def test_circuit_rejects_dangling_output():
    with pytest.raises(ValueError):
        Circuit(1, (), (G(0),))


def test_circuit_rejects_single_rail():
    with pytest.raises(ValueError):
        Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),), (G(0),))


_AND01 = Gate(TT_AND, X(0), X(1))


def arrays(r: int, gates, outputs, rails) -> tuple:
    """from_arrays' arguments for a netlist given as Gate and SignalRef
    objects: x_j is index j, g_k is r + k, and an input beyond r is ~j, the
    negative index that stands for it."""

    def index(ref: SignalRef) -> int:
        if ref.kind == "g":
            return r + ref.index
        return ref.index if ref.index < r else ~ref.index

    return (r, [g.tt for g in gates], [index(g.a) for g in gates],
            [index(g.b) for g in gates], [index(ref) for ref in outputs],
            None if rails is None else [index(ref) for ref in rails])


@pytest.mark.parametrize(
    "gates,outputs,rails,message",
    [
        # Gate inputs: the second one out of range, after a valid first one.
        ((Gate(TT_AND, X(0), X(2)),), (G(0),), None, "input reference out of range: x2"),
        ((Gate(TT_AND, X(3), X(0)),), (G(0),), None, "input reference out of range: x3"),
        # A gate reading itself or a later gate.
        ((_AND01, Gate(TT_OR, X(0), G(1))), (G(1),), None,
         "forward or dangling gate reference: g1"),
        ((Gate(TT_OR, G(1), X(0)), _AND01), (G(1),), None,
         "forward or dangling gate reference: g1"),
        # Function outputs.
        ((_AND01,), (G(0), X(2)), None, "input reference out of range: x2"),
        ((_AND01,), (G(0), G(1)), None, "forward or dangling gate reference: g1"),
        # Error rails.
        ((_AND01,), (G(0),), (X(0), X(5)), "input reference out of range: x5"),
        ((_AND01,), (G(0),), (G(3), G(0)), "forward or dangling gate reference: g3"),
        ((_AND01,), (G(0),), (G(0),), "error rails come in pairs"),
    ],
)
def test_circuit_rejection_messages(gates, outputs, rails, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Circuit(2, gates, outputs, rails)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Circuit.from_arrays(*arrays(2, gates, outputs, rails))


@pytest.mark.parametrize(
    "tt,src_a,src_b,message",
    [
        ([8, 16], [0, 2], [1, 0], "truth table value out of range: 16"),
        ([8, -1], [0, 2], [1, 0], "truth table value out of range: -1"),
        ([8], [0, 1], [1], "gate arrays differ in length"),
        ([8], [0], [], "gate arrays differ in length"),
    ],
)
def test_array_form_rejects_bad_tables_and_lengths(tt, src_a, src_b, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Circuit.from_arrays(2, tt, src_a, src_b, [2], None)


def test_array_form_equals_gate_form():
    c = Circuit.from_arrays(2, [8, 14], [0, 2], [1, 0], [3], [2, 3])
    assert c == Circuit(2, (_AND01, Gate(TT_OR, G(0), X(0))), (G(1),), (G(0), G(1)))
    assert c.gates == (_AND01, Gate(TT_OR, G(0), X(0)))
    assert c.gates is c.gates  # built once


@pytest.mark.parametrize(
    "gates,outputs,rails,dead",
    [
        # Read by nothing at all.
        ((_AND01, Gate(TT_OR, X(0), X(1))), (G(0),), None, "g1"),
        # Read only by a gate nothing reads: the first unread one is named.
        ((_AND01, Gate(TT_OR, G(0), X(1)), Gate(TT_XOR, X(0), X(1))), (X(0),), None, "g1"),
        # No output or rail reads any gate.
        ((_AND01,), (), None, "g0"),
        ((_AND01,), (X(1),), (X(0), X(1)), "g0"),
    ],
)
def test_circuit_rejects_unread_gate(gates, outputs, rails, dead):
    message = f"^gate read by no later gate, output or rail: {dead}$"
    with pytest.raises(ValueError, match=message):
        Circuit(2, gates, outputs, rails)
    with pytest.raises(ValueError, match=message):
        Circuit.from_arrays(*arrays(2, gates, outputs, rails))


class TestLiveSet:
    """conftest.live_circuit, the liveness pass random netlists take before
    they become a Circuit."""

    def test_unreachable_gate_dropped(self):
        gates = (Gate(TT_AND, X(0), X(1)), Gate(TT_OR, X(0), X(1)), Gate(TT_XOR, X(0), G(1)))
        c = live_circuit(2, gates, (G(0),))
        assert c.gates == gates[:1] and c.outputs == (2,)

    def test_rail_and_output_both_reachable(self):
        gates = (
            Gate(TT_AND, X(0), X(1)),
            Gate(TT_XOR, X(0), X(1)),
            Gate(TT_OR, X(0), X(1)),
            Gate(TT_NOT_A, G(2), G(2)),
        )
        c = live_circuit(2, gates, (G(0),), (G(3), G(2)))
        assert c.gates == (gates[0], gates[2], Gate(TT_NOT_A, G(1), G(1)))
        assert c.rails == (4, 3)

    def test_empty_gate_list(self):
        assert live_circuit(2, (), (X(0), X(1))).gates == ()

    def test_pruning_dead_gates_keeps_responses(self, rng):
        # Removing gates with no path to an output never changes a response.
        for _ in range(50):
            gates = tuple(
                Gate(rng.randrange(16), random_ref(rng, 3, i),
                     random_ref(rng, 3, i))
                for i in range(8)
            )
            func = (random_ref(rng, 3, 8), random_ref(rng, 3, 8))
            rails = (random_ref(rng, 3, 8), random_ref(rng, 3, 8))
            r, tt, src_a, src_b, outputs, rails_at = arrays(3, gates, func, rails)
            netlist = SimpleNamespace(r=r, q=2, tt=tt, src_a=src_a, src_b=src_b,
                                      outputs=outputs, rails=rails_at)
            packed = simulate(live_circuit(3, gates, func, rails))
            ref = scalar_simulate(netlist)
            assert packed.outputs == ref["outputs"] and packed.rails == ref["rails"]


class TestDuplicationOverhead:
    @pytest.mark.parametrize(
        "g,q,expected",
        [(18, 10, 72), (0, 1, 0), (22, 7, 58), (5, 4, 23), (6, 2, 12)],
    )
    def test_values(self, g, q, expected):
        assert duplication_overhead(g, q) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            duplication_overhead(-1, 2)
        with pytest.raises(ValueError):
            duplication_overhead(3, 0)


class TestTwoRailChecker:
    def cell_value(self, a0, a1, b0, b1):
        cell = two_rail_checker_circuit()
        resp = simulate(cell)
        w = a0 | (a1 << 1) | (b0 << 2) | (b1 << 3)
        return ((resp.rails[0] >> w) & 1, (resp.rails[1] >> w) & 1)

    def test_valid_one_one(self):
        assert self.cell_value(0, 1, 0, 1) == (0, 1)

    def test_valid_one_zero(self):
        assert self.cell_value(0, 1, 1, 0) == (1, 0)

    def test_invalid_input_gives_error_code(self):
        assert self.cell_value(0, 0, 0, 1) == (0, 0)

    def test_gate_count(self):
        assert len(two_rail_checker_circuit().gates) == 6

    def test_error_exactly_on_invalid_words(self):
        # The construction is code-disjoint: the output pair collides exactly
        # on the words where at least one input pair is invalid.
        cell = two_rail_checker_circuit()
        resp = simulate(cell)
        for w in range(16):
            a_valid = ((w >> 0) & 1) != ((w >> 1) & 1)
            b_valid = ((w >> 2) & 1) != ((w >> 3) & 1)
            collide = ((resp.rails[0] >> w) & 1) == ((resp.rails[1] >> w) & 1)
            assert collide == (not (a_valid and b_valid))


def _adder_seed():
    # 2-in/2-out: y0 = x0 XOR x1, y1 = x0 AND x1; realizes 3 of 4 patterns.
    return Circuit(
        2,
        (Gate(TT_XOR, X(0), X(1)), Gate(TT_AND, X(0), X(1))),
        (G(0), G(1)),
    )


def _identity_seed():
    return Circuit(2, (Gate(TT_BUF_A, X(0), X(0)), Gate(TT_BUF_A, X(1), X(1))), (G(0), G(1)))


class TestDuplicationBaseline:
    def test_added_gate_count(self):
        seed = _adder_seed()
        baseline = build_duplication_baseline(seed)
        assert len(baseline.gates) - len(seed.gates) == duplication_overhead(
            len(seed.gates), seed.q
        )

    def test_function_preserved_and_rails_valid(self):
        seed = _adder_seed()
        baseline = build_duplication_baseline(seed)
        assert simulate(baseline).outputs == simulate(seed).outputs
        z0, z1 = simulate(baseline).rails
        assert z0 ^ z1 == (1 << (1 << seed.r)) - 1  # never collide fault-free

    def test_function_preserved_many_random_seeds(self, rng):
        for _ in range(30):
            seed = random_circuit(rng, r=3, n_gates=6, q=rng.randrange(1, 5))
            baseline = build_duplication_baseline(seed)
            assert simulate(baseline).outputs == simulate(seed).outputs
            z0, z1 = simulate(baseline).rails
            assert z0 ^ z1 == (1 << (1 << seed.r)) - 1

    def test_single_output_uses_pair_as_rails(self):
        seed = Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),))
        baseline = build_duplication_baseline(seed)
        assert len(baseline.gates) == 2  # copy only, no checker
        z0, z1 = simulate(baseline).rails
        assert z0 ^ z1 == 0b1111

    def test_single_wire_output_gets_one_inverter(self):
        baseline = build_duplication_baseline(Circuit(2, (), (X(1),)))
        assert baseline == Circuit(2, (Gate(TT_NOT_A, X(1), X(1)),), (X(1),), (G(0), X(1)))

    def test_single_wire_baseline_is_not_tsc(self):
        # The NOT gate reads the wire on both pins and ignores pin b, so the
        # oracle finds exactly pin b's two stuck-at faults undetected.
        report = verify_tsc(build_duplication_baseline(Circuit(2, (), (X(1),))))
        assert [str(f) for f in report.undetected] == ["b0.0", "b0.1"]
        assert not report.violations and not report.false_alarm

    def test_baseline_pinned(self):
        # One sha256 over the arrays of every baseline, recorded before the
        # hand-made netlists shared one gate builder: the gate order is the
        # seed a search starts from, and the tests above check only the gate
        # count and the function.  The random seeds cover single-output gate
        # and wire seeds, q = 2, 3 and 5, outputs sharing a gate, and input
        # outputs with q > 1.
        seeds = [parse_blif(p.read_text()) for p in sorted(BENCH_DIR.glob("*.blif"))]
        draw = random.Random(31)
        for i in range(200):
            seeds.append(random_circuit(draw, r=draw.randrange(1, 5),
                                        n_gates=draw.randrange(7), q=(1, 2, 3, 5)[i % 4]))
        digest = hashlib.sha256()
        kinds = [0, 0, 0, 0]  # single gate, single wire, shared gate, input with q > 1
        for seed in seeds:
            b = build_duplication_baseline(seed)
            digest.update(repr((b.r, b.tt, b.src_a, b.src_b, b.outputs, b.rails)).encode())
            gate_outputs = [s for s in seed.outputs if s >= seed.r]
            kinds[0] += seed.q == 1 and bool(gate_outputs)
            kinds[1] += seed.q == 1 and not gate_outputs
            kinds[2] += len(set(gate_outputs)) < len(gate_outputs)
            kinds[3] += seed.q > 1 and len(gate_outputs) < seed.q
        assert kinds == [24, 26, 37, 121]
        assert digest.hexdigest() == (
            "8fe9fb022989773d933fb79f9fe6d6ba5a6f1bd4d2a5b8c08bb0370db50199df"
        )

    def test_rejects_seed_with_rails(self):
        seed = _adder_seed()
        with_rails = Circuit(seed.r, seed.gates, (G(0), G(1)), (G(0), G(1)))
        with pytest.raises(ValueError):
            build_duplication_baseline(with_rails)


class TestFunctionCore:
    @pytest.mark.parametrize("name,gates", [
        ("b1", 5), ("c17", 6), ("cm138a", 16), ("cm42a", 17), ("cm82a", 10),
        ("decod", 28), ("mult2", 7), ("rd53", 12),
    ])
    def test_shipped_seed_and_its_duplication_baseline(self, name, gates):
        # A seed without rails is all core.  Its baseline puts the seed's
        # gates first, and only the rails read the copy and the checker.
        seed = parse_blif((BENCH_DIR / f"{name}.blif").read_text())
        assert len(seed.tt) == gates and function_core(seed) == tuple(range(gates))
        assert function_core(build_duplication_baseline(seed)) == tuple(range(gates))

    @pytest.mark.parametrize("circuit,core", [
        (checked_mult2(), tuple(range(7))),
        # z_0 is the wire x0; g2 reads the core gate g0, but only z_1 reads
        # g2, so it is checking logic.
        (Circuit(
            2,
            (Gate(TT_AND, X(0), X(1)), Gate(TT_XOR, G(0), X(0)), Gate(TT_XNOR, G(0), X(1))),
            (G(1),),
            (X(0), G(2)),
        ), (0, 1)),
        (two_rail_checker_circuit(), ()),
    ], ids=["checked-mult2", "input-rail", "no-function-outputs"])
    def test_circuit_with_rails(self, circuit, core):
        assert function_core(circuit) == core


class TestFunctionSize:
    @pytest.mark.parametrize("name", ["b1", "c17", "cm138a", "cm42a", "cm82a", "decod",
                                      "mult2", "rd53"])
    def test_shipped_seed_is_its_gate_count(self, name):
        seed = parse_blif((BENCH_DIR / f"{name}.blif").read_text())
        assert function_size(seed) == len(seed.tt)
        assert function_size(build_duplication_baseline(seed)) == len(seed.tt)

    def test_private_copies_count_once(self):
        # The c17 witness copies g1 = NAND(x2, x3) and g2 = NAND(x1, g1) into
        # y_1's cone as g4 and g5: 8 core gates, c17's 6 once merged.
        c = checked_c17()
        assert function_core(c) == tuple(range(8))
        assert function_size(c) == 6
        assert function_size(checked_mult2()) == 7

    def test_merging_follows_sources(self):
        # g0 and g1 are the same AND, so g2 = XOR(g0, x0) and g3 = XOR(g1, x0)
        # are the same gate too.  g4 = XOR(x0, g1) reads them swapped and
        # stays apart.
        c = Circuit.from_arrays(2, [TT_AND, TT_AND, TT_XOR, TT_XOR, TT_XOR],
                                [0, 0, 2, 3, 0], [1, 1, 0, 0, 3], (4, 5, 6), None)
        assert function_size(c) == 3
