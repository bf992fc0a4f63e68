import hashlib
import random
from array import array
from collections import Counter
from dataclasses import astuple

import pytest

from tscsynth import fitness
from tscsynth.evolve import IslandConfig, run
from tscsynth.fitness import (
    FitnessVector,
    K_FS,
    K_ST,
    evaluate_checking,
    evaluate_circuit,
    fault_free_response,
    fs_score,
    st_score,
)
from tscsynth.formats import TargetSpec, parse_blif, parse_pla
from tscsynth.genome import GenomeLayout, Genotype, LockMask, decode, encode_seed, mutate_bit
from tscsynth.netlist import (
    Circuit,
    Gate,
    SignalRef,
    TT_AND,
    TT_NAND,
    TT_OR,
    TT_XNOR,
    TT_XOR,
    build_duplication_baseline,
)
from tscsynth.sim import GATE_EVAL, FaultScope, simulate
from tscsynth.verify import verify_fs, verify_tsc

from conftest import (
    BENCH_DIR,
    HALF_ADDER_PLA,
    checked_mult2,
    random_circuit,
    tsc_half_adder,
    two_rail_checker_circuit,
)

# The order in which fitness._detections gives a gate's six faults: (line,
# stuck value) with line the output "o" or input "a" or "b".
DETECTION_ORDER = (("o", 0), ("o", 1), ("a", 0), ("a", 1), ("b", 0), ("b", 1))

X = SignalRef.x
G = SignalRef.g


def xor_pair_circuit() -> Circuit:
    """y = x0 XOR x1 checked by rails (XNOR, XOR); fully self-checking."""
    return Circuit(
        2,
        (Gate(TT_XOR, X(0), X(1)), Gate(TT_XNOR, X(0), X(1))),
        (G(0),),
        (G(1), G(0)),
    )


def f_f(circuit: Circuit, target: list[int]) -> float:
    return evaluate_circuit(circuit, target, 10).f_f


class TestFFunction:
    def test_identical_outputs_score_one(self):
        assert f_f(xor_pair_circuit(), [0b0110]) == 1.0

    def test_complemented_output_scores_one(self):
        assert f_f(xor_pair_circuit(), [0b1001]) == 1.0

    def test_constant_output_scores_zero_term(self):
        # q=2: one output perfect, the other constant 0 against a
        # non-constant target; the constant term contributes nothing.
        c = Circuit(
            2,
            (Gate(TT_XOR, X(0), X(0)), Gate(TT_XOR, X(0), X(1))),
            (G(1), G(0)),
            (G(0), G(1)),
        )
        assert f_f(c, [0b0110, 0b0110]) == 0.5

    def test_mismatched_target_width_rejected(self):
        with pytest.raises(ValueError, match="target column count"):
            f_f(xor_pair_circuit(), [0b0110, 0b1010])

    def test_circuit_without_function_outputs_rejected(self):
        with pytest.raises(ValueError, match="no function outputs"):
            evaluate_circuit(two_rail_checker_circuit(), [], 10)

    def test_partial_correlation_between_zero_and_one(self):
        assert 0.0 < f_f(xor_pair_circuit(), [0b0100]) < 1.0

    @pytest.mark.parametrize("sum_xnor", [False, True])
    def test_complemented_output_is_not_perfect_checking(self, sum_xnor):
        # The XNOR half adder is TSC and scores f_f = 1, but y_0 is the
        # complement of the sum.
        target = parse_pla(HALF_ADDER_PLA).columns
        fv = evaluate_circuit(tsc_half_adder(sum_xnor), target, 60)
        assert (fv.f_f, fv.f_st, fv.f_fs) == (1.0, 1.0, 1.0)
        assert fv.computes_target is not sum_xnor
        assert fv.perfect_checking is not sum_xnor


class TestScores:
    def test_constants(self):
        assert K_ST == 25 and K_FS == 200

    def test_unit_values(self):
        assert st_score(0) == 1.0
        assert st_score(1) == pytest.approx(1 / 26, abs=0)
        assert fs_score(0) == 1.0
        assert fs_score(1) == pytest.approx(1 / 201, abs=0)

    def test_strictly_decreasing(self):
        for u in range(5):
            assert st_score(u) > st_score(u + 1)
            assert fs_score(u) > fs_score(u + 1)


class TestCompareLex:
    def vec(self, *vals):
        return FitnessVector(*vals)

    def test_function_fitness_dominates(self):
        a = self.vec(1.0, 0.5, 1.0, 0.9)
        b = self.vec(0.99, 1.0, 1.0, 1.0)
        assert a.key() > b.key()

    def test_parsimony_breaks_ties(self):
        a = self.vec(1.0, 1.0, 1.0, 0.3)
        b = self.vec(1.0, 1.0, 1.0, 0.4)
        assert a.key() < b.key()

    def test_equal_vectors(self):
        a = self.vec(1.0, 1.0, 1.0, 0.3)
        assert a.key() == self.vec(1.0, 1.0, 1.0, 0.3).key()


class TestParsimony:
    def test_empty_circuit(self):
        c = Circuit(2, (), (X(0),), (X(0), X(1)))
        assert evaluate_circuit(c, [0b1010], 60).f_p == 1.0

    def test_value(self):
        c = xor_pair_circuit()
        assert evaluate_circuit(c, [0b0110], 60).f_p == (60 - 2) / 60

    def test_full_circuit_scores_zero(self):
        c = xor_pair_circuit()
        assert evaluate_circuit(c, [0b0110], 2).f_p == 0.0


class TestManifestationPremise:
    def test_and_gate_input_a_stuck_one(self):
        # With (a, b) = (0, 1) an AND's output flips 0 -> 1, i.e. the input
        # fault behaves as output stuck-1 at that word; at (0, 0) the forced
        # input leaves the output unchanged.
        full = 0b1111
        a_vec = 0b1010  # x0 over 2 inputs: bit w holds a at word w
        b_vec = 0b1100  # x1
        and_gate = GATE_EVAL[TT_AND]
        free = and_gate(a_vec, b_vec, full)
        pinned = and_gate(full, b_vec, full)  # input a stuck at 1
        assert free == 0b1000
        changed = pinned ^ free
        w_a0b1 = 2  # word x0=0, x1=1
        w_a0b0 = 0
        assert (changed >> w_a0b1) & 1 == 1
        assert (pinned >> w_a0b1) & 1 == 1  # manifests as stuck-1
        assert (changed >> w_a0b0) & 1 == 0  # unchanged

    @pytest.mark.parametrize("value", range(16))
    def test_pinned_outputs_match_truth_table(self, value):
        # Words 0..3 cover every (a, b) pair and every word is signalled, so
        # each detection mask must be the words where its fault changes the
        # gate's output: the table with the faulty line forced, against the
        # fault-free output.
        full = 0b1111
        a_vec, b_vec = 0b1010, 0b1100
        gate = GATE_EVAL[value]
        free = gate(a_vec, b_vec, full)
        masks = fitness._detections(full, free, a_vec, b_vec, value, full, 1)
        for (line, stuck), mask in zip(DETECTION_ORDER, masks):
            forced = full if stuck else 0
            faulty = {"o": forced,
                      "a": gate(forced, b_vec, full),
                      "b": gate(a_vec, forced, full)}[line]
            assert mask == faulty ^ free, (line, stuck)

    @pytest.mark.parametrize("r", range(3, 7))
    def test_packed_detections_match_one_slot(self, rng, r):
        # The packed readout's one call over every slot of a pass gives each
        # slot's one-slot masks, shifted into that slot: no bit leaks from a
        # neighbouring slot's table or operands.
        slot = 1 << r
        full = (1 << slot) - 1
        code = fitness._ARRAY_CODES[slot >> 3]
        n = 40
        tables = [rng.randrange(16) for _ in range(n)]
        err, o, a, b = ([rng.getrandbits(slot) for _ in range(n)] for _ in range(4))
        repeat = ((1 << n * slot) - 1) // full
        packed = fitness._detections(*(fitness._pack(x, code) for x in (err, o, a, b, tables)),
                                     full, repeat)
        one_slot = [fitness._detections(*fields, full, 1)
                    for fields in zip(err, o, a, b, tables)]
        for i, mask in enumerate(packed):
            assert mask == sum(masks[i] << k * slot for k, masks in enumerate(one_slot))


class TestEvaluateChecking:
    def test_perfect_checker(self):
        c = xor_pair_circuit()
        u_f, u_i, f_st, f_fs = evaluate_checking(c, fault_free_response(c))
        assert (u_f, u_i) == (0, 0)
        assert f_st == 1.0 and f_fs == 1.0

    def test_false_alarm_zeroes_scores(self):
        # Rails wired to the same signal collide on every word.
        c = Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),), (G(0), G(0)))
        u_f, u_i, f_st, f_fs = evaluate_checking(c, fault_free_response(c))
        assert u_f is None and u_i is None
        assert f_st == 0.0 and f_fs == 0.0

    def test_requires_rails(self):
        c = Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),))
        with pytest.raises(ValueError, match="no error rails"):
            evaluate_checking(c, simulate(c))
        with pytest.raises(ValueError, match="no error rails"):
            evaluate_circuit(c, [0b1000], 10)

    def test_single_undetected_fault_scores_one_26th(self):
        # z1 is a constant-0 gate, z0 = x1, applied words restricted to x1=1:
        # only stuck-0 at the constant gate can never collide the rails.
        c = Circuit(
            2,
            (Gate(TT_XOR, X(0), X(0)),),
            (G(0),),
            (X(1), G(0)),
        )
        mask = 0b1100
        u_f, u_i, f_st, f_fs = evaluate_checking(c, fault_free_response(c), mask)
        assert u_f == 1
        assert f_st == 1 / 26
        assert len(verify_tsc(c, mask).undetected) == 1

    def test_single_violation_scores_one_201st(self):
        # Checked AND plus an unchecked OR output; at the single applied word
        # (0, 0) only the OR's stuck-1 produces silent incorrect output.
        c = Circuit(
            2,
            (
                Gate(TT_AND, X(0), X(1)),
                Gate(TT_NAND, X(0), X(1)),
                Gate(TT_OR, X(0), X(1)),
            ),
            (G(0), G(2)),
            (G(1), G(0)),
        )
        mask = 0b0001
        u_f, u_i, f_st, f_fs = evaluate_checking(c, fault_free_response(c), mask)
        assert u_i == 1
        assert f_fs == 1 / 201
        assert len(verify_fs(c, FaultScope.OUTPUTS_ONLY, word_mask=mask).violations) == 1

    def test_matches_brute_force_on_random_circuits(self, rng):
        # The cross-implementation oracle: fast-path counts equal direct
        # simulation of the full six-faults-per-gate set.
        checked = 0
        while checked < 60:
            c = random_circuit(rng, r=3, n_gates=rng.randrange(1, 9), q=2, rails="complement")
            resp = fault_free_response(c)
            u_f, u_i, _, _ = evaluate_checking(c, resp)
            assert u_f == len(verify_tsc(c).undetected)
            assert u_i == len(verify_fs(c, FaultScope.OUTPUTS_ONLY).violations)
            checked += 1


class TestEvaluateCircuit:
    def test_all_metrics_computed_even_when_function_wrong(self, rng):
        c = xor_pair_circuit()
        fv = evaluate_circuit(c, [0b0000 ^ 0b1010], max_gates=10)
        assert fv.f_f < 1.0
        assert fv.f_st == 1.0  # checking still evaluated
        assert fv.live_gates == 2

    def test_deterministic(self, rng):
        c = random_circuit(rng, r=3, n_gates=6, q=2, rails="random")
        target = [0b10101010, 0b11001100]
        a = evaluate_circuit(c, target, 20)
        b = evaluate_circuit(c, target, 20)
        assert a == b

    def test_evaluate_pinned(self):
        # One sha256 over every FitnessVector field, recorded while fitness
        # still scored circuits without rails: any change to a score or a
        # count changes every later search.  Half the genotypes are random (their
        # rails mostly collide), half are mutated encodings of duplication
        # baselines (mostly checked in full); odd ones are scored under a
        # random word mask.  The last layout is decod's.
        layouts = ((2, 2, 4, 240), (3, 2, 4, 200), (4, 3, 5, 200),
                   (4, 2, 5, 100), (5, 4, 6, 160), (5, 16, 8, 40))
        decod = benchmark_baselines()["decod"]
        digest = hashlib.sha256()
        seen = Counter()

        def score(circuit, target, max_gates, mask):
            fv = evaluate_circuit(circuit, target, max_gates, mask)
            # The digest pins the fields from before computes_target, which
            # the oracle checks instead.
            *pinned, computes_target = astuple(fv)
            digest.update(repr(tuple(pinned)).encode())
            assert computes_target == verify_tsc(circuit, mask, target).computes_target
            seen["computes"] += computes_target
            seen["checked" if fv.u_f is not None else "unchecked"] += 1

        for i, (r, q, b, n) in enumerate(layouts):
            lay = GenomeLayout(r=r, q=q, b=b)
            draw = random.Random(300 + i)
            target = [draw.getrandbits(1 << r) for _ in range(q)]
            for k in range(n):
                if k % 4 < 2:
                    g = Genotype(draw.getrandbits(lay.total_len), lay)
                else:
                    baseline = decod if q == 16 else build_duplication_baseline(
                        random_circuit(draw, r=r, n_gates=draw.randrange(1, 4), q=q))
                    g = encode_seed(baseline, lay, draw)[0]
                    for _ in range(draw.randrange(3)):
                        g = mutate_bit(g, LockMask.empty(), draw)
                mask = draw.getrandbits(1 << r) if k % 2 else None
                score(decode(g, draw), target, lay.max_gates, mask)
        draw = random.Random(400)
        for k in range(240):
            r = draw.choice((2, 3, 5))
            c = random_circuit(draw, r=r, n_gates=draw.randrange(0, 25),
                               q=draw.randrange(1, 4),
                               rails=("random", "complement")[k // 2 % 2])
            mask = draw.getrandbits(1 << r) if k % 2 else None
            score(c, [draw.getrandbits(1 << r) for _ in range(c.q)], 30, mask)
        # Of the 514 checked, 443 leave a fault undetected and 182 an
        # incorrect word unsignalled.  28 of all 1180 compute their target.
        assert seen == {"checked": 514, "unchecked": 666, "computes": 28}
        assert digest.hexdigest() == (
            "a99f894c923b560512c91f061405010d5f0d3b22473e7b448970fa389c9ef669"
        )


def assert_matches_oracle(c: Circuit, mask: int | None = None) -> bool:
    """Both fitness entry points against brute force under one word mask.

    Returns whether counts were compared; when the fault-free rails collide
    both sides must say so instead.
    """
    u_f, u_i, _, _ = evaluate_checking(c, fault_free_response(c), mask)
    fv = evaluate_circuit(c, [0] * c.q, max_gates=max(1, len(c.gates)), word_mask=mask)
    assert (fv.u_f, fv.u_i) == (u_f, u_i)
    assert fv.live_gates == len(c.gates)
    fs = verify_fs(c, FaultScope.OUTPUTS_ONLY, word_mask=mask)
    if fs.false_alarm:
        assert u_f is None and u_i is None
        return False
    assert u_f == len(verify_tsc(c, mask).undetected)
    assert u_i == len(fs.violations)
    return True


def benchmark_baselines() -> dict[str, Circuit]:
    paths = sorted(BENCH_DIR.glob("*.blif"))
    assert len(paths) == 8
    return {p.stem: build_duplication_baseline(parse_blif(p.read_text())) for p in paths}


class TestDifferentialOracle:
    """Fast-path counts against verify_tsc and verify_fs(OUTPUTS_ONLY) on wider,
    masked, degenerate, benchmark and evolved circuits."""

    def test_random_circuits_with_masks(self, rng):
        seen = dict.fromkeys(
            ("checked", "collide", "masked", "input_output", "input_rail"), 0
        )
        for _ in range(160):
            r = rng.choice((2, 4, 5, 6, 7))
            c = random_circuit(rng, r=r, n_gates=rng.randrange(0, 41),
                               q=rng.randrange(1, 4),
                               rails=rng.choice(("complement", "random")))
            mask = rng.getrandbits(1 << r) if rng.random() < 0.5 else None
            checked = assert_matches_oracle(c, mask)
            seen["checked" if checked else "collide"] += 1
            if checked:
                seen["masked"] += mask is not None
                seen["input_output"] += any(s < c.r for s in c.outputs)
                seen["input_rail"] += any(s < c.r for s in c.rails)
        assert all(seen.values()), seen

    def test_circuit_without_live_gates(self):
        c = Circuit(2, (), (X(0),), (X(0), X(1)))
        assert assert_matches_oracle(c, 0b0110)  # the words where x0 != x1
        fv = evaluate_circuit(c, [0b1010], max_gates=4, word_mask=0b0110)
        assert (fv.u_f, fv.u_i, fv.live_gates) == (0, 0, 0)

    def test_benchmark_duplication_baselines(self, rng):
        for c in benchmark_baselines().values():
            assert assert_matches_oracle(c)
            assert_matches_oracle(c, rng.getrandbits(1 << c.r))

    def test_half_adder_search_champions(self):
        seed = Circuit(2, (Gate(TT_XOR, X(0), X(1)), Gate(TT_AND, X(0), X(1))), (G(0), G(1)))
        target = TargetSpec(2, 2, tuple(simulate(seed).outputs))
        layout = GenomeLayout(r=2, q=2, b=4)
        for rng_seed in (1, 2, 3):
            config = IslandConfig(layout=layout, rng_seed=rng_seed, max_evals=1500,
                                  stop_on_goal=False)
            assert assert_matches_oracle(run(config, target, seed).champion.circuit)

    def test_several_passes_give_the_same_counts(self, rng, monkeypatch):
        baseline = benchmark_baselines()["decod"]
        slots_bits = len(baseline.gates) << baseline.r
        assert slots_bits <= fitness.PASS_BITS  # one pass at the shipped cap
        masks = (None, rng.getrandbits(1 << baseline.r))
        one_pass = [evaluate_checking(baseline, fault_free_response(baseline), m)
                    for m in masks]
        monkeypatch.setattr(fitness, "PASS_BITS", 128)  # four gates per pass
        for m, expected in zip(masks, one_pass):
            assert evaluate_checking(baseline, fault_free_response(baseline), m) == expected
        assert assert_matches_oracle(baseline, masks[1])

    @pytest.mark.parametrize("gates_per_pass", (1, 3))
    def test_pass_boundaries_on_random_circuits(self, rng, monkeypatch, gates_per_pass):
        # One gate per pass comes from a cap of 1 bit, below one gate's
        # width, so the pass size is clamped; three gates per pass leaves
        # runs that split at odd gates and a short last pass.  A gate's slot
        # is 2**r bits.
        checked = 0
        for _ in range(60):
            r = rng.randrange(1, 8)
            c = random_circuit(rng, r=r, n_gates=rng.randrange(4, 25),
                               q=rng.randrange(1, 4), rails="complement")
            mask = rng.getrandbits(1 << r)
            cap = 1 if gates_per_pass == 1 else gates_per_pass << r
            monkeypatch.setattr(fitness, "PASS_BITS", cap)
            checked += assert_matches_oracle(c, mask) and len(c.gates) > gates_per_pass
        assert checked >= 30


@pytest.fixture(params=(0, 1 << 20), ids=("packed", "per_slot"))
def readout(request, monkeypatch):
    """Force one readout on every pass: the packed one (threshold 0) or the
    per-slot one (a threshold above any slot count)."""
    monkeypatch.setattr(fitness, "PACKED_READOUT_SLOTS", request.param)


@pytest.mark.usefixtures("readout")
class TestEachReadout(TestDifferentialOracle):
    """The differential oracle tests again, with each readout forced on every
    pass; at the default threshold a pass takes whichever its busy slots pick."""

    test_matches_brute_force_on_random_circuits = (
        TestEvaluateChecking.test_matches_brute_force_on_random_circuits
    )


def test_readout_follows_busy_slots(monkeypatch):
    # At the default threshold the decod baseline (146 gates, every slot
    # busy) is read packed, in one pass of 4-byte slots.  The checked mult2
    # seed (r = 4, 13 gates, every slot busy) is read packed, in 2-byte
    # slots, from 13 busy slots up, and slot by slot above that.
    pack = fitness._pack
    sizes = []
    monkeypatch.setattr(fitness, "_pack", lambda items, code: sizes.append(
        array(code).itemsize) or pack(items, code))
    decod = benchmark_baselines()["decod"]
    assert assert_matches_oracle(decod)
    assert sizes == [4, 4]  # evaluate_checking and evaluate_circuit
    mult2 = checked_mult2()
    monkeypatch.setattr(fitness, "PACKED_READOUT_SLOTS", 13)
    assert assert_matches_oracle(mult2)
    assert sizes == [4, 4, 2, 2]
    monkeypatch.setattr(fitness, "PACKED_READOUT_SLOTS", 14)
    assert assert_matches_oracle(mult2)
    assert sizes == [4, 4, 2, 2]

