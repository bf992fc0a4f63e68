import random

import pytest

from tscsynth import sim, verify
from tscsynth.fitness import evaluate_checking, fault_free_response
from tscsynth.genome import GenomeLayout, Genotype, Reading, decode
from tscsynth.netlist import (
    Circuit,
    Fault,
    FaultSite,
    Gate,
    SignalRef,
    TT_AND,
    TT_BUF_A,
    TT_NOT_A,
    TT_NOR,
    TT_ONE,
    TT_OR,
    TT_XNOR,
    TT_XOR,
    TT_ZERO,
    build_duplication_baseline,
)
from tscsynth.formats import parse_blif, parse_pla
from tscsynth.sim import FaultScope, input_patterns, simulate
from tscsynth.verify import verify_fs, verify_tsc

from conftest import (
    BENCH_DIR,
    HALF_ADDER_PLA,
    enumerate_faults,
    full_wave_report,
    random_circuit,
    tsc_half_adder,
    two_rail_checker_circuit,
)

X = SignalRef.x
G = SignalRef.g


def check_theorem2(circuit: Circuit, word_mask: int | None = None) -> bool:
    """True iff fault-secureness over output faults implies it over all faults.

    Expected to hold for every circuit; a counterexample indicates a
    simulator defect.
    """
    over_outputs = verify_fs(circuit, FaultScope.OUTPUTS_ONLY, word_mask)
    if not over_outputs.is_fs:
        return True
    return verify_fs(circuit, FaultScope.ALL, word_mask).is_fs


def identity_seed() -> Circuit:
    # Outputs wired straight to the inputs; the duplication baseline is then
    # nothing but one checker cell fed by a full dual-rail codespace.
    return Circuit(2, (), (X(0), X(1)))


class TestVerifySt:
    def test_constant_rails_not_self_testing(self):
        # Rail gates stuck at their constant value can never be noticed.
        c = Circuit(
            1,
            (Gate(TT_ZERO, X(0), X(0)), Gate(TT_ONE, X(0), X(0))),
            (X(0),),
            (G(0), G(1)),
        )
        result = verify_tsc(c)
        assert not result.is_st
        assert result.undetected

    def test_identity_duplication_baseline_is_self_testing(self):
        # A 2-in/2-out identity exercises the full output codespace.
        baseline = build_duplication_baseline(identity_seed())
        result = verify_tsc(baseline)
        assert result.is_st, [str(f) for f in result.undetected]

    def test_no_live_gates_vacuously_self_testing(self):
        c = Circuit(2, (), (X(0),), (X(0), X(1)))
        assert verify_tsc(c).is_st

    def test_requires_rails(self):
        with pytest.raises(ValueError):
            verify_tsc(identity_seed())


class TestVerifyFs:
    def test_fault_feeding_only_rail_never_violates(self):
        # Faults on the XNOR rail cannot corrupt the function output.
        c = Circuit(
            2,
            (Gate(TT_XOR, X(0), X(1)), Gate(TT_XNOR, X(0), X(1))),
            (G(0),),
            (G(1), G(0)),
        )
        result = verify_fs(c, FaultScope.ALL)
        assert result.is_fs
        assert not result.false_alarm

    def test_unchecked_output_violates(self):
        # y = x0 through a buffer, rails from separate logic that never sees
        # the fault: stuck-0 output is silently wrong at x0 = 1.
        c = Circuit(
            1,
            (
                Gate(TT_BUF_A, X(0), X(0)),
                Gate(TT_BUF_A, X(0), X(0)),
                Gate(TT_NOT_A, X(0), X(0)),
            ),
            (G(0),),
            (G(2), G(1)),
        )
        result = verify_fs(c, FaultScope.OUTPUTS_ONLY)
        assert not result.is_fs
        assert (Fault(FaultSite.OUTPUT, 0, 0), 1) in result.violations

    def test_duplication_baselines_always_fault_secure(self, rng):
        for _ in range(15):
            seed = random_circuit(rng, r=3, n_gates=5, q=rng.randrange(1, 4))
            baseline = build_duplication_baseline(seed)
            result = verify_fs(baseline, FaultScope.ALL)
            assert result.is_fs, [str(v[0]) for v in result.violations]

    def test_false_alarm_reported_distinctly(self):
        c = Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),), (G(0), G(0)))
        result = verify_fs(c)
        assert not result.is_fs
        assert result.false_alarm
        assert result.violations == []


class TestVerifyTsc:
    def test_xor_pair_is_tsc(self):
        c = Circuit(
            2,
            (Gate(TT_XOR, X(0), X(1)), Gate(TT_XNOR, X(0), X(1))),
            (G(0),),
            (G(1), G(0)),
        )
        report = verify_tsc(c)
        assert report.is_tsc

    def test_false_alarm_word_fails_tsc(self):
        c = Circuit(2, (Gate(TT_AND, X(0), X(1)),), (G(0),), (G(0), G(0)))
        assert not verify_tsc(c).is_tsc

    def test_seed_without_checking_not_tsc(self):
        # Rails bolted onto an unchecked function are not self-testing.
        c = Circuit(
            2,
            (Gate(TT_AND, X(0), X(1)), Gate(TT_XOR, X(0), X(1)), Gate(TT_XNOR, X(0), X(1))),
            (G(0),),
            (G(2), G(1)),
        )
        report = verify_tsc(c)
        assert not report.is_tsc
        assert not report.is_st or not report.is_fs

    def test_target_check_catches_complemented_output(self):
        target = parse_pla(HALF_ADDER_PLA).columns
        good, bad = tsc_half_adder(), tsc_half_adder(sum_xnor=True)
        assert verify_tsc(good, None, target).computes_target is True
        report = verify_tsc(bad, None, target)
        # TSC as a checking circuit, but y_0 is XNOR, not XOR.
        assert report.is_tsc and report.computes_target is False
        assert "computes target=False" in report.summary()
        assert verify_tsc(bad).computes_target is None
        assert "computes target" not in verify_tsc(bad).summary()

    def test_target_compared_on_applied_words_only(self):
        # Only y_1 (AND) is right everywhere; y_0 is wrong on every word.
        target = parse_pla(HALF_ADDER_PLA).columns
        bad = tsc_half_adder(sum_xnor=True)
        assert verify_tsc(bad, 0b0000, target).computes_target is True
        for word in range(4):
            assert verify_tsc(bad, 1 << word, target).computes_target is False

    def test_target_width_must_match_outputs(self):
        with pytest.raises(ValueError, match="target has 1 columns"):
            verify_tsc(tsc_half_adder(), None, [0b0110])

    def test_perfect_fitness_implies_verified_tsc(self, rng):
        # Executable closure: whenever the fast path scores (1, 1, 1) the
        # brute-force verifier must agree the circuit is TSC.
        found = 0
        trials = 0
        while found < 5 and trials < 4000:
            trials += 1
            c = random_circuit(rng, r=2, n_gates=rng.randrange(2, 7), q=1, rails="random")
            resp = fault_free_response(c)
            u_f, u_i, f_st, f_fs = evaluate_checking(c, resp)
            if f_st == 1.0 and f_fs == 1.0:
                found += 1
                assert verify_tsc(c).is_tsc
        assert found > 0


def duplication_baseline(name: str) -> Circuit:
    return build_duplication_baseline(parse_blif((BENCH_DIR / f"{name}.blif").read_text()))


def changed_reads(circuit: Circuit, first: int, last: int) -> int:
    """How many gates from first on read an index that a fault of gates
    first..last-1 can change: a forward scan over the sources."""
    reached = {circuit.r + g for g in range(first, last)}
    count = 0
    for k in range(first, len(circuit.tt)):
        if circuit.src_a[k] in reached or circuit.src_b[k] in reached:
            count += 1
            reached.add(circuit.r + k)
    return count


class TestOnePass:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Every wave the oracle runs: None for the fault-free one, and for a
        packed pass (first, last, wide, narrow): its run of gates, the gate
        evaluations over the packed int and those over one 2**r-bit slot."""
        counted = []
        values, fault_pass = verify.values, verify.fault_pass
        widths = []

        def counting(gate):
            def evaluate(a, b, full):
                widths.append(full.bit_length())
                return gate(a, b, full)
            return evaluate

        def free_wave(circuit):
            counted.append(None)
            return values(circuit)

        def packed_pass(circuit, free, first, last):
            widths.clear()
            v = fault_pass(circuit, free, first, last)
            narrow = widths.count(1 << circuit.r)
            counted.append((first, last, len(widths) - narrow, narrow))
            return v

        monkeypatch.setattr(sim, "GATE_EVAL", tuple(map(counting, sim.GATE_EVAL)))
        monkeypatch.setattr(verify, "values", free_wave)
        monkeypatch.setattr(verify, "fault_pass", packed_pass)
        return counted

    def test_one_simulation_per_fault(self, calls):
        baseline = duplication_baseline("decod")
        n, width = len(baseline.tt), 1 << baseline.r
        assert n == 146
        calls.clear()
        verify_fs(baseline)
        assert calls[0] is None and None not in calls[1:]  # one fault-free wave
        step = verify.FAULT_PASS_BITS // (6 * width)
        # Consecutive runs of gates, each fault in exactly one slot.
        assert [c[:2] for c in calls[1:]] == [
            (first, min(first + step, n)) for first in range(0, n, step)]
        assert len(calls) > 2
        for first, last, wide, narrow in calls[1:]:
            # Each gate at most once over the packed int: those that read
            # an index the pass changed.  Per faulted gate, the table over
            # each input stuck-at, in one slot.
            assert wide == changed_reads(baseline, first, last) <= n - first
            assert narrow == 4 * (last - first)
        calls.clear()
        verify_tsc(baseline)
        ours = list(calls)
        calls.clear()
        verify_tsc(baseline, None, parse_pla((BENCH_DIR / "decod.pla").read_text()).columns)
        assert calls == ours  # the function check reads the same passes

    @pytest.mark.parametrize("check", [verify_fs, verify_tsc])
    def test_no_rails_rejected_before_simulating(self, calls, check):
        with pytest.raises(ValueError, match="no error rails"):
            check(identity_seed())
        assert calls == []

    def test_false_alarm_keeps_undetected_and_drops_violations(self):
        # Rails (x0, 1) collide fault-free wherever x0 = 1.  The rail buffer
        # stuck at 0 is never signalled, and the AND output stuck at 1 is
        # silently wrong at words 0 and 2, which no report lists.
        c = Circuit(
            2,
            (
                Gate(TT_AND, X(0), X(1)),
                Gate(TT_BUF_A, X(0), X(0)),
                Gate(TT_ONE, X(0), X(0)),
            ),
            (G(0),),
            (G(1), G(2)),
        )
        report = verify_tsc(c)
        assert report.false_alarm
        assert (report.is_tsc, report.is_st, report.is_fs) == (False, False, False)
        assert Fault(FaultSite.OUTPUT, 1, 0) in report.undetected
        assert report.violations == []
        fs = verify_fs(c)
        assert (fs.is_fs, fs.violations, fs.false_alarm) == (False, [], True)
        assert fs.undetected == report.undetected


def assert_matches_full_wave(circuit: Circuit, rng: random.Random, target=None) -> None:
    """Every report equals the one-full-wave-per-fault reference field for
    field, list order included: both scopes, with no mask and with a random
    word mask, and verify_tsc with a target (random columns by default)."""
    words = 1 << circuit.r
    if target is None:
        target = tuple(rng.getrandbits(words) for _ in range(circuit.q))
    for mask in (None, rng.getrandbits(words)):
        for scope in FaultScope:
            assert verify_fs(circuit, scope, mask) == full_wave_report(circuit, scope, mask)
        assert verify_tsc(circuit, mask) == full_wave_report(circuit, FaultScope.ALL, mask)
    assert verify_tsc(circuit, None, target) == full_wave_report(
        circuit, FaultScope.ALL, None, target)


class TestAgainstFullWave:
    """The packed fault passes against one full wave per fault (conftest)."""

    @pytest.mark.parametrize("r", [*range(1, 7), 10])
    def test_random_circuits(self, rng, r):
        if r == 10:
            # One gate's six 2**10-bit slots exceed FAULT_PASS_BITS: a pass
            # per gate.
            c = random_circuit(rng, r=r, n_gates=20, q=3, rails="complement")
            assert len(c.tt) == 10
            assert_matches_full_wave(c, rng)
            return
        for i in range(8):
            c = random_circuit(rng, r=r, n_gates=rng.randrange(0, 14), q=rng.randrange(1, 4),
                               rails=("random", "complement")[i % 2])
            assert_matches_full_wave(c, rng)

    def test_decoded_genotypes_with_repairs(self, rng):
        for lay in (GenomeLayout(r=2, q=2, b=3), GenomeLayout(r=3, q=2, b=4)):
            found = 0
            while found < 10:
                reading = Reading()
                c = decode(Genotype(rng.getrandbits(lay.total_len), lay), rng, reading)
                if reading.repairs:
                    found += 1
                    assert_matches_full_wave(c, rng)

    @pytest.mark.parametrize(
        "name", ["b1", "c17", "cm138a", "cm42a", "cm82a", "decod", "mult2", "rd53"])
    def test_duplication_baselines(self, rng, name):
        target = parse_pla((BENCH_DIR / f"{name}.pla").read_text()).columns
        baseline = duplication_baseline(name)
        assert verify_tsc(baseline, None, target).computes_target
        assert_matches_full_wave(baseline, rng, target)

    @pytest.mark.parametrize("slots", [1, 18])
    def test_narrow_passes(self, rng, monkeypatch, slots):
        # A pass cap of one 2**r-bit slot takes one gate per pass; 18 slots
        # take three gates.
        decod = duplication_baseline("decod")
        wide = random_circuit(rng, r=6, n_gates=30, q=2, rails="complement")
        assert (len(decod.tt), len(wide.tt)) == (146, 10)
        runs = set()
        fault_pass = verify.fault_pass

        def recording_pass(circuit, free, first, last):
            runs.add(last - first)
            return fault_pass(circuit, free, first, last)

        monkeypatch.setattr(verify, "fault_pass", recording_pass)
        for c in (decod, wide):
            monkeypatch.setattr(verify, "FAULT_PASS_BITS", slots << c.r)
            assert_matches_full_wave(c, rng)
        assert max(runs) == max(1, slots // 6)

    def test_gates_reaching_one_rail_or_one_output(self, rng):
        # g0 reaches only y_0, g1 only z_1 and g2 only z_0; the rails are
        # complementary fault-free.  No fault of g0 reaches a rail, so all
        # six go undetected, and every word where one flips y_0 is a
        # violation.
        c = Circuit(
            2,
            (
                Gate(TT_AND, X(0), X(1)),
                Gate(TT_OR, X(0), X(1)),
                Gate(TT_NOR, X(0), X(1)),
            ),
            (G(0),),
            (G(2), G(1)),
        )
        report = verify_tsc(c)
        assert report.undetected[:6] == enumerate_faults(c, FaultScope.ALL)[:6]
        assert {fault.gate for fault, _ in report.violations} == {0}
        assert_matches_full_wave(c, rng)


def rail_probe(r: int) -> Circuit:
    """z_1 = x0 and z_0 = XOR(x0, 1), from gate 0 (BUF), gate 1 (ONE) and
    gate 2 (XOR).  Gate 1 stuck at 0 and gate 2's input b stuck at 0 collide
    the rails on every word; gate 2's output stuck at 0 and input a stuck at
    1 where x0 = 0 (word 0, the lowest of a slot), its output stuck at 1 and
    input a stuck at 0 where x0 = 1 (the highest word).  Every other fault,
    gate 0's among them, is never signalled."""
    return Circuit(
        r,
        (Gate(TT_BUF_A, X(0), X(0)), Gate(TT_ONE, X(0), X(0)), Gate(TT_XOR, G(0), G(1))),
        (G(0),),
        (G(2), G(0)),
    )


class TestUndetectedReadout:
    """The per-pass readout of undetected faults at the edges of a slot: a
    fault signalled only at its slot's lowest or highest word, a fault
    signalled everywhere followed by one never signalled, and passes with
    every slot or no slot undetected; 2-bit and 32-bit slots, under the
    default cap and one gate per pass."""

    @pytest.fixture(params=[None, 1], ids=["default-cap", "one-slot-cap"])
    def cap(self, request, monkeypatch):
        def set_for(circuit: Circuit) -> None:
            if request.param is not None:
                monkeypatch.setattr(verify, "FAULT_PASS_BITS", request.param << circuit.r)
        return set_for

    @staticmethod
    def undetected(circuit: Circuit, mask: int | None, detected) -> list[Fault]:
        report = verify_tsc(circuit, mask)
        assert report == full_wave_report(circuit, FaultScope.ALL, mask)
        out = report.undetected
        assert out == [f for f in enumerate_faults(circuit, FaultScope.ALL)
                       if (f.site, f.gate, f.stuck) not in detected]
        return out

    @pytest.mark.parametrize("r", [1, 5])
    def test_signalled_at_one_end_of_the_slot(self, cap, r):
        c = rail_probe(r)
        cap(c)
        out, a, b = FaultSite.OUTPUT, FaultSite.INPUT_A, FaultSite.INPUT_B
        everywhere = {(out, 1, 0), (b, 2, 0)}
        self.undetected(c, 1, everywhere | {(out, 2, 0), (a, 2, 1)})
        self.undetected(c, 1 << ((1 << r) - 1), everywhere | {(out, 2, 1), (a, 2, 0)})
        # Gate 1 stuck at 0 fills its slot; the next slot, stuck at 1, is
        # empty.
        self.undetected(c, None,
                        everywhere | {(out, 2, 0), (out, 2, 1), (a, 2, 0), (a, 2, 1)})

    @pytest.mark.parametrize("r", [1, 5])
    def test_every_slot_or_no_slot_undetected(self, cap, r):
        c = rail_probe(r)
        cap(c)
        assert self.undetected(c, 0, set()) == enumerate_faults(c, FaultScope.ALL)
        # y = z_1 = x0 and z_0 = NOT x0: every output fault is signalled.
        pair = Circuit(r, (Gate(TT_BUF_A, X(0), X(0)), Gate(TT_NOT_A, X(0), X(0))),
                       (G(0),), (G(1), G(0)))
        cap(pair)
        report = verify_fs(pair, FaultScope.OUTPUTS_ONLY)
        assert report.undetected == []
        assert report == full_wave_report(pair, FaultScope.OUTPUTS_ONLY)


class TestSharedFaultTable:
    """Reports list their faults from one table in slot order, shared across
    calls.  It grows by rebinding to a longer tuple that starts with the old
    one's objects, to the circuit's gates or twice its own, whichever is
    more."""

    @pytest.mark.parametrize("slots", [None, 1], ids=["default-cap", "one-slot-cap"])
    def test_reports_share_faults_across_calls(self, monkeypatch, slots):
        # y = z_1 = AND(x0, x1) and z_0 = NOT(y): a fault of the AND output
        # flips both rails, so it is undetected and silently wrong.
        pair = Circuit(2, (Gate(TT_AND, X(0), X(1)), Gate(TT_NOT_A, G(0), G(0))),
                       (G(0),), (G(1), G(0)))
        decod = duplication_baseline("decod")
        monkeypatch.setattr(verify, "_FAULTS", ())
        tables, faults = [], {}
        # 2 gates, 3 (the table doubles to 4), 146 (it grows to 146), 2.
        for c, mask in ((pair, None), (rail_probe(1), None), (decod, 0x5A5A5A5A),
                        (pair, None)):
            if slots is not None:
                # One gate per pass: every pass but the first has a nonzero
                # offset into the table.
                monkeypatch.setattr(verify, "FAULT_PASS_BITS", slots << c.r)
            report = verify_tsc(c, mask)
            assert report == full_wave_report(c, FaultScope.ALL, mask)
            listed = report.undetected + [f for f, _ in report.violations]
            assert listed
            for f in listed:
                assert faults.setdefault(f, f) is f  # one object per fault
            tables.append(verify._FAULTS)
        assert [len(t) for t in tables] == [12, 24, 6 * 146, 6 * 146]
        assert list(tables[-1]) == enumerate_faults(decod, FaultScope.ALL)
        for old, new in zip(tables, tables[1:]):
            assert all(a is b for a, b in zip(old, new))


class TestAppliedWords:
    """Verdicts of the duplication baselines on part of the input words."""

    @pytest.mark.parametrize("name, mask, undetected", [
        ("c17", 0xFFFF, 16),
        ("decod", 0xFFFF, 616),
        ("decod", 0x5A5A5A5A, 186),
        ("rd53", 0x5A5A5A5A, 8),
        ("c17", 0xFFFFFFFF, 0),
        ("rd53", 0xFFFFFFFF, 0),
    ])
    def test_undetected_counts_pinned(self, name, mask, undetected):
        report = verify_tsc(duplication_baseline(name), mask)
        assert len(report.undetected) == undetected
        assert report.is_tsc is (undetected == 0)
        assert (report.is_fs, report.false_alarm) == (True, False)

    def test_output_faults_of_decod(self, rng):
        baseline = duplication_baseline("decod")
        for mask in (None, 0x5A5A5A5A):
            assert (verify_fs(baseline, FaultScope.OUTPUTS_ONLY, mask)
                    == full_wave_report(baseline, FaultScope.OUTPUTS_ONLY, mask))


class TestTheorem2:
    def test_holds_on_random_circuits(self, rng):
        for _ in range(120):
            c = random_circuit(
                rng, r=rng.randrange(1, 5), n_gates=rng.randrange(0, 9), q=2,
                rails="random",
            )
            assert check_theorem2(c)

    def test_holds_on_baselines(self, rng):
        for _ in range(10):
            seed = random_circuit(rng, r=3, n_gates=4, q=2)
            assert check_theorem2(build_duplication_baseline(seed))

    def test_vacuous_when_not_fs_over_output_faults(self):
        c = Circuit(
            1,
            (
                Gate(TT_BUF_A, X(0), X(0)),
                Gate(TT_BUF_A, X(0), X(0)),
                Gate(TT_NOT_A, X(0), X(0)),
            ),
            (G(0),),
            (G(2), G(1)),
        )
        assert not verify_fs(c, FaultScope.OUTPUTS_ONLY).is_fs
        assert check_theorem2(c)


class TestCodespace:
    """The oracle's undetected list shows which checker faults of a
    duplication baseline its seed's output codespace leaves untestable: the
    checker is every gate after the seed and its copy."""

    def test_full_codespace_has_no_undetectable_checker_faults(self):
        seed = identity_seed()
        report = verify_tsc(build_duplication_baseline(seed))
        assert simulate(seed).outputs == input_patterns(2)  # all 4 patterns
        assert report.is_st and report.undetected == []

    def test_constant_output_starves_the_tree(self):
        # One output never moves, so checker faults needing its other value
        # can never be exercised.
        seed = Circuit(
            2,
            (Gate(TT_BUF_A, X(0), X(0)), Gate(TT_ZERO, X(0), X(1))),
            (G(0), G(1)),
        )
        report = verify_tsc(build_duplication_baseline(seed))
        assert not report.is_st
        assert any(f.gate >= 2 * len(seed.tt) for f in report.undetected)

    def test_checker_cell_tsc_over_valid_codespace(self):
        # The 6-gate two-rail checker, fed every valid dual-rail word, is
        # totally self-checking by exhaustive enumeration.
        cell = two_rail_checker_circuit()
        mask = 0
        for w in range(16):
            a_valid = ((w >> 0) & 1) != ((w >> 1) & 1)
            b_valid = ((w >> 2) & 1) != ((w >> 3) & 1)
            if a_valid and b_valid:
                mask |= 1 << w
        report = verify_tsc(cell, word_mask=mask)
        assert report.is_tsc
