import json
import random
from pathlib import Path

import pytest

from tscsynth.cli import main
from tscsynth.evolve import POPULATION_SIZE
from tscsynth.formats import parse_blif, parse_pla, read_native, write_native
from tscsynth.genome import GenomeLayout, Genotype, encode_seed, seed_lock_mask
from tscsynth.netlist import build_duplication_baseline
from tscsynth.verify import verify_tsc

from conftest import BENCH_DIR, HALF_ADDER_PLA, checked_mult2, tsc_half_adder


def bench(name: str) -> str:
    return str(BENCH_DIR / name)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag_exits_2(self):
        assert run_cli("verify") == 2

    def test_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text("11 1\n")
        code = run_cli(
            "evolve", "--target", str(bad), "--seed", bench("c17.blif"),
            "--budget-evals", "0",
        )
        assert code == 2

    def test_pla_directive_without_count_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text(".i\n.o 1\n1 1\n.e\n")
        code = run_cli(
            "evolve", "--target", str(bad), "--seed", bench("c17.blif"),
            "--budget-evals", "0",
        )
        assert code == 2
        assert "needs one count" in capsys.readouterr().err

    def test_pla_type_without_on_set_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pla"
        bad.write_text(".i 2\n.o 1\n.type r\n11 1\n.e\n")
        code = run_cli(
            "evolve", "--target", str(bad), "--seed", bench("c17.blif"),
            "--budget-evals", "0",
        )
        assert code == 2
        assert "PLA .type must be one of" in capsys.readouterr().err

    def test_circuit_with_too_many_inputs_exits_2(self, tmp_path, capsys):
        # Verifying it would allocate 2**40-bit vectors.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"r": 40, "gates": [], "y": ["x0"], "z": ["x0", "x1"]}))
        assert run_cli("verify", "--circuit", str(path)) == 2
        assert "circuit has 40 inputs; at most 16" in capsys.readouterr().err


class TestFileErrors:
    # A path that cannot be read or written exits 2 through main's one error
    # line, like any other input error; exit 1 is kept for verify's verdict.
    @pytest.mark.parametrize("argv", [
        ["verify", "--circuit", "{dir}"],
        ["evolve", "--target", "{dir}", "--seed", bench("c17.blif"),
         "--budget-evals", "0"],
        ["baseline", "--seed", bench("c17.blif"), "--out", "{file}/x.json"],
        ["export", "--circuit", "{circuit}", "--dot", "{file}/x.dot"],
    ])
    def test_unusable_path_exits_2(self, tmp_path, capsys, argv):
        circuit = tmp_path / "c.json"
        circuit.write_text(write_native(parse_blif(HALF_ADDER_BLIF)))
        (tmp_path / "file").write_text("")
        paths = {"dir": tmp_path, "file": tmp_path / "file", "circuit": circuit}
        assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unusable_out_exits_2_before_the_search(self, tmp_path, capsys, monkeypatch):
        def search(*args, **kwargs):
            pytest.fail("the search ran")

        # The engine makes --out before it populates the first island.
        monkeypatch.setattr("tscsynth.evolve.Island.populate", search)
        (tmp_path / "file").write_text("")
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--islands", "1",
            "--budget-evals", "30000",
            "--checkpoint-every", "0",
            "--out", str(tmp_path / "file" / "sub"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unusable_baseline_out_exits_2_before_the_oracle(self, tmp_path, capsys,
                                                            monkeypatch):
        def oracle(*args, **kwargs):
            pytest.fail("the oracle ran")

        monkeypatch.setattr("tscsynth.cli.verify_tsc", oracle)
        (tmp_path / "file").write_text("")
        code = run_cli("baseline", "--seed", bench("c17.blif"),
                       "--out", str(tmp_path / "file" / "x.json"))
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_run_record_exits_2_after_the_result(self, tmp_path, capsys):
        (tmp_path / "run.json").mkdir()
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--islands", "1",
            "--budget-evals", "0",
            "--checkpoint-every", "0",
            "--out", str(tmp_path),
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out.startswith("c17: fitness=") and "\nverification: " in out
        assert err.startswith("error: ") and err.count("\n") == 1


# An AND seed with one more .names block that no output reads.
UNUSED_BLOCK_BLIF = (
    ".model t\n.inputs a b\n.outputs y\n"
    ".names a b y\n11 1\n.names a b spare\n10 1\n.end\n"
)


class TestSeedWithUnusedLogic:
    @pytest.mark.parametrize("command", [
        ["baseline"],
        ["evolve", "--target", "and.pla", "--islands", "1", "--budget-evals", "0"],
    ])
    def test_exits_2_naming_the_net(self, tmp_path, capsys, monkeypatch, command):
        # Counting the unused block would double the seed's duplication cost.
        monkeypatch.chdir(tmp_path)
        Path("seed.blif").write_text(UNUSED_BLOCK_BLIF)
        Path("and.pla").write_text(".i 2\n.o 1\n11 1\n.e\n")
        assert run_cli(*command, "--seed", "seed.blif") == 2
        out, err = capsys.readouterr()
        assert "'spare'" in err and "feeds no output" in err
        assert "duplication overhead" not in out


# A 3-input seed whose one output is wired to input a: no gate at all.
WIRE_BLIF = ".model w\n.inputs a b c\n.outputs a\n.end\n"
WIRE_PLA = ".i 3\n.o 1\n1-- 1\n.e\n"
HALF_ADDER_BLIF = (
    ".model ha\n.inputs a b\n.outputs s c\n"
    ".names a b s\n01 1\n10 1\n.names a b c\n11 1\n.end\n"
)


class TestLayoutWithoutRoomToTranslocate:
    # Translocation copies a gene over another, unlocked one: a layout needs
    # two gene slots, and one slot free of the nonintrusive lock.  Both are
    # refused before the first population is evaluated and before the --out
    # directory is made.
    def _evolve(self, tmp_path, blif: str, pla: str, *flags: str) -> int:
        (tmp_path / "seed.blif").write_text(blif)
        (tmp_path / "target.pla").write_text(pla)
        return run_cli("evolve", "--seed", str(tmp_path / "seed.blif"),
                       "--target", str(tmp_path / "target.pla"), "--islands", "1",
                       "--budget-evals", "100", *flags)

    def test_default_width_leaves_two_slots(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert self._evolve(tmp_path, WIRE_BLIF, WIRE_PLA, "--out", str(out)) == 0
        # The default goal of this seed without gates is 0 gates, not one
        # below its duplication overhead of 0.
        assert json.loads((out / "run.json").read_text())["goal_size"] == 0

    def test_one_slot_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert self._evolve(tmp_path, WIRE_BLIF, WIRE_PLA, "--b", "2",
                            "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "1 gene slot" in err and "raise the address width b" in err
        assert not out.exists()

    def test_nonintrusive_seed_filling_every_slot_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert self._evolve(tmp_path, HALF_ADDER_BLIF, HALF_ADDER_PLA, "--b", "2",
                            "--mode", "nonintrusive", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "nonintrusive" in err and "raise the address width b" in err
        assert not out.exists()


class TestBaseline:
    def test_b1_prints_dup_overhead_23(self, capsys):
        assert run_cli("baseline", "--seed", bench("b1.blif")) == 0
        out = capsys.readouterr().out
        assert "duplication overhead: 23" in out
        assert "baseline size: 28 gates" in out

    def test_writes_baseline_circuit(self, tmp_path, capsys):
        out_file = tmp_path / "baseline.json"
        assert run_cli("baseline", "--seed", bench("c17.blif"), "--out", str(out_file)) == 0
        circuit = read_native(out_file.read_text())
        seed = parse_blif(Path(bench("c17.blif")).read_text())
        assert circuit.rails is not None
        assert circuit == build_duplication_baseline(seed)

    @pytest.mark.parametrize("name,undetected", [
        ("c17", 0), ("cm82a", 0), ("rd53", 0),
        ("b1", 6), ("cm138a", 42), ("cm42a", 54), ("decod", 90), ("mult2", 6),
    ])
    def test_prints_the_oracle_verdict(self, tmp_path, capsys, name, undetected):
        # A seed that leaves part of its output codespace unused leaves
        # checker faults untestable: every undetected fault sits after the
        # seed's gates and their copy.  No baseline has any other flaw.
        out_file = tmp_path / "baseline.json"
        assert run_cli("baseline", "--seed", bench(f"{name}.blif"),
                       "--out", str(out_file)) == 0
        out = capsys.readouterr().out
        verdict = "TSC" if undetected == 0 else "not TSC"
        assert (f"\n{verdict}: self-testing={undetected == 0}, fault-secure=True, "
                f"fault-free false alarm=False, undetected faults={undetected}, "
                "unsignalled incorrect instances=0\n") in out
        assert out.count("  undetected: ") == min(undetected, 10)
        seed = parse_blif(Path(bench(f"{name}.blif")).read_text())
        target = parse_pla(Path(bench(f"{name}.pla")).read_text())
        report = verify_tsc(read_native(out_file.read_text()), None, target.columns)
        assert report.computes_target is True
        assert len(report.undetected) == undetected
        assert all(f.gate >= 2 * len(seed.tt) for f in report.undetected)
        # verify exits 1 on exactly the baselines that are not TSC, and
        # export draws the rails.
        assert run_cli("verify", "--circuit", str(out_file),
                       "--target", bench(f"{name}.pla")) == (0 if undetected == 0 else 1)
        dot = tmp_path / "baseline.dot"
        assert run_cli("export", "--circuit", str(out_file), "--dot", str(dot)) == 0
        assert "z1 [shape=diamond]" in dot.read_text()

    def test_seed_without_outputs_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps({"r": 2, "gates": [], "y": [], "z": []}))
        assert run_cli("baseline", "--seed", str(path)) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: seed has no function outputs\n")


class TestVerifyCommand:
    def test_tsc_circuit_exits_0(self, tmp_path, capsys):
        # The xor/xnor pair is totally self-checking.
        circ = {
            "r": 2,
            "gates": [
                {"tt": "0110", "a": "x0", "b": "x1"},
                {"tt": "1001", "a": "x0", "b": "x1"},
            ],
            "y": ["g0"],
            "z": ["g1", "g0"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circ))
        assert run_cli("verify", "--circuit", str(path)) == 0
        assert "TSC" in capsys.readouterr().out

    def test_unchecked_circuit_exits_1(self, tmp_path, capsys):
        circ = {
            "r": 2,
            "gates": [
                {"tt": "1000", "a": "x0", "b": "x1"},
                {"tt": "0110", "a": "x0", "b": "x1"},
                {"tt": "1001", "a": "x0", "b": "x1"},
            ],
            "y": ["g0"],
            "z": ["g2", "g1"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circ))
        assert run_cli("verify", "--circuit", str(path)) == 1
        assert "not TSC" in capsys.readouterr().out

    def test_circuit_without_rails_exits_2(self, tmp_path, capsys):
        circ = {
            "r": 2,
            "gates": [{"tt": "0110", "a": "x0", "b": "x1"}],
            "y": ["g0"],
            "z": [],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circ))
        assert run_cli("verify", "--circuit", str(path)) == 2
        assert "no error rails" in capsys.readouterr().err

    def test_truth_table_digit_other_than_0_or_1_exits_2(self, tmp_path, capsys):
        # "0920" must not be read as XOR and then proven TSC.
        circ = {
            "r": 2,
            "gates": [
                {"tt": "0920", "a": "x0", "b": "x1"},
                {"tt": "1001", "a": "x0", "b": "x1"},
            ],
            "y": ["g0"],
            "z": ["g1", "g0"],
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(circ))
        assert run_cli("verify", "--circuit", str(path)) == 2
        assert "0 or 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify"], ["export", "--dot", "c.dot"]])
    def test_rails_not_a_list_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps({"r": 2, "gates": [], "y": ["x0"], "z": None}))
        assert run_cli(command[0], "--circuit", "c.json", *command[1:]) == 2
        assert "error rails must be a list" in capsys.readouterr().err

    def _half_adder_files(self, tmp_path, sum_xnor: bool) -> tuple[str, str]:
        circuit = tmp_path / "c.json"
        circuit.write_text(write_native(tsc_half_adder(sum_xnor)))
        pla = tmp_path / "ha.pla"
        pla.write_text(HALF_ADDER_PLA)
        return str(circuit), str(pla)

    def test_target_rejects_tsc_circuit_with_wrong_function(self, tmp_path, capsys):
        # XNOR in place of XOR: totally self-checking, but not a half adder.
        circuit, pla = self._half_adder_files(tmp_path, sum_xnor=True)
        assert run_cli("verify", "--circuit", circuit) == 0
        capsys.readouterr()
        assert run_cli("verify", "--circuit", circuit, "--target", pla) == 1
        assert "computes target=False" in capsys.readouterr().out

    def test_target_accepts_tsc_circuit_computing_it(self, tmp_path, capsys):
        circuit, pla = self._half_adder_files(tmp_path, sum_xnor=False)
        assert run_cli("verify", "--circuit", circuit, "--target", pla) == 0
        assert "computes target=True" in capsys.readouterr().out

    @pytest.mark.parametrize("mask", ["-1", "0", "10", "1f"])
    def test_applied_words_outside_the_words_exit_2(self, tmp_path, capsys, mask):
        # r = 2: a mask names words 0..3, so only 1..f is valid.
        circuit, _ = self._half_adder_files(tmp_path, sum_xnor=False)
        assert run_cli("verify", "--circuit", circuit, "--applied-words", "f") == 0
        capsys.readouterr()
        assert run_cli("verify", "--circuit", circuit, "--applied-words", mask) == 2
        assert capsys.readouterr().err == (f"error: word mask {int(mask, 16):#x} must apply "
                                           "at least one word and only words below 2**2\n")

    @staticmethod
    def _baseline_file(tmp_path, name: str) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(write_native(build_duplication_baseline(
            parse_blif(Path(bench(f"{name}.blif")).read_text()))))
        return str(path)

    @pytest.mark.parametrize("mask,code", [("ffff", 1), ("ffffffff", 0)])
    def test_applied_words_decide_the_verdict(self, tmp_path, capsys, mask, code):
        # The first half of c17's 32 words leaves faults of its duplication
        # baseline undetected; all of them prove it TSC.
        circuit = self._baseline_file(tmp_path, "c17")
        assert run_cli("verify", "--circuit", circuit, "--target", bench("c17.pla"),
                       "--applied-words", mask) == code
        assert capsys.readouterr().out.startswith("TSC" if code == 0 else "not TSC")

    @pytest.mark.parametrize("text,message", [
        # Word 111 in both the on-set and the off-set of output 0: read as
        # .type f, it would verify against a function the file does not give.
        (".i 3\n.o 4\n.type fr\n111 1000\n111 0000\n.e\n",
         "PLA output 0 has word 111 in both its on-set and off-set"),
        (".i 3\n.o 4\n.type fr\n.type f\n111 1000\n111 0000\n.e\n",
         "PLA .type is given twice"),
    ])
    def test_target_the_reader_rejects_exits_2(self, tmp_path, capsys, text, message):
        circuit = self._baseline_file(tmp_path, "b1")
        (tmp_path / "t.pla").write_text(text)
        assert run_cli("verify", "--circuit", circuit, "--target", str(tmp_path / "t.pla")) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_target_shape_mismatch_exits_2(self, tmp_path, capsys):
        circuit, _ = self._half_adder_files(tmp_path, sum_xnor=False)
        assert run_cli("verify", "--circuit", circuit, "--target", bench("c17.pla")) == 2
        assert "target is 5 in/2 out" in capsys.readouterr().err


class TestExport:
    def test_writes_dot(self, tmp_path):
        circ = {
            "r": 2,
            "gates": [{"tt": "0110", "a": "x0", "b": "x1"}],
            "y": ["g0"],
            "z": [],
        }
        src = tmp_path / "c.json"
        src.write_text(json.dumps(circ))
        dst = tmp_path / "c.dot"
        assert run_cli("export", "--circuit", str(src), "--dot", str(dst)) == 0
        assert "digraph" in dst.read_text()


class TestCircuitFormats:
    """Every flag that reads a circuit takes native JSON or BLIF."""

    def test_baseline_and_export_read_either_format(self, tmp_path, capsys):
        json_seed = tmp_path / "c17.json"
        json_seed.write_text(write_native(parse_blif((BENCH_DIR / "c17.blif").read_text())))
        printed = []
        for i, seed in enumerate((bench("c17.blif"), str(json_seed))):
            dot = tmp_path / f"{i}.dot"
            assert run_cli("baseline", "--seed", seed) == 0
            assert run_cli("export", "--circuit", seed, "--dot", str(dot)) == 0
            printed.append((capsys.readouterr().out.replace(str(dot), "-"), dot.read_text()))
        assert printed[0] == printed[1]

    def test_verify_reads_blif(self, capsys):
        # A BLIF netlist carries no rails.
        assert run_cli("verify", "--circuit", bench("c17.blif")) == 2
        assert "no error rails" in capsys.readouterr().err

    def test_baseline_of_a_checked_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "mult2.json"
        path.write_text(write_native(checked_mult2()))
        assert run_cli("baseline", "--seed", str(path)) == 2
        assert "already carries error rails" in capsys.readouterr().err


class TestCheckedSeed:
    """evolve seeded by a verified-TSC circuit with rails, read from native
    JSON.  Its size is its function core, mult2.blif's 7 gates, and the
    default goal is one gate below its own 6-gate checking logic."""

    @pytest.mark.parametrize("mode", ["unconstrained", "nonintrusive"])
    def test_searches_from_the_function_core(self, tmp_path, capsys, mode):
        seed = checked_mult2()
        path = tmp_path / "mult2.json"
        path.write_text(write_native(seed))
        out = tmp_path / "run"
        assert run_cli("evolve", "--target", bench("mult2.pla"), "--seed", str(path),
                       "--mode", mode, "--islands", "1", "--budget-evals", "2000",
                       "--out", str(out)) == 0
        rec = json.loads((out / "run.json").read_text())
        assert (rec["seed_gates"], rec["dup_overhead"], rec["goal_size"]) == (7, 25, 12)
        # Not stopped at generation 0: the seed itself misses the goal.
        assert rec["evals"] > POPULATION_SIZE
        target = parse_pla((BENCH_DIR / "mult2.pla").read_text()).columns
        champion = read_native((out / "champion.json").read_text())
        assert verify_tsc(champion, None, target).computes_target
        if mode == "nonintrusive":
            layout = GenomeLayout(**rec["layout"])
            genotype = Genotype.from_hex((out / "champion.hex").read_text().strip(), layout)
            encoded, _ = encode_seed(seed, layout, random.Random(0))
            locked = seed_lock_mask(seed, layout).locked
            mask = sum(1 << (layout.total_len - 1 - p) for p in locked)
            assert locked and not (genotype.value ^ encoded.value) & mask


class TestEvolveCommand:
    def test_zero_budget_run_completes(self, tmp_path, capsys):
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--islands", "1",
            "--budget-evals", "0",
            "--seed-rng", "3",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0
        run_record = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run_record["evals"] == 32
        # The first population has no parents: every one is decoded.
        assert run_record["decoded"] == 32
        # The bare seed computes c17 without checking it.
        assert run_record["verification"]["is_tsc"] is False
        assert run_record["verification"]["computes_target"] is True
        assert (tmp_path / "run" / "champion.json").exists()
        assert (tmp_path / "run" / "champion.hex").exists()

    def test_run_record_reruns_its_run(self, tmp_path):
        # Every search setting differs from its default, so a field that
        # run.json drops changes the rerun's champion.
        first = tmp_path / "first"
        assert run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--b", "6",
            "--islands", "2",
            "--seed-rng", "3",
            "--migration-rate", "0.5",
            "--budget-evals", "300",
            "--goal-overhead", "4",
            "--no-stop-on-goal",
            "--applied-words", "fffff0ff",
            "--out", str(first),
        ) == 0
        rec = json.loads((first / "run.json").read_text())
        argv = [
            "evolve",
            "--target", rec["target"],
            "--seed", rec["seed"],
            "--mode", rec["mode"],
            "--b", str(rec["layout"]["b"]),
            "--islands", str(rec["islands"]),
            "--seed-rng", str(rec["rng_seed"]),
            "--migration-rate", str(rec["migration_rate"]),
            "--budget-evals", str(rec["budget_evals"]),
            "--goal-overhead", str(rec["goal_size"] - rec["seed_gates"]),
            "--applied-words", rec["applied_words"],
            "--out", str(tmp_path / "again"),
        ]
        assert rec["budget_seconds"] is None
        if rec["parallel"]:
            argv.append("--parallel")
        if not rec["stop_on_goal"]:
            argv.append("--no-stop-on-goal")
        assert run_cli(*argv) == 0
        again = json.loads((tmp_path / "again" / "run.json").read_text())
        assert again["champion"]["genotype"] == rec["champion"]["genotype"]
        assert again["evals"] == rec["evals"]
        assert again["verification"] == rec["verification"]

    def test_rerun_into_the_same_out_starts_fresh_checkpoints(self, tmp_path):
        # 1000 evals of one island are 33 generations: checkpoints at 10, 20
        # and 30, once, however often the run is repeated into --out.
        out = tmp_path / "run"
        argv = ["evolve", "--target", bench("c17.pla"), "--seed", bench("c17.blif"),
                "--islands", "1", "--budget-evals", "1000", "--out", str(out)]
        for _ in range(2):
            assert run_cli(*argv, "--checkpoint-every", "10") == 0
        lines = (out / "checkpoints.ndjson").read_text().splitlines()
        assert [json.loads(line)["generation"] for line in lines] == [10, 20, 30]
        assert run_cli(*argv, "--checkpoint-every", "0") == 0
        assert not (out / "checkpoints.ndjson").exists()

    def test_parallel_budget_spent_on_populating_starts_no_worker(self, tmp_path,
                                                                  monkeypatch):
        def get_context(*args):
            pytest.fail("a worker process was started")

        monkeypatch.setattr("tscsynth.evolve.multiprocessing.get_context", get_context)
        out = tmp_path / "run"
        assert run_cli("evolve", "--target", bench("mult2.pla"), "--seed", bench("mult2.blif"),
                       "--parallel", "--islands", "2", "--budget-evals", "0",
                       "--out", str(out)) == 0
        record = json.loads((out / "run.json").read_text())
        assert (record["parallel"], record["evals"]) == (True, 2 * POPULATION_SIZE)

    @pytest.mark.parametrize("mask", ["-1", "0", "100000000"])
    def test_applied_words_outside_the_words_exit_2(self, tmp_path, capsys, mask):
        # c17 has 5 inputs, so a mask names words 0..31.
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--islands", "1",
            "--budget-evals", "0",
            "--applied-words", mask,
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert capsys.readouterr().err == (f"error: word mask {int(mask, 16):#x} must apply "
                                           "at least one word and only words below 2**5\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_address_width_above_the_bound_exits_2(self, tmp_path, capsys, how):
        args = tmp_path / "run.args"
        args.write_text("--b 40\n")
        width = ["--b", "40"] if how == "flag" else [f"@{args}"]
        code = run_cli(
            "evolve",
            "--target", bench("mult2.pla"),
            "--seed", bench("mult2.blif"),
            "--islands", "1",
            "--budget-evals", "0",
            *width,
        )
        assert code == 2
        assert "b=40; at most 16" in capsys.readouterr().err

    def test_seed_target_shape_mismatch_exits_2(self, capsys):
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("b1.blif"),
            "--budget-evals", "0",
        )
        assert code == 2
        assert "error: seed is 3 in/4 out but target is 5 in/2 out" in capsys.readouterr().err

    def test_seed_with_more_gates_than_slots_exits_2(self, capsys):
        # c17 has 6 gates and 5 inputs; b = 3 leaves 2**3 - 5 = 3 gene slots.
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--b", "3",
            "--budget-evals", "0",
        )
        assert code == 2
        assert "error: seed has 6 gates, layout holds 3: raise the address width b" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "-0.5", "1.5"])
    def test_migration_rate_outside_unit_interval_exits_2(self, capsys, rate):
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--budget-evals", "0",
            "--migration-rate", rate,
        )
        assert code == 2
        assert f"error: migration rate {float(rate)!r} is not in [0, 1]" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--budget-seconds", "nan", "time budget nan is not >= 0 seconds"),
        ("--budget-seconds", "-1", "time budget -1.0 is not >= 0 seconds"),
        ("--budget-evals", "-1", "eval budget -1 is negative"),
        ("--checkpoint-every", "-3", "checkpoint interval -3 is negative"),
        # c17's function core has 6 gates.
        ("--goal-overhead", "-100", "goal size -94 is negative"),
    ])
    def test_ignored_run_setting_exits_2(self, capsys, tmp_path, flag, value, message):
        # Each once exited 0: a NaN time budget never ran out, a negative
        # budget or checkpoint interval acted as zero, and a negative goal
        # size spent the whole budget on a goal no circuit meets.
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--budget-evals", "300",
            "--out", str(tmp_path / "run"),
            flag, value,
        )
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def _evolve_with_file(self, tmp_path, text: str, *argv: str) -> int:
        """evolve c17 with text as an argument file, then argv."""
        args = tmp_path / "run.args"
        args.write_text(text)
        return run_cli("evolve", "--target", bench("c17.pla"), "--seed", bench("c17.blif"),
                       f"@{args}", *argv)

    def test_config_file_supplies_defaults_cli_overrides(self, tmp_path):
        out = tmp_path / "run"
        code = self._evolve_with_file(
            tmp_path,
            "# one island, a short run\n\n--islands 1\n--budget-evals 64 --seed-rng 4\n",
            "--budget-evals", "0",  # after the file, so it wins over the file's 64
            "--out", str(out),
        )
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert (record["islands"], record["rng_seed"]) == (1, 4)
        assert record["evals"] == 32

    @pytest.mark.parametrize("flag_first", [True, False])
    def test_later_argument_wins(self, tmp_path, flag_first):
        flag = ["--budget-evals", "0"]
        args = tmp_path / "run.args"
        args.write_text("--islands 1 --budget-evals 1 --no-stop-on-goal\n")
        out = tmp_path / "run"
        code = run_cli("evolve", "--target", bench("c17.pla"), "--seed", bench("c17.blif"),
                       *(flag if flag_first else []), f"@{args}",
                       *([] if flag_first else flag), "--out", str(out))
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["budget_evals"] == (1 if flag_first else 0)
        # A boolean flag is on when the file names it.
        assert record["stop_on_goal"] is False

    def test_config_file_nonintrusive_mode_runs(self, tmp_path):
        out = tmp_path / "run"
        code = self._evolve_with_file(
            tmp_path, "--mode nonintrusive\n--islands 1\n--budget-evals 0\n",
            "--out", str(out))
        assert code == 0
        assert json.loads((out / "run.json").read_text())["mode"] == "nonintrusive"

    def test_config_file_unknown_mode_exits_2(self, tmp_path, capsys):
        # The file is checked like the command line, choices included.
        code = self._evolve_with_file(tmp_path, "--mode bogus\n",
                                      "--islands", "1", "--budget-evals", "0")
        assert code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # An abbreviation of --budget-evals, not taken for it.
        code = self._evolve_with_file(tmp_path, "--budget-eval 64\n",
                                      "--islands", "1", "--budget-evals", "0")
        assert code == 2
        assert "unrecognized arguments: --budget-eval 64" in capsys.readouterr().err

    def test_removed_config_flag_exits_2(self, tmp_path, capsys):
        code = self._evolve_with_file(tmp_path, "--islands 1\n", "--config", "run.cfg")
        assert code == 2
        assert "unrecognized arguments: --config run.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["parallel", "no-stop-on-goal"])
    def test_config_file_bad_flag_value_exits_2(self, tmp_path, capsys, key):
        # A boolean flag takes no value: the "true" after it is an extra argument.
        code = self._evolve_with_file(tmp_path, f"--{key} true\n",
                                      "--islands", "1", "--budget-evals", "0")
        assert code == 2
        assert "unrecognized arguments: true" in capsys.readouterr().err

    def test_missing_argument_file_exits_2(self, tmp_path, capsys):
        code = run_cli("evolve", "--target", bench("c17.pla"), "--seed", bench("c17.blif"),
                       f"@{tmp_path / 'missing.args'}")
        assert code == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_path_beginning_with_at_sign(self, tmp_path, monkeypatch, capsys):
        # evolve reads @c17.blif as an argument file unless it is joined to its flag.
        monkeypatch.chdir(tmp_path)
        Path("@c17.blif").write_text(Path(bench("c17.blif")).read_text())
        common = ["evolve", "--target", bench("c17.pla"), "--islands", "1",
                  "--budget-evals", "0"]
        assert run_cli(*common, "--seed", "@c17.blif") == 2
        assert run_cli(*common, "--seed=@c17.blif") == 0
        # verify reads no argument files: its @ path is a circuit.
        Path("@ha.json").write_text(write_native(tsc_half_adder()))
        capsys.readouterr()
        assert run_cli("verify", "--circuit", "@ha.json") == 0
        assert capsys.readouterr().out.startswith("TSC")


class TestReport:
    def _make_run(self, tmp_path) -> Path:
        out = tmp_path / "run"
        assert run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--islands", "1",
            "--budget-evals", "0",
            "--out", str(out),
        ) == 0
        return out

    def test_report_emits_json_and_table(self, tmp_path, capsys):
        out = self._make_run(tmp_path)
        capsys.readouterr()
        assert run_cli("report", "--run", str(out)) == 0
        printed = capsys.readouterr().out
        header, _, rest = printed.partition("\n\n")
        report = json.loads(header)
        assert report["benchmark"] == "c17"
        assert report["dup_overhead"] == 12
        assert "Benchmark" in rest
        assert report["evals"] == 32 and 0 < report["scored"] <= 32
        assert f"evals: 32, scored: {report['scored']}" in rest
        assert report["decoded"] == 32 and "decoded: 32" in rest
        # ratio only reported for verified-TSC champions
        if report["verdict"] != "TSC":
            assert report["ratio"] is None

    def test_function_core_flag_exits_2(self, tmp_path, capsys):
        # evolve records the seed's function core as seed_gates, so there is
        # no core to pass by hand.
        run = self._write(tmp_path, self._record())
        assert run_cli("report", "--run", str(run), "--function-core", "6") == 2
        out, err = capsys.readouterr()
        assert "--function-core" in err and out == ""

    @pytest.mark.parametrize("verification,verdict", [
        ({"is_tsc": True, "computes_target": False}, "TSC, wrong function"),
        ({"is_tsc": False, "computes_target": False}, "not TSC"),
        ({"is_tsc": False, "computes_target": True}, "not TSC"),
        ({"is_tsc": True, "computes_target": True}, "TSC"),
    ])
    def test_ratio_only_when_tsc_and_computing_target(self, tmp_path, capsys,
                                                      verification, verdict):
        record = {**self._record(), "verification": verification}
        assert run_cli("report", "--run", str(self._write(tmp_path, record))) == 0
        header, _, rest = capsys.readouterr().out.partition("\n\n")
        report = json.loads(header)
        assert report["verdict"] == verdict
        assert report["ratio"] == (pytest.approx(4 / 12) if verdict == "TSC" else None)
        # The table row, after its header line.
        assert rest.splitlines()[1].endswith(f"  {verdict}")

    @staticmethod
    def _record() -> dict:
        return {
            "benchmark": "demo",
            "seed_gates": 6,
            "dup_overhead": 12,
            "champion": {"live_gates": 10, "fitness": []},
            "verification": {"is_tsc": True, "computes_target": True},
            "evals": 64,
            "scored": 40,
            "decoded": 32,
            "history": [],
        }

    @staticmethod
    def _write(tmp_path, record) -> Path:
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.json").write_text(json.dumps(record))
        return run

    def test_missing_run_dir_exits_2(self, tmp_path, capsys):
        assert run_cli("report", "--run", str(tmp_path / "nope")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_record_not_json_exits_2_naming_the_file(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.json").write_text("{truncated")
        assert run_cli("report", "--run", str(run)) == 2
        out, err = capsys.readouterr()
        assert f"error: {run / 'run.json'} is not JSON: " in err
        assert out == ""

    @pytest.mark.parametrize("part,field", [
        (None, "seed_gates"),
        (None, "history"),
        ("champion", "live_gates"),
        ("verification", "is_tsc"),
        ("verification", "computes_target"),
        (None, "evals"),
        (None, "scored"),
        (None, "decoded"),
    ])
    def test_record_without_a_field_exits_2(self, tmp_path, capsys, part, field):
        # Exit 1 would read as "verification failed".
        record = self._record()
        del (record if part is None else record[part])[field]
        assert run_cli("report", "--run", str(self._write(tmp_path, record))) == 2
        out, err = capsys.readouterr()
        assert f"has no field {field!r}" in err
        assert out == ""

    @pytest.mark.parametrize("part,field,value,message", [
        (None, "champion", None, "field 'champion' is null, not an object"),
        (None, "verification", None, "field 'verification' is null, not an object"),
        (None, "seed_gates", "6", "field 'seed_gates' is a string, not an integer"),
        ("champion", "live_gates", "10",
         "field 'champion.live_gates' is a string, not an integer"),
        ("verification", "computes_target", 1,
         "field 'verification.computes_target' is an integer, not a boolean"),
    ])
    def test_record_with_a_wrongly_typed_field_exits_2(self, tmp_path, capsys, part,
                                                        field, value, message):
        record = self._record()
        (record if part is None else record[part])[field] = value
        assert run_cli("report", "--run", str(self._write(tmp_path, record))) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert out == ""

    def test_record_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        assert run_cli("report", "--run", str(self._write(tmp_path, []))) == 2
        assert "run.json record is a list, not an object" in capsys.readouterr().err
