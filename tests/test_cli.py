import json
from pathlib import Path

import pytest

from tscsynth.cli import build_parser, main
from tscsynth.formats import parse_blif, read_native, write_native
from tscsynth.netlist import build_duplication_baseline

from conftest import BENCH_DIR, HALF_ADDER_PLA, tsc_half_adder


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

    def test_circuit_with_too_many_inputs_exits_2(self, tmp_path, capsys):
        # Verifying it would allocate 2**40-bit vectors.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"r": 40, "gates": [], "y": ["x0"], "z": ["x0", "x1"]}))
        assert run_cli("verify", "--circuit", str(path)) == 2
        assert "circuit has 40 inputs; at most 16" in capsys.readouterr().err


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
    # refused before the first population is evaluated.
    def _evolve(self, tmp_path, blif: str, pla: str, *flags: str) -> int:
        (tmp_path / "seed.blif").write_text(blif)
        (tmp_path / "target.pla").write_text(pla)
        return run_cli("evolve", "--seed", str(tmp_path / "seed.blif"),
                       "--target", str(tmp_path / "target.pla"), "--islands", "1",
                       "--budget-evals", "100", *flags)

    def test_default_width_leaves_two_slots(self, tmp_path, capsys):
        assert self._evolve(tmp_path, WIRE_BLIF, WIRE_PLA) == 0

    def test_one_slot_exits_2(self, tmp_path, capsys):
        assert self._evolve(tmp_path, WIRE_BLIF, WIRE_PLA, "--b", "2") == 2
        err = capsys.readouterr().err
        assert "1 gene slot" in err and "raise the address width b" in err

    def test_nonintrusive_seed_filling_every_slot_exits_2(self, tmp_path, capsys):
        assert self._evolve(tmp_path, HALF_ADDER_BLIF, HALF_ADDER_PLA,
                            "--b", "2", "--mode", "nonintrusive") == 2
        err = capsys.readouterr().err
        assert "nonintrusive" in err and "raise the address width b" in err


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
        assert f"--applied-words {mask}" in capsys.readouterr().err

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
        assert f"--applied-words {mask}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_address_width_above_the_bound_exits_2(self, tmp_path, capsys, how):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b = 40\n")
        width = ["--b", "40"] if how == "flag" else ["--config", str(cfg)]
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

    def test_config_file_supplies_defaults_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("islands = 1\nbudget-evals = 64\nseed-rng = 4\n")
        out = tmp_path / "run"
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--config", str(cfg),
            "--budget-evals", "0",  # CLI wins over the file's 64
            "--out", str(out),
        )
        assert code == 0
        record = json.loads((out / "run.json").read_text())
        assert record["evals"] == 32

    def test_config_file_nonintrusive_mode_runs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = nonintrusive\nislands = 1\nbudget-evals = 0\n")
        out = tmp_path / "run"
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--config", str(cfg),
            "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "run.json").read_text())["mode"] == "nonintrusive"

    def test_config_file_unknown_mode_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = bogus\n")  # argparse checks choices on flags only
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--config", str(cfg),
            "--islands", "1",
            "--budget-evals", "0",
        )
        assert code == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget-eval = 64\n")  # typo for budget-evals
        code = run_cli(
            "evolve",
            "--target", bench("c17.pla"),
            "--seed", bench("c17.blif"),
            "--config", str(cfg),
            "--islands", "1",
            "--budget-evals", "0",
        )
        assert code == 2
        assert "budget-eval" in capsys.readouterr().err

    @pytest.mark.parametrize("text,value", [
        ("false", False), ("no", False), ("0", False),
        ("true", True), ("Yes", True), ("1", True),
    ])
    def test_config_file_flags(self, text, value):
        parser = build_parser({"parallel": text, "no_stop_on_goal": text})
        args = parser.parse_args(["evolve", "--target", "t.pla", "--seed", "s.blif"])
        assert args.parallel is value
        assert args.no_stop_on_goal is value


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

    def test_function_core_sets_overhead_and_duplication(self, tmp_path, capsys):
        # Seed of 12 gates, champion of 10 live gates, function core of 6:
        # the overhead over the core is 4 and duplicating the core costs 12.
        record = {**self._record(), "seed_gates": 12, "dup_overhead": 18}
        run = self._write(tmp_path, record)
        assert run_cli("report", "--run", str(run), "--function-core", "6") == 0
        printed = capsys.readouterr().out
        header, _, rest = printed.partition("\n\n")
        report = json.loads(header)
        assert report["overhead"] == 4
        assert report["dup_overhead"] == 12
        assert report["ratio"] == pytest.approx(4 / 12)
        assert "--function-core" not in rest

    @pytest.mark.parametrize("verification,verdict", [
        ({"is_tsc": True, "computes_target": False}, "TSC, wrong function"),
        ({"is_tsc": True}, "TSC, function unchecked"),  # recorded before the check
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
        assert rest.rstrip().endswith(verdict)

    @staticmethod
    def _record() -> dict:
        return {
            "benchmark": "demo",
            "seed_gates": 6,
            "dup_overhead": 12,
            "layout": {"r": 3, "q": 2, "b": 5},
            "champion": {"live_gates": 10, "fitness": []},
            "verification": {"is_tsc": True, "computes_target": True},
            "history": [],
        }

    @staticmethod
    def _write(tmp_path, record) -> Path:
        run = tmp_path / "run"
        run.mkdir()
        (run / "run.json").write_text(json.dumps(record))
        return run

    def test_missing_run_dir_exits_2(self, tmp_path):
        assert run_cli("report", "--run", str(tmp_path / "nope")) == 2

    @pytest.mark.parametrize("part,field", [
        (None, "seed_gates"),
        (None, "history"),
        ("champion", "live_gates"),
        ("verification", "is_tsc"),
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
