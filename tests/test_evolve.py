import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tscsynth
from tscsynth import evolve
from tscsynth.evolve import (
    EPOCH_GENERATIONS,
    POPULATION_SIZE,
    Engine,
    IslandConfig,
    migration_weights,
    pick_migration_target,
    run,
    run_distributed,
    select_parent,
    spiral_coords,
)
from tscsynth.fitness import FitnessVector, evaluate_circuit
from tscsynth.formats import TargetSpec, parse_blif, parse_pla
from tscsynth.genome import GenomeLayout, default_address_width, seed_lock_mask
from tscsynth.netlist import Circuit, Gate, SignalRef, TT_AND, TT_XOR
from tscsynth.sim import simulate

from conftest import BENCH_DIR, genotype_bit

X = SignalRef.x
G = SignalRef.g


def small_setup(rails_b: int = 4):
    """Tiny 2-input problem: y0 = XOR, y1 = AND (a half adder)."""
    seed = Circuit(
        2, (Gate(TT_XOR, X(0), X(1)), Gate(TT_AND, X(0), X(1))), (G(0), G(1))
    )
    target = TargetSpec(2, 2, tuple(simulate(seed).outputs))
    layout = GenomeLayout(r=2, q=2, b=rails_b)
    return seed, target, layout


def small_config(layout, **kw) -> IslandConfig:
    defaults = dict(layout=layout, rng_seed=5, n_islands=1, max_evals=3000,
                    goal_size=None, stop_on_goal=False)
    defaults.update(kw)
    return IslandConfig(**defaults)


class TestSpiral:
    @pytest.mark.parametrize(
        "index,coords",
        [
            (0, (0, 0)),
            (1, (1, 0)),
            (2, (1, 1)),
            (3, (0, 1)),
            (4, (-1, 1)),
            (5, (-1, 0)),
            (6, (-1, -1)),
            (7, (0, -1)),
            (8, (1, -1)),
            (9, (2, -1)),
        ],
    )
    def test_first_ten(self, index, coords):
        assert spiral_coords(index) == coords

    def test_all_distinct(self):
        seen = {spiral_coords(i) for i in range(200)}
        assert len(seen) == 200


class TestSelection:
    def _pop(self, n):
        class Stub:
            def __init__(self, rank):
                self.rank = rank
                self.fitness = FitnessVector(1.0 - rank / n, 0, 0, 0)

        return [Stub(i) for i in range(n)]

    def test_best_twice_median_weight(self):
        # Weight (n-1)-i: with n=32 the top rank weighs 31 and the two median
        # ranks average 15.5, the required factor of two.
        n = 32
        weights = [n - 1 - i for i in range(n)]
        assert weights[0] / ((weights[15] + weights[16]) / 2) == 2.0

    def test_worst_never_selected(self):
        pop = self._pop(8)
        rng = random.Random(0)
        picks = {select_parent(pop, rng).rank for _ in range(2000)}
        assert 7 not in picks
        assert 0 in picks

    def test_two_individuals_always_best(self):
        # The worst rank weighs nothing, so with one individual too.
        for n in (1, 2):
            pop = self._pop(n)
            rng = random.Random(0)
            assert all(select_parent(pop, rng).rank == 0 for _ in range(50))

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select_parent([], random.Random(0))


class TestMigrationTarget:
    def test_inverse_distance_weights(self):
        # Islands 0, 1 and 2 sit at (0, 0), (1, 0) and (1, 1).
        assert migration_weights(0, 3) == [0.0, 1.0, 1 / math.sqrt(2)]
        assert migration_weights(2, 3) == [1 / math.sqrt(2), 1.0, 0.0]

    def test_source_never_selected(self):
        rng = random.Random(1)
        for _ in range(200):
            assert pick_migration_target(0, 3, rng) in (1, 2)

    def test_equidistant_targets_roughly_uniform(self):
        # Islands 1 and 3, at (1, 0) and (0, 1), are both one step from island 0.
        rng = random.Random(2)
        counts = Counter(pick_migration_target(0, 4, rng) for _ in range(4000))
        assert abs(counts[1] - counts[3]) < 400

    def test_singleton_grid_rejected(self):
        with pytest.raises(ValueError):
            pick_migration_target(0, 1, random.Random(0))

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_same_draw_as_random_choices(self, n):
        ours, theirs = random.Random(n), random.Random(n)
        for source in range(n):
            weights = migration_weights(source, n)
            for _ in range(50):
                assert pick_migration_target(source, n, ours) == \
                    theirs.choices(range(n), weights=weights)[0]

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan"), float("inf")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        layout = small_setup()[2]
        with pytest.raises(ValueError, match=f"migration rate {rate!r} is not in"):
            small_config(layout, migration_rate=rate)


class TestEngine:
    @pytest.mark.parametrize("mask", [0, 1 << 4, 0x11])
    def test_word_mask_outside_the_words_rejected(self, mask):
        # The half adder has 2**2 = 4 input words: 0 applies none, 1 << 4
        # only a word beyond them, 0x11 word 0 and one beyond.  A mask that
        # applies no word would score every circuit at f_f = 0.
        layout = small_setup()[2]
        with pytest.raises(ValueError, match=f"^word mask {mask:#x} must apply at least "
                           "one word and only words below 2\\*\\*2$"):
            small_config(layout, word_mask=mask)
        assert small_config(layout, word_mask=0xF).word_mask == 0xF

    def test_population_size_constant(self):
        seed, target, layout = small_setup()
        engine = Engine(small_config(layout, n_islands=2, max_evals=4000), target, seed)
        for _ in range(4):
            engine.step_generation()
            for island in engine.islands:
                assert len(island.population) == POPULATION_SIZE == 32

    def test_champion_monotone_and_elite_monotone(self):
        seed, target, layout = small_setup()
        engine = Engine(small_config(layout, max_evals=None), target, seed)
        best_keys = []
        champ_keys = []
        for _ in range(12):
            engine.step_generation()
            best_keys.append(engine.islands[0].population[0].fitness.key())
            champ_keys.append(engine.champion.fitness.key())
        assert best_keys == sorted(best_keys)
        assert champ_keys == sorted(champ_keys)

    def test_budget_zero_returns_initial_champion(self):
        seed, target, layout = small_setup()
        result = run(small_config(layout, max_evals=0), target, seed)
        assert result.evals == 32  # the initial population is still evaluated
        assert result.champion is not None

    def test_determinism_bit_identical_champion(self):
        seed, target, layout = small_setup()
        r1 = run(small_config(layout, max_evals=2000, rng_seed=9), target, seed)
        r2 = run(small_config(layout, max_evals=2000, rng_seed=9), target, seed)
        assert r1.champion.genotype.to_hex() == r2.champion.genotype.to_hex()
        assert r1.champion.fitness == r2.champion.fitness

    def test_serial_trajectory_pinned(self):
        # Champion of this migrating four-island run, recorded before the
        # parallel driver was rebuilt on Engine: serial search must not move.
        seed, target, layout = small_setup()
        config = small_config(layout, n_islands=4, max_evals=6000, rng_seed=7,
                              migration_rate=0.5)
        result = run(config, target, seed)
        assert result.champion.genotype.to_hex() == (
            "01e76ef1efd3a3e28f2772a81907c47f6b8393ef24b6e2"
        )
        assert result.evals == 6011

    def test_each_evaluation_scores_once_and_decodes_unless_reused(self, monkeypatch):
        # The traced benchmark pass (perfbench/workloads.py) wraps
        # evolve.decode and evolve.evaluate_circuit and divides each layer's
        # time by its call count.  A child that reads as a parent takes the
        # parent's netlist through redraw, and the parent's fitness when
        # redraw returns the parent's circuit; every other evaluation calls
        # evaluate_circuit once, and RunResult.scored counts those.  Every
        # evaluation that does not redraw calls decode once, and
        # RunResult.decoded counts those.  The first population always
        # decodes and scores, so neither layer is ever without samples.
        calls = {"decode": 0, "redraw": 0, "evaluate_circuit": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(evolve, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(evolve, name, counted)
        seed, target, layout = small_setup()
        result = run(small_config(layout, max_evals=500), target, seed)
        assert POPULATION_SIZE <= calls["evaluate_circuit"] == result.scored < result.evals
        assert calls["decode"] == result.decoded
        assert calls["decode"] + calls["redraw"] == result.evals
        assert POPULATION_SIZE <= result.decoded < result.evals

    def test_reuse_changes_no_search(self, monkeypatch):
        # Decoding and scoring every child instead gives the same run:
        # champion, history and evals; only the decode and score counts differ.
        seed, target, layout = small_setup(rails_b=3)
        config = small_config(layout, n_islands=2, max_evals=2000, migration_rate=0.5)
        reused = run(config, target, seed)
        monkeypatch.setattr(evolve, "same_reading", lambda *args: False)
        decoded = run(config, target, seed)
        assert reused.champion.genotype == decoded.champion.genotype
        assert reused.champion.circuit == decoded.champion.circuit
        assert (reused.history, reused.evals) == (decoded.history, decoded.evals)
        assert reused.decoded < decoded.decoded == decoded.evals
        assert reused.scored < decoded.scored == decoded.evals

    def test_different_seeds_differ(self):
        seed, target, layout = small_setup()
        r1 = run(small_config(layout, max_evals=2000, rng_seed=1), target, seed)
        r2 = run(small_config(layout, max_evals=2000, rng_seed=2), target, seed)
        assert r1.champion.genotype.to_hex() != r2.champion.genotype.to_hex()

    def test_adding_islands_never_perturbs_existing_streams(self):
        seed, target, layout = small_setup()
        # Island rng streams are derived from (master seed, island index), so
        # the same island index yields the same stream regardless of grid size.
        e1 = Engine(small_config(layout, n_islands=1, max_evals=None,
                                 migration_rate=0.0), target, seed)
        e2 = Engine(small_config(layout, n_islands=3, max_evals=None,
                                 migration_rate=0.0), target, seed)
        for _ in range(3):
            e1.step_generation()
            e2.step_generation()
        a = [ind.genotype.value for ind in e1.islands[0].population]
        b = [ind.genotype.value for ind in e2.islands[0].population]
        assert a == b

    def test_migration_moves_individuals(self):
        seed, target, layout = small_setup()
        config = small_config(layout, n_islands=4, max_evals=None, migration_rate=1.0)
        engine = Engine(config, target, seed)
        engine.step_generation()
        assert any(engine.inboxes)
        engine.step_generation()  # immigrants integrated without size change
        for island in engine.islands:
            assert len(island.population) == 32

    def test_nonintrusive_lock_preserved_through_run(self):
        seed, target, layout = small_setup()
        config = small_config(layout, max_evals=1500, mode="nonintrusive")
        result = run(config, target, seed)
        from tscsynth.genome import encode_seed

        lock = seed_lock_mask(seed, layout)
        reference, _ = encode_seed(seed, layout, random.Random(0))
        champ = result.champion.genotype
        for pos in lock.locked:
            assert genotype_bit(champ, pos) == genotype_bit(reference, pos)

    def test_checkpoints_written(self, tmp_path):
        seed, target, layout = small_setup()
        config = small_config(layout, max_evals=2500, checkpoint_every=2)
        for runner in (run, run_distributed):
            out = tmp_path / runner.__name__
            runner(config, target, seed, out_dir=out)
            lines = (out / "checkpoints.ndjson").read_text().splitlines()
            assert lines, runner.__name__
            record = json.loads(lines[0])
            assert {"genotype", "fitness", "source", "generation", "layout",
                    "evals", "elapsed_s"} <= set(record)


class TestReusedFitness:
    @pytest.mark.parametrize("problem", ["half adder", "mult2"])
    def test_every_fitness_equals_a_fresh_score(self, problem):
        # A child whose netlist is its parent's circuit object takes the
        # parent's fitness unscored; it must be the one scoring would give.
        if problem == "half adder":
            seed, target, layout = small_setup()
            word_mask = None
        else:
            seed = parse_blif((BENCH_DIR / "mult2.blif").read_text())
            target = parse_pla((BENCH_DIR / "mult2.pla").read_text())
            layout = GenomeLayout(r=4, q=4, b=default_address_width(4, len(seed.gates), 4))
            word_mask = 0b1011_0111_1110_1101
        config = small_config(layout, n_islands=4, max_evals=3000,
                              migration_rate=0.5, word_mask=word_mask)
        engine = Engine(config, target, seed)
        result = engine.run()
        assert 0 < result.scored < result.evals
        for island in engine.islands:
            for ind in island.population:
                assert ind.fitness == evaluate_circuit(
                    ind.circuit, target.columns, layout.max_gates, word_mask)


class TestGoal:
    def test_stops_on_perfect_checking(self):
        seed, target, layout = small_setup()
        config = small_config(layout, max_evals=400_000, stop_on_goal=True,
                              goal_size=None, n_islands=4, rng_seed=3)
        result = run(config, target, seed)
        assert result.goal_reached
        fv = result.champion.fitness
        assert fv.perfect_checking
        from tscsynth.verify import verify_tsc

        report = verify_tsc(result.champion.circuit, target=target.columns)
        assert report.is_tsc
        assert report.computes_target

    def test_goal_reached_without_stopping_on_it(self):
        # Seed 2 meets the goal after 1292 evals when it stops on it.
        seed, target, layout = small_setup()
        config = small_config(layout, max_evals=1500, rng_seed=2)
        result = run(config, target, seed)
        assert result.evals >= 1500
        assert result.champion.fitness.perfect_checking
        assert result.goal_reached


class TestDistributedDriver:
    # run_distributed builds run's Engine, which checks the settings and
    # populates every island before any worker process could start.
    @pytest.fixture
    def no_workers(self, monkeypatch):
        def get_context(*args):
            pytest.fail("a worker process was started")

        monkeypatch.setattr(evolve.multiprocessing, "get_context", get_context)

    def test_budget_spent_on_populating_starts_no_worker(self, no_workers):
        seed, target, layout = small_setup()
        config = small_config(layout, n_islands=3, max_evals=0)
        parallel = run_distributed(config, target, seed)
        serial = run(config, target, seed)
        assert parallel.champion.genotype == serial.champion.genotype
        assert parallel.evals == 3 * POPULATION_SIZE
        assert ((parallel.evals, parallel.scored, parallel.decoded, parallel.history)
                == (serial.evals, serial.scored, serial.decoded, serial.history))

    @pytest.mark.parametrize("runner", [run, run_distributed])
    def test_seed_too_large_for_layout_raises(self, no_workers, tmp_path, runner):
        seed = parse_blif((BENCH_DIR / "mult2.blif").read_text())
        target = parse_pla((BENCH_DIR / "mult2.pla").read_text())
        config = small_config(GenomeLayout(r=4, q=4, b=3))
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="^seed has 7 gates, layout holds 4: "
                           "raise the address width b$"):
            runner(config, target, seed, out_dir=out)
        assert not out.exists()

    @pytest.mark.parametrize("runner", [run, run_distributed])
    @pytest.mark.parametrize("mismatch,message", [
        ("target", "seed is 2 in/2 out but target is 4 in/4 out"),
        ("layout", "target is 2 in/2 out but layout is 4 in/4 out"),
    ])
    def test_shape_mismatch_raises(self, no_workers, tmp_path, runner, mismatch, message):
        seed, target, layout = small_setup()
        if mismatch == "target":
            target = parse_pla((BENCH_DIR / "mult2.pla").read_text())
        else:
            layout = GenomeLayout(r=4, q=4, b=5)
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=f"^{message}$"):
            runner(small_config(layout), target, seed, out_dir=out)
        assert not out.exists()


_KILL_ISLAND_1 = """
import multiprocessing, os, signal, threading, time
from test_evolve import small_config, small_setup
from tscsynth.evolve import run_distributed

def kill_island_1():
    while True:
        for proc in multiprocessing.active_children():
            if proc.name == "tscsynth-island-1":
                os.kill(proc.pid, signal.SIGKILL)
                return
        time.sleep(0.01)

threading.Thread(target=kill_island_1, daemon=True).start()
seed, target, layout = small_setup()
try:
    run_distributed(small_config(layout, n_islands=3, max_evals=10**7), target, seed)
except RuntimeError as exc:
    print("RuntimeError:", exc)
"""


@pytest.mark.slow
class TestDistributed:
    def test_parallel_trajectory_pinned(self):
        # Result of this migrating four-island run, recorded before the
        # islands' epochs and migrant routing were merged into Island.epoch
        # and the Engine's inboxes: parallel search must not move either.
        seed, target, layout = small_setup()
        config = small_config(layout, n_islands=4, max_evals=4000, rng_seed=11,
                              migration_rate=0.5)
        result = run_distributed(config, target, seed)
        assert result.champion.genotype.to_hex() == (
            "01ac6ef1ef81414b96a2d91eaf7c4a7d502d0165601da0"
        )
        assert (result.evals, result.scored, result.decoded) == (4027, 3100, 2136)
        assert len(result.history) == 8
        digest = hashlib.sha256(json.dumps(result.history).encode()).hexdigest()
        assert digest.startswith("f95116ced2617583")
        # Budget checked between epochs: at most one epoch of offspring and
        # one immigrant per island and generation over it.
        assert 4000 <= result.evals < 4000 + 4 * EPOCH_GENERATIONS * (30 + 1)

    def test_parallel_checkpoints_once_per_epoch(self, tmp_path):
        # The generation count advances one epoch at a time, so a checkpoint
        # interval below EPOCH_GENERATIONS still writes one line per epoch,
        # at its end; the serial run of the same config writes every 2.
        seed, target, layout = small_setup()
        config = small_config(layout, n_islands=2, max_evals=1500, checkpoint_every=2)
        written = {}
        for runner in (run, run_distributed):
            out = tmp_path / runner.__name__
            runner(config, target, seed, out_dir=out)
            lines = (out / "checkpoints.ndjson").read_text().splitlines()
            written[runner] = [json.loads(line)["generation"] for line in lines]
        assert written[run] == list(range(2, 25, 2))
        assert written[run_distributed] == list(range(EPOCH_GENERATIONS, 25, EPOCH_GENERATIONS))

    def test_one_island_matches_serial(self):
        seed, target, layout = small_setup()
        # 25 epochs' worth, so the serial run also stops on an epoch boundary.
        config = small_config(layout, max_evals=32 + 25 * EPOCH_GENERATIONS * 30)
        parallel = run_distributed(config, target, seed)
        serial = run(config, target, seed)
        assert parallel.champion.genotype.to_hex() == serial.champion.genotype.to_hex()
        assert parallel.evals == serial.evals

    def test_parallel_scored_sums_workers(self):
        # Without migration every island runs as in the serial engine, and
        # both drivers stop after 8 generations, so the counts must agree.
        seed, target, layout = small_setup()
        config = small_config(layout, n_islands=2, migration_rate=0.0,
                              max_evals=2 * (32 + 2 * EPOCH_GENERATIONS * 30))
        engine = Engine(config, target, seed)
        serial = engine.run()
        per_island = [island.scored for island in engine.islands]
        decoded = [island.decoded for island in engine.islands]
        parallel = run_distributed(config, target, seed)
        assert parallel.evals == serial.evals
        assert parallel.scored == serial.scored == sum(per_island)
        assert all(0 < n < parallel.scored for n in per_island)
        assert parallel.decoded == serial.decoded == sum(decoded)
        assert all(0 < n < parallel.decoded for n in decoded)

    def test_dead_worker_raises(self):
        # In a child interpreter with a timeout, so a driver that blocks on a
        # dead worker fails this test instead of hanging the suite.
        paths = [str(Path(tscsynth.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run([sys.executable, "-c", _KILL_ISLAND_1], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "RuntimeError: island 1 worker exited" in done.stdout
