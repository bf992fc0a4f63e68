"""Generational GA per island, spiral-grid topology, migration, run control.

Each island owns a population of ``POPULATION_SIZE`` (32) genotypes.  A
generation keeps the top ``ELITES`` individuals and refills the rest with
``CROSSOVERS`` single-point crossover offspring, ``BIT_MUTANTS`` single-bit
mutants, ``TRANSLOCATIONS`` whole-gene translocation mutants and
``ROUTING_MUTANTS`` routing mutants, parents drawn by linear rank selection
in which the best individual is twice as likely to be picked as the median.
Islands sit on a square grid filled in spiral order and occasionally
emigrate individuals to islands chosen with probability inverse to grid
distance.

Most children differ from their parent only in genes the parent's decode
never read.  Each ``Individual`` keeps what its decode read (a
``genome.Reading``: a mask of the bits read and the cycle-repair sites), and
a child that agrees with a parent (either one, for a crossover) on every
bit that parent read is not decoded: decode would take the parent's walk,
read the same genes and draw its repairs at the same sites in the same
order, so ``genome.redraw`` gives the parent's netlist with only those
sources drawn again from the island's rng.  That is the same circuit and
the same rng state as decoding, so every search is unchanged;
``RunResult.decoded`` counts the evaluations that did decode.  When redraw
returns the parent's own ``Circuit``, the child takes the parent's fitness
as well, since an island never changes the target, ``max_gates`` or
``word_mask`` that fix a circuit's fitness; ``RunResult.scored`` counts the
evaluations that ran ``evaluate_circuit``.

One ``Engine`` drives both schedules: it checks a run's settings and
populates every island before any island steps, and takes each island's
counts and best only through ``Engine.note`` (``Island.report``).  Islands
step only through ``Island.epoch``, immigrants in and emigrants out, and the
engine's inboxes hold the migrants between epochs.  ``run`` runs
one-generation epochs in turn in one process, ``run_distributed`` longer
ones in worker processes; both are deterministic for a fixed configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

from .fitness import FitnessVector, evaluate_circuit
from .formats import TargetSpec
from .genome import (
    Genotype,
    GenomeLayout,
    LockMask,
    Reading,
    crossover_single_point,
    decode,
    encode_seed,
    mutate_bit,
    mutate_routing,
    mutate_translocate,
    redraw,
    same_reading,
    seed_lock_mask,
)
from .netlist import Circuit
from .sim import check_word_mask


ELITES = 2
CROSSOVERS = 6
BIT_MUTANTS = 16
TRANSLOCATIONS = 2
ROUTING_MUTANTS = 6
POPULATION_SIZE = ELITES + CROSSOVERS + BIT_MUTANTS + TRANSLOCATIONS + ROUTING_MUTANTS


@dataclass(frozen=True)
class IslandConfig:
    layout: GenomeLayout
    migration_rate: float = 0.1
    rng_seed: int = 0
    mode: str = "unconstrained"  # or "nonintrusive"
    n_islands: int = 1
    max_evals: int | None = None
    max_seconds: float | None = None
    goal_size: int | None = None
    stop_on_goal: bool = True
    word_mask: int | None = None
    checkpoint_every: int = 50

    def __post_init__(self) -> None:
        if self.mode not in ("unconstrained", "nonintrusive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_islands < 1:
            raise ValueError("need at least one island")
        # Written so that NaN, which compares false, is rejected too.
        if not 0.0 <= self.migration_rate <= 1.0:
            raise ValueError(f"migration rate {self.migration_rate!r} is not in [0, 1]")
        if self.max_seconds is not None and not self.max_seconds >= 0.0:
            raise ValueError(f"time budget {self.max_seconds!r} is not >= 0 seconds")
        if self.max_evals is not None and self.max_evals < 0:
            raise ValueError(f"eval budget {self.max_evals} is negative")
        if self.goal_size is not None and self.goal_size < 0:
            raise ValueError(f"goal size {self.goal_size} is negative")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint interval {self.checkpoint_every} is negative")
        check_word_mask(self.word_mask, self.layout.r)


@dataclass
class Individual:
    genotype: Genotype
    circuit: Circuit
    fitness: FitnessVector
    reading: Reading  # what the genotype's decode read (see genome.Reading)


def _fitness_key(ind: Individual):
    return ind.fitness.key()


@lru_cache(maxsize=None)
def _rank_cum_weights(n: int) -> tuple[int, ...]:
    # Weight (n-1) - i for rank i makes the best twice as likely as the
    # median for even n; the worst rank gets weight zero.
    return tuple(accumulate(n - 1 - i for i in range(n)))


def select_parent(sorted_population: list, rng: random.Random):
    """Linear rank selection over a population sorted best-first."""
    n = len(sorted_population)
    if n == 0:
        raise ValueError("empty population")
    # The one draw and the pick of rng.choices(..., cum_weights=cum, k=1).
    cum = _rank_cum_weights(n)
    return sorted_population[bisect_right(cum, rng.random() * cum[-1], 0, n - 1)]


def spiral_coords(index: int) -> tuple[int, int]:
    """Grid position of the index-th island on the outward square spiral."""
    if index < 0:
        raise ValueError("negative island index")
    x = y = 0
    remaining = index
    run = 1
    leg = 0
    dirs = ((1, 0), (0, 1), (-1, 0), (0, -1))
    while remaining > 0:
        dx, dy = dirs[leg % 4]
        step = min(run, remaining)
        x += dx * step
        y += dy * step
        remaining -= step
        if step < run:
            break
        leg += 1
        if leg % 2 == 0:
            run += 1
    return (x, y)


def migration_weights(source: int, n_islands: int) -> list[float]:
    """Inverse-Euclidean-distance weight of each of n_islands islands from
    island source, by their grid positions; the source gets zero."""
    x, y = spiral_coords(source)
    return [0.0 if i == source else 1.0 / math.hypot(cx - x, cy - y)
            for i, (cx, cy) in enumerate(map(spiral_coords, range(n_islands)))]


@lru_cache(maxsize=None)
def _migration_cum_weights(source: int, n_islands: int) -> tuple[float, ...]:
    return tuple(accumulate(migration_weights(source, n_islands)))


def pick_migration_target(source: int, n_islands: int, rng: random.Random) -> int:
    """Index of the destination island, drawn with probability inverse to its
    grid distance from island source."""
    cum = _migration_cum_weights(source, n_islands)
    if cum[-1] == 0.0:
        raise ValueError("no island other than the source to migrate to")
    # The one draw and the pick of rng.choices(range(n_islands), weights, k=1).
    return bisect_right(cum, rng.random() * cum[-1], 0, n_islands - 1)


def _island_rng_seed(master_seed: int, island_index: int) -> int:
    # Stable derivation so adding islands never perturbs existing streams.
    digest = hashlib.sha256(f"{master_seed}:{island_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Island:
    """One population plus its private random stream and counts: evals, and
    of those the evaluations that scored and decoded.  Both drivers step an
    island only through ``epoch``; its migrants travel through the Engine."""

    def __init__(self, index: int, config: IslandConfig, target: TargetSpec,
                 seed_circuit: Circuit, lock: LockMask):
        self.index = index
        self.config = config
        self.target = target
        self.seed_circuit = seed_circuit
        self.lock = lock
        self.rng = random.Random(_island_rng_seed(config.rng_seed, index))
        self.population: list[Individual] = []
        self.evals = 0
        self.scored = 0
        self.decoded = 0

    def populate(self) -> None:
        layout = self.config.layout
        individuals = []
        for _ in range(POPULATION_SIZE):
            genotype, _ = encode_seed(self.seed_circuit, layout, self.rng)
            individuals.append(self._evaluate(genotype))
        individuals.sort(key=_fitness_key, reverse=True)
        self.population = individuals

    def _evaluate(self, genotype: Genotype, *parents: Individual) -> Individual:
        """Decode and score genotype, a child of parents.  A child that reads
        as a parent (genome.same_reading) takes that parent's netlist with
        its cycle repairs redrawn, which is what decode would return, and
        the parent's fitness when the redraw leaves the netlist as it was."""
        self.evals += 1
        for parent in parents:
            if same_reading(parent.reading, parent.genotype, genotype):
                reading = parent.reading
                circuit = redraw(parent.circuit, reading.repairs, self.rng)
                if circuit is parent.circuit:
                    return Individual(genotype, circuit, parent.fitness, reading)
                break
        else:
            reading = Reading()
            circuit = decode(genotype, self.rng, reading)
            self.decoded += 1
        self.scored += 1
        fv = evaluate_circuit(circuit, self.target.columns,
                              self.config.layout.max_gates, self.config.word_mask)
        return Individual(genotype, circuit, fv, reading)

    def step(self) -> None:
        """One generation: elites carried with their evaluation, every other
        slot refilled and evaluated."""
        pop = self.population
        rng = self.rng
        lock = self.lock

        offspring: list[Individual] = list(pop[:ELITES])
        for _ in range(CROSSOVERS):
            pa = select_parent(pop, rng)
            pb = select_parent(pop, rng)
            child = crossover_single_point(pa.genotype, pb.genotype, rng)
            offspring.append(self._evaluate(child, pa, pb))
        # Looked up at each step, so an operator patched into this module is called.
        for n, operator in ((BIT_MUTANTS, mutate_bit),
                            (TRANSLOCATIONS, mutate_translocate),
                            (ROUTING_MUTANTS, mutate_routing)):
            for _ in range(n):
                parent = select_parent(pop, rng)
                offspring.append(
                    self._evaluate(operator(parent.genotype, lock, rng), parent))
        offspring.sort(key=_fitness_key, reverse=True)
        self.population = offspring

    def make_migrant(self) -> Genotype:
        return select_parent(self.population, self.rng).genotype

    def epoch(self, generations: int, immigrants: list[Genotype]):
        """Evaluate each immigrant into the worst slot (never an elite's), then
        step up to generations generations, each followed, with probability
        migration_rate, by a migrant addressed by pick_migration_target; end
        early on a goal the run stops on.  Returns (report(), emigrants)."""
        for genotype in immigrants:
            self.population[-1] = self._evaluate(genotype)
            self.population.sort(key=_fitness_key, reverse=True)
        config = self.config
        rate, n = config.migration_rate, config.n_islands
        emigrants: list[tuple[int, Genotype]] = []
        for _ in range(generations):
            self.step()
            if rate > 0.0 and n > 1 and self.rng.random() < rate:
                migrant = self.make_migrant()
                emigrants.append((pick_migration_target(self.index, n, self.rng), migrant))
            if config.stop_on_goal and _goal_met(config, self.population[0].fitness):
                break
        return self.report(), emigrants

    def report(self) -> tuple[int, tuple[int, int, int], Individual]:
        """(index, (evals, scored, decoded), population[0]), for Engine.note.
        Elites lead each generation and the stable sort keeps them ahead of
        ties, so population[0] is the best the island has held."""
        return self.index, (self.evals, self.scored, self.decoded), self.population[0]


def _goal_met(config: IslandConfig, fitness: FitnessVector) -> bool:
    """fitness checks perfectly within ``goal_size`` live gates."""
    return fitness.perfect_checking and (
        config.goal_size is None or fitness.live_gates <= config.goal_size)


@dataclass
class RunResult:
    champion: Individual
    history: list[dict]
    evals: int
    scored: int  # evaluations that ran evaluate_circuit, not reusing a parent's
    decoded: int  # evaluations that decoded, not reusing a parent's netlist
    elapsed: float
    goal_reached: bool


class Engine:
    """Multi-island driver; deterministic for a fixed configuration.

    An engine checks what needs the seed, the target and the layout together
    (the three shapes agree, the seed fits the gene slots; the layout and
    ``genome.seed_lock_mask`` refuse the rest); then makes ``out_dir``,
    deleting an earlier run's ``checkpoints.ndjson`` there; then populates
    every island.  So a settings error leaves no directory and costs no
    search.  Islands
    report only through ``note``, which stores each island's counts: the
    budget, the history, the checkpoints and ``counts`` read those.  ``run``
    steps the islands round-robin here, an ``Island.epoch`` of one generation
    each, noting each and ``deliver``-ing its emigrants at once to the
    engine's inboxes, the only ones; ``take`` empties one for an epoch.
    ``run_distributed`` runs the same populated islands' epochs in workers
    and notes and delivers after each round of epochs.
    """

    def __init__(
        self,
        config: IslandConfig,
        target: TargetSpec,
        seed_circuit: Circuit,
        out_dir: str | Path | None = None,
    ):
        layout, seed = config.layout, seed_circuit
        if (seed.r, seed.q) != (target.r, target.q):
            raise ValueError(f"seed is {seed.r} in/{seed.q} out but target is "
                             f"{target.r} in/{target.q} out")
        if (target.r, target.q) != (layout.r, layout.q):
            raise ValueError(f"target is {target.r} in/{target.q} out but layout is "
                             f"{layout.r} in/{layout.q} out")
        # The seed takes a gene slot per gate.
        if len(seed.tt) > layout.max_gates:
            raise ValueError(f"seed has {len(seed.tt)} gates, layout holds "
                             f"{layout.max_gates}: raise the address width b")
        self.config = config
        self.started = time.monotonic()
        lock = (seed_lock_mask(seed, layout) if config.mode == "nonintrusive"
                else LockMask.empty())
        self.out_dir = Path(out_dir) if out_dir is not None else None
        if self.out_dir is not None:
            # Made before the search, so an unusable path costs no search;
            # an earlier run's checkpoints are not this run's.
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "checkpoints.ndjson").unlink(missing_ok=True)
        self.islands = [Island(i, config, target, seed, lock)
                        for i in range(config.n_islands)]
        self.island_counts = [(0, 0, 0)] * config.n_islands
        self.inboxes: list[list[Genotype]] = [[] for _ in range(config.n_islands)]
        self.generation = 0
        self.champion: Individual | None = None
        self.history: list[dict] = []
        for island in self.islands:
            island.populate()
            self.note([island.report()])

    def note(self, reports: list[tuple[int, tuple[int, int, int], Individual]]) -> None:
        """Store the counts of each ``Island.report`` in reports, then note
        each best in index order: one that beats the champion becomes it and
        adds a history entry."""
        for index, counts, _ in reports:
            self.island_counts[index] = counts
        for index, _, best in reports:
            if self.champion is None or _fitness_key(best) > _fitness_key(self.champion):
                self.champion = best
                self.history.append({
                    "evals": self.counts()[0], "generation": self.generation,
                    "island": index, "fitness": list(best.fitness.key()),
                    "live_gates": best.fitness.live_gates})

    def deliver(self, emigrants: list[tuple[int, Genotype]]) -> None:
        """File each (island index, genotype) pair in that island's inbox."""
        for dest, genotype in emigrants:
            self.inboxes[dest].append(genotype)

    def take(self, index: int) -> list[Genotype]:
        """Empty island index's inbox and return what it held."""
        immigrants, self.inboxes[index] = self.inboxes[index], []
        return immigrants

    def _stops_on_goal(self) -> bool:
        return self.config.stop_on_goal and _goal_met(self.config, self.champion.fitness)

    def step_generation(self) -> None:
        """One global generation across all islands."""
        for island in self.islands:
            if self.exhausted():
                return
            report, emigrants = island.epoch(1, self.take(island.index))
            self.note([report])
            self.deliver(emigrants)
            if self._stops_on_goal():
                return
        self.advance(1)

    def advance(self, generations: int) -> None:
        """Count generations finished on every island; checkpoint once
        whenever the count passes a multiple of ``checkpoint_every``.  ``run``
        advances one generation at a time, ``run_distributed`` one epoch of
        ``EPOCH_GENERATIONS``, so it writes at most one checkpoint per epoch:
        with ``checkpoint_every`` 2, at generations 4, 8, ... where ``run``
        writes at 2, 4, 6, ...."""
        every = self.config.checkpoint_every
        before = self.generation
        self.generation += generations
        if (
            self.out_dir is not None
            and every > 0
            and self.generation // every > before // every
        ):
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        layout = self.config.layout
        record = {
            "genotype": self.champion.genotype.to_hex(),
            "fitness": list(self.champion.fitness.key()),
            "source": list(spiral_coords(self.history[-1]["island"])),
            "generation": self.generation,
            "layout": {"r": layout.r, "q": layout.q, "b": layout.b},
            "evals": self.counts()[0],
            "elapsed_s": round(self.elapsed(), 3),
        }
        with (self.out_dir / "checkpoints.ndjson").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def counts(self) -> tuple[int, int, int]:
        """(evals, scored, decoded): the sums of the noted island counts."""
        return tuple(map(sum, zip(*self.island_counts)))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def exhausted(self) -> bool:
        evals, seconds = self.config.max_evals, self.config.max_seconds
        return (evals is not None and self.counts()[0] >= evals
                or seconds is not None and self.elapsed() >= seconds)

    def done(self) -> bool:
        """The budget is spent, or the champion meets a goal the run stops on."""
        return self.exhausted() or self._stops_on_goal()

    def result(self) -> RunResult:
        assert self.champion is not None
        evals, scored, decoded = self.counts()
        return RunResult(self.champion, self.history, evals, scored, decoded,
                         self.elapsed(), _goal_met(self.config, self.champion.fitness))

    def run(self) -> RunResult:
        while not self.done():
            self.step_generation()
        return self.result()


def run(
    config: IslandConfig,
    target: TargetSpec,
    seed_circuit: Circuit,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Seed every island, evolve until budget or goal, return the champion."""
    return Engine(config, target, seed_circuit, out_dir=out_dir).run()


# ---------------------------------------------------------------------------
# Process-per-island mode.  Messages are pickled over multiprocessing pipes;
# nothing depends on timing, so a run reproduces.
# ---------------------------------------------------------------------------

EPOCH_GENERATIONS = 4


def _island_worker(island: Island, conn) -> None:
    """For each list of immigrants received, forever, run a populated
    island's ``Island.epoch`` of ``EPOCH_GENERATIONS`` generations and send
    what it returns: the report for Engine.note and the emigrants for
    Engine.deliver.  The island's counts stay on the island; the driver
    keeps only what the reports say."""
    while True:
        conn.send(island.epoch(EPOCH_GENERATIONS, conn.recv()))


def _worker_exited(island: int, worker) -> RuntimeError:
    worker.join(timeout=5)
    return RuntimeError(
        f"island {island} worker exited (exit code {worker.exitcode})"
    )


def run_distributed(
    config: IslandConfig,
    target: TargetSpec,
    seed_circuit: Circuit,
    out_dir: str | Path | None = None,
) -> RunResult:
    """One process per island, synchronised in epochs; deterministic for a
    fixed configuration.

    The driver builds ``run``'s ``Engine``, which checks the settings and
    populates every island here: a settings error comes before any worker
    starts, and a run that populating ends starts none.  Each worker runs a
    populated ``Island``'s epochs of ``EPOCH_GENERATIONS`` generations on
    what the driver takes from the engine's inboxes, and the driver notes
    the reports and delivers the emigrants after each round of epochs; its
    own islands stay as populated.  Migrants are drawn from each island's
    own rng as in ``run``, but reach their destination at the next epoch.

    The eval budget, the time limit and the goal are checked only between
    epochs, so a run overshoots ``max_evals`` by at most one epoch of evals
    per island (``EPOCH_GENERATIONS`` times the non-elite offspring) plus the
    immigrants evaluated in that epoch.  With one island the champion is
    ``run``'s whenever ``run`` stops on an epoch boundary.

    Workers are started by the spawn method, so a script that calls this
    needs the ``if __name__ == "__main__":`` guard.  Raises RuntimeError
    naming the island if a worker process dies.
    """
    engine = Engine(config, target, seed_circuit, out_dir)
    if engine.done():
        return engine.result()
    ctx = multiprocessing.get_context("spawn")
    conns, workers = [], []
    try:
        for island in engine.islands:
            conn, child_conn = ctx.Pipe()
            worker = ctx.Process(target=_island_worker, args=(island, child_conn),
                                 name=f"tscsynth-island-{island.index}")
            worker.start()
            workers.append(worker)
            conns.append(conn)
            child_conn.close()  # the worker's death now reads as end of file
        while not engine.done():
            for i, (conn, worker) in enumerate(zip(conns, workers)):
                try:
                    conn.send(engine.take(i))
                except (BrokenPipeError, ConnectionResetError):
                    raise _worker_exited(i, worker) from None
            reports = []
            for i, (conn, worker) in enumerate(zip(conns, workers)):
                try:
                    report, emigrants = conn.recv()
                except (EOFError, ConnectionResetError):
                    # A worker killed with immigrants unread resets the pipe.
                    raise _worker_exited(i, worker) from None
                reports.append(report)
                engine.deliver(emigrants)
            engine.note(reports)
            engine.advance(EPOCH_GENERATIONS)
        return engine.result()
    finally:
        for worker in workers:
            worker.terminate()  # idle in recv, or abandoned after a failure
            worker.join()
        for conn in conns:
            conn.close()
