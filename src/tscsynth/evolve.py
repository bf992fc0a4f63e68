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

``run`` steps every island of one ``Engine`` in one process.
``run_distributed`` runs one process per ``Island``: each steps its island
for ``EPOCH_GENERATIONS`` generations and reports its counts, best and
outgoing migrants, then the driver, an ``Engine`` with no islands, routes
the migrants and starts the next epoch.  Each island counts its own
evaluations, and a run's counts are their sums (``Engine.counts``).  Both
drivers are deterministic for a fixed configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import random
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
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
    unlocked_genes,
)
from .netlist import Circuit


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
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint interval {self.checkpoint_every} is negative")


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
    if n == 1:
        return sorted_population[0]
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
    """One population plus its private random stream, immigrant inbox,
    emigrant outbox of (island index, genotype) pairs and counts: evals, and
    of those the evaluations that scored and decoded."""

    def __init__(self, index: int, config: IslandConfig, target: TargetSpec,
                 seed_circuit: Circuit, lock: LockMask):
        self.index = index
        self.config = config
        self.target = target
        self.seed_circuit = seed_circuit
        self.lock = lock
        self.rng = random.Random(_island_rng_seed(config.rng_seed, index))
        self.inbox: deque[Genotype] = deque()
        self.outbox: list[tuple[int, Genotype]] = []
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

    def _integrate_immigrants(self) -> None:
        while self.inbox:
            # Immigrants are re-evaluated locally and replace the current
            # worst individual (always non-elite for populations above two).
            self.population[-1] = self._evaluate(self.inbox.popleft())
            self.population.sort(key=_fitness_key, reverse=True)

    def step(self) -> None:
        """One generation: elites carried with their evaluation, every other
        slot refilled and evaluated."""
        self._integrate_immigrants()
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

    def emigrate(self) -> None:
        """With probability migration_rate, put a migrant in the outbox,
        addressed to an island drawn by pick_migration_target."""
        rate, n = self.config.migration_rate, self.config.n_islands
        if rate > 0.0 and n > 1 and self.rng.random() < rate:
            migrant = self.make_migrant()
            self.outbox.append((pick_migration_target(self.index, n, self.rng), migrant))


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

    An engine holds every island of a run, or none with ``with_islands``
    false.  Islands are stepped round-robin; each emigrates into its outbox
    after its step, and the engine delivers the outbox at once.  With no
    islands, as ``run_distributed``'s driver, an engine only keeps the
    record: champion, history, counts and checkpoints.  ``counts`` adds the
    islands' counts to ``reported``, the totals of the driver's workers, and
    the budget reads it.
    """

    def __init__(
        self,
        config: IslandConfig,
        target: TargetSpec,
        seed_circuit: Circuit,
        out_dir: str | Path | None = None,
        *,
        with_islands: bool = True,
    ):
        if seed_circuit.r != config.layout.r or seed_circuit.q != config.layout.q:
            raise ValueError("seed circuit shape does not match layout")
        if target.r != config.layout.r or target.q != config.layout.q:
            raise ValueError("target shape does not match layout")
        self.config = config
        self.target = target
        self.seed_circuit = seed_circuit
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.started = time.monotonic()
        self.reported = (0, 0, 0)
        self.lock = (
            seed_lock_mask(seed_circuit, config.layout)
            if config.mode == "nonintrusive"
            else LockMask.empty()
        )
        # Translocation copies a gene over another, unlocked one.
        slots = config.layout.max_gates
        if slots < 2:
            raise ValueError(f"the layout has {slots} gene slot, translocation "
                             "needs 2: raise the address width b")
        if not unlocked_genes(config.layout, self.lock):
            raise ValueError(f"the seed's function core fills all {slots} gene "
                             "slots, which nonintrusive mode locks, so translocation "
                             "has no gene to write: raise the address width b")
        self.islands = [Island(i, config, target, seed_circuit, self.lock)
                        for i in range(config.n_islands if with_islands else 0)]
        self.generation = 0
        self.champion: Individual | None = None
        self.history: list[dict] = []
        for island in self.islands:
            island.populate()
            self._note_champion(island.population[0], island.index)

    def _note_champion(self, best: Individual, island: int) -> None:
        if self.champion is None or _fitness_key(best) > _fitness_key(self.champion):
            self.champion = best
            self.history.append(
                {
                    "evals": self.counts()[0],
                    "generation": self.generation,
                    "island": island,
                    "fitness": list(best.fitness.key()),
                    "live_gates": best.fitness.live_gates,
                }
            )

    def _stops_on_goal(self) -> bool:
        return self.config.stop_on_goal and _goal_met(self.config, self.champion.fitness)

    def step_generation(self) -> None:
        """One global generation across all islands."""
        for island in self.islands:
            if self.exhausted():
                return
            island.step()
            self._note_champion(island.population[0], island.index)
            island.emigrate()
            for dest, migrant in island.outbox:
                self.islands[dest].inbox.append(migrant)
            island.outbox.clear()
            if self._stops_on_goal():
                return
        self._advance(1)

    def _advance(self, generations: int) -> None:
        """Count generations finished on every island; checkpoint each time
        the count passes a multiple of ``checkpoint_every``."""
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
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
        """(evals, scored, decoded): the islands' sums plus ``reported``."""
        per_island = ((i.evals, i.scored, i.decoded) for i in self.islands)
        return tuple(map(sum, zip(self.reported, *per_island)))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def exhausted(self) -> bool:
        evals, seconds = self.config.max_evals, self.config.max_seconds
        return (evals is not None and self.counts()[0] >= evals
                or seconds is not None and self.elapsed() >= seconds)

    def result(self) -> RunResult:
        assert self.champion is not None
        evals, scored, decoded = self.counts()
        return RunResult(self.champion, self.history, evals, scored, decoded,
                         self.elapsed(), _goal_met(self.config, self.champion.fitness))

    def run(self) -> RunResult:
        while not (self.exhausted() or self._stops_on_goal()):
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
# Process-per-island mode.  Each worker process owns one Island and steps it
# for an epoch of EPOCH_GENERATIONS generations per message from the driver.
# The driver, an Engine with no islands, collects every worker's report,
# routes the migrants each one emitted for other islands, and sends them as
# the next epoch's immigrants.  Messages are pickled over multiprocessing
# pipes; nothing depends on timing, so the run reproduces.
# ---------------------------------------------------------------------------

EPOCH_GENERATIONS = 4


def _island_worker(
    config: IslandConfig,
    target: TargetSpec,
    seed_circuit: Circuit,
    lock: LockMask,
    index: int,
    conn,
) -> None:
    """Populate island index with the driver's lock, report, then run one
    epoch per list of immigrants received, forever.

    A report is (counts, best, outbox): the island's (evals, scored,
    decoded), ``population[0]`` and its emigrants since the last report as
    (island, genotype) pairs.  Elites lead each generation and the stable
    sort keeps them ahead of ties, so ``population[0]`` is the best the
    island has held.
    """
    island = Island(index, config, target, seed_circuit, lock)
    island.populate()
    while True:
        conn.send(((island.evals, island.scored, island.decoded),
                   island.population[0], island.outbox))
        island.outbox = []
        island.inbox.extend(conn.recv())
        for _ in range(EPOCH_GENERATIONS):
            island.step()
            island.emigrate()
            if config.stop_on_goal and _goal_met(config, island.population[0].fitness):
                break


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

    Each worker process steps one ``Island`` for ``EPOCH_GENERATIONS``
    generations an epoch (fewer once it reaches the goal).  Migrants are
    drawn from each island's own rng as in ``run``, but reach their
    destination at the start of the next epoch.  The driver, an ``Engine``
    with no islands, keeps the champion and the history and writes the
    checkpoints.  Each worker reports its island's counts, best and
    outgoing migrants; the driver keeps the sum of the counts as its
    ``reported``, so its history, checkpoints, budget and result count all
    islands.

    The eval budget, the time limit and the goal are checked only between
    epochs, so a run overshoots ``max_evals`` by at most one epoch of evals
    per island (``EPOCH_GENERATIONS`` times the non-elite offspring) plus the
    immigrants evaluated in that epoch.  With one island the champion is
    ``run``'s whenever ``run`` stops on an epoch boundary.

    Workers are started by the spawn method, so a script that calls this
    needs the ``if __name__ == "__main__":`` guard.  Raises RuntimeError
    naming the island if a worker process dies.
    """
    driver = Engine(config, target, seed_circuit, out_dir, with_islands=False)
    ctx = multiprocessing.get_context("spawn")
    conns, workers = [], []
    try:
        for i in range(config.n_islands):
            conn, child_conn = ctx.Pipe()
            worker = ctx.Process(
                target=_island_worker,
                args=(config, target, seed_circuit, driver.lock, i, child_conn),
                name=f"tscsynth-island-{i}",
            )
            worker.start()
            workers.append(worker)
            conns.append(conn)
            child_conn.close()  # the worker's death now reads as end of file
        for epoch in count():
            reports = []
            for i, (conn, worker) in enumerate(zip(conns, workers)):
                try:
                    reports.append(conn.recv())
                except EOFError:
                    raise _worker_exited(i, worker) from None
            driver.reported = tuple(map(sum, zip(*(report[0] for report in reports))))
            inboxes: list[list[Genotype]] = [[] for _ in workers]
            for i, (_, champion, outbox) in enumerate(reports):
                driver._note_champion(champion, i)
                for dest, genotype in outbox:
                    inboxes[dest].append(genotype)
            if epoch:
                driver._advance(EPOCH_GENERATIONS)
            if driver.exhausted() or driver._stops_on_goal():
                return driver.result()
            for i, (conn, worker) in enumerate(zip(conns, workers)):
                try:
                    conn.send(inboxes[i])
                except (BrokenPipeError, ConnectionResetError):
                    raise _worker_exited(i, worker) from None
    finally:
        for worker in workers:
            worker.terminate()  # idle in recv, or abandoned after a failure
            worker.join()
        for conn in conns:
            conn.close()
