"""The three workloads of the tscsynth benchmark.

All load is generated in this one process and the library is driven only
through its public functions: ``evolve.run`` (serial islands), ``genome.decode``
and the variation operators, ``fitness.evaluate_circuit``,
``fault_free_response`` and ``evaluate_checking``, and ``verify.verify_tsc``
and ``verify_fs``.  ``run_distributed`` is left out because its results cannot
be reproduced.

search-halfadder
    ``evolve.run`` on the two-input half adder (r=2, q=2, b=4), four islands,
    12k evals per search, stopping at the first perfect champion; the outcome
    metrics are taken over a fixed set of eight rng seeds.  It is the only
    problem that reaches verified TSC, so it carries the paper's success and
    overhead measures.  Its circuits are four words wide: decode is the
    largest layer and checking a small one, so fault-parallel checking should
    barely move it, while a faster decode or cheaper variation and selection
    should.
search-mult2
    ``evolve.run`` on ``benchmarks/mult2`` (b=6, 60 gene slots), four islands,
    5k evals per search, outcomes over three fixed rng seeds; it does not
    reach TSC.  It is mid-size and mixed: checking and decode take similar
    shares, and a third of the evaluations repeat a circuit the search has
    already scored, so a phenotype-keyed fitness cache shows here, and
    fault-parallel checking shows less than on replay-decod.
replay-decod
    A stream of distinct ``decod`` genotypes (r=5, q=16, 251 slots, about 146
    live gates) replayed through ``decode`` and ``evaluate_circuit``.  Each is
    a few mutations and crossovers of duplication-baseline encodings, and the
    stream keeps only phenotypes it has not produced before whose fault-free
    rails do not collide, so every evaluation takes the full checking path
    and a phenotype cache has nothing to hit.  Checking dominates: this is
    where fault-parallel checking should show most and a cache not at all.
    One circuit of every REPLAY_ROUND batches also goes through ``verify_tsc``.

The search workloads take their success, overhead and champion counts over
a fixed set of rng seeds, so that these repeat exactly from run to run; a
change to any of them means the search trajectory changed.  After the fixed
set a run goes on with fresh rng seeds until its time is up, so that no
timed search repeats one already run in the process.  For them ``--seed``
only rotates the order of the fixed set and picks which traced circuits are
sampled.  The replay stream is generated from ``--seed``.

End-to-end timings are scaled to a nominal machine speed (see ``speed.py``).
"""

from __future__ import annotations

import hashlib
import itertools
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

from tscsynth import evolve, fitness, genome, verify
from tscsynth.evolve import Island, IslandConfig
from tscsynth.formats import TargetSpec, parse_blif, parse_pla
from tscsynth.genome import GenomeLayout, LockMask, default_address_width, encode_seed
from tscsynth.netlist import (
    TT_AND,
    TT_XOR,
    Circuit,
    Gate,
    SignalRef,
    build_duplication_baseline,
    duplication_overhead,
)
from tscsynth.sim import FaultScope, simulate

from speed import Chunk, SpeedProbe
from tracing import Tracer

ISLANDS = 4
# Every SAMPLE_EVERY-th traced decode and evaluation is kept for the side
# measurements: rng dependence, separately timed fault-free and checking.
SAMPLE_EVERY = 64
REPLAY_BATCH = 16
SETUP_MIN_S = 0.05  # repeat short set-ups to time them steadily
REPLAY_ROUND = 3  # batches scored per round, between verify_tsc calls
# verify_tsc is timed on each champion of a search workload's fixed set and
# on up to this many new circuits one mutation away from it.
VERIFY_NEIGHBOURS = 40
# Timed replay set-ups all generate their first batch from this stream seed,
# so that every run times the same set-up work whatever its --seed.
SETUP_STREAM_SEED = 0


@dataclass
class Metric:
    value: float | None  # None: not defined on this workload
    unit: str
    samples: int
    exact: bool = False  # a deterministic count: it must repeat exactly
    raw: float | None = None  # a timing before scaling to nominal speed


def timing(probe: SpeedProbe, chunks, unit: str) -> Metric:
    """Median seconds per call over (chunk, calls) pairs, at nominal speed and
    raw, in ms for unit "ms"."""
    factor = 1e3 if unit == "ms" else 1.0

    def med(seconds):
        return median(seconds(c) / n * factor for c, n in chunks)

    return Metric(med(probe.nominal), unit, len(chunks), raw=med(raw_seconds))


def mean_timing(probe: SpeedProbe, groups, unit: str) -> Metric:
    """The mean over groups of (chunk, calls) pairs of each group's timing."""
    groups = [g for g in groups if g]
    per_group = [timing(probe, g, unit) for g in groups]
    return Metric(statistics.fmean(m.value for m in per_group), unit,
                  sum(map(len, groups)), raw=statistics.fmean(m.raw for m in per_group))


@dataclass
class Checks:
    """Correctness checks made during a run; each failure is a failed op."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Outcome:
    metrics: dict[str, Metric]
    checks: Checks
    record: dict


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def p99(values) -> float | None:
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def digest(genotype: genome.Genotype) -> str:
    return hashlib.sha256(genotype.to_hex().encode()).hexdigest()[:16]


def raw_seconds(chunk: Chunk) -> float:
    return chunk.seconds


def repeat_timed(probe: SpeedProbe, fn: Callable[[], object], min_seconds: float):
    """Call fn once, and again until min_seconds have passed, so that short
    calls are timed steadily; return the last result and (chunk, calls)."""

    def calls():
        n = 0
        t0 = time.perf_counter()
        while True:
            result = fn()
            n += 1
            if time.perf_counter() - t0 >= min_seconds:
                return result, n

    (result, n), chunk = probe.timed(calls)
    return result, (chunk, n)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cross_check(checks: Checks, label: str, circuit: Circuit, fv, report) -> bool:
    """Fitness fast path against the brute-force oracle; True if they agree.

    u_f must equal the faults verify_st leaves undetected and u_i the
    unsignalled incorrect outputs verify_fs finds over output faults; a
    fitness without counts must come with fault-free rail collisions.
    """
    if fv.u_f is None:
        agree = report.false_alarm
    else:
        agree = (
            not report.false_alarm
            and fv.u_f == len(report.undetected)
            and fv.u_i
            == len(verify.verify_fs(circuit, FaultScope.OUTPUTS_ONLY).violations)
        )
    checks.expect(agree, f"{label}: fitness u_f={fv.u_f} u_i={fv.u_i} disagrees "
                         f"with verify ({len(report.undetected)} undetected)")
    checks.expect(
        not fv.perfect_checking or report.is_tsc,
        f"{label}: fitness is perfect but verify_tsc rejects the circuit",
    )
    return agree


# -- tracing -----------------------------------------------------------------


class Sampler:
    """Observes traced decode and evaluate calls.

    Counts evaluations that took the full checking path, their live gates,
    and evaluations whose decoded circuit was already scored in the same
    search; keeps every SAMPLE_EVERY-th genotype and circuit, starting at an
    offset drawn from the workload seed.
    """

    def __init__(self, offset: int):
        self.offset = offset % SAMPLE_EVERY
        self.decodes = 0
        self.evals = 0
        self.checked = 0
        self.live_gates = 0
        self.repeats = 0
        self.seen: set[int] = set()
        self.genotypes: list[genome.Genotype] = []
        self.circuits: list[Circuit] = []

    def new_search(self) -> None:
        self.seen = set()

    def on_decode(self, args, _circuit) -> None:
        if self.decodes % SAMPLE_EVERY == self.offset:
            self.genotypes.append(args[0])
        self.decodes += 1

    def on_evaluate(self, args, fv) -> None:
        circuit = args[0]
        key = hash(circuit)
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)
        if fv.u_f is not None:
            self.checked += 1
        self.live_gates += fv.live_gates
        if self.evals % SAMPLE_EVERY == self.offset:
            self.circuits.append(circuit)
        self.evals += 1


def layer_metrics(tracer: Tracer, root: str, sampler: Sampler, overhead: float,
                  fixed_work: bool) -> dict[str, Metric]:
    """Per-layer metrics of one traced pass whose top-level spans are `root`.

    With fixed_work (a fixed seed set, not a time budget) the counts and the
    shares derived from them repeat exactly.

    Timings here are raw: a traced run alternates untraced and traced work,
    so trace.overhead needs no speed scaling, and layer times are compared
    within the run.
    """
    ff_times, chk_times = [], []
    for c in sampler.circuits:
        t0 = time.perf_counter()
        resp = fitness.fault_free_response(c)
        t1 = time.perf_counter()
        fitness.evaluate_checking(c, resp)
        ff_times.append(t1 - t0)
        chk_times.append(time.perf_counter() - t1)
    rng_dependent = sum(
        genome.decode(g, random.Random(1)) != genome.decode(g, random.Random(2))
        for g in sampler.genotypes
    )
    layers = tracer.layer_times()
    empty = {"durations": [], "self": 0.0}

    def get(name):
        return layers.get(name, empty)

    # Shares are of the traced work, less the tracer's own bookkeeping.
    total = sum(get(root)["durations"]) - get("trace")["self"]

    def share(*names) -> Metric:
        return Metric(sum(get(n)["self"] for n in names) / total, "share",
                      len(get(names[0])["durations"]))

    def calls(name) -> Metric:
        n = len(get(name)["durations"])
        return Metric(n, "count", n, exact=fixed_work)

    def pct(durations, fn, unit) -> Metric:
        v = fn(durations)
        return Metric(v and v * (1e3 if unit == "ms" else 1e6), unit, len(durations))

    def exact_share(count, n) -> Metric:
        return Metric(count / n, "share", n, exact=fixed_work)

    decode = get("genome.decode")["durations"]
    evaluate = get("fitness.evaluate")["durations"]
    n_eval = sampler.evals
    return {
        "genome.decode.calls": calls("genome.decode"),
        "genome.decode.us_p50": pct(decode, median, "us"),
        "genome.decode.us_p99": pct(decode, p99, "us"),
        "genome.decode.share": share("genome.decode"),
        "genome.variation.calls": calls("genome.variation"),
        "genome.variation.us_p50": pct(get("genome.variation")["durations"], median, "us"),
        "genome.variation.share": share("genome.variation"),
        "evolve.select.share": share("evolve.select"),
        "evolve.migration.sent": calls("evolve.migrant"),
        "evolve.migration.share": share("evolve.migrant", "evolve.route"),
        "fitness.evaluate.calls": calls("fitness.evaluate"),
        "fitness.evaluate.us_p50": pct(evaluate, median, "us"),
        "fitness.evaluate.us_p99": pct(evaluate, p99, "us"),
        "fitness.evaluate.share": share("fitness.evaluate"),
        "fitness.fault_free.us_p50": pct(ff_times, median, "us"),
        "fitness.checking.us_p50": pct(chk_times, median, "us"),
        "fitness.checked_share": exact_share(sampler.checked, n_eval),
        "fitness.live_gates_mean": Metric(sampler.live_gates / n_eval, "gates", n_eval,
                                          exact=fixed_work),
        "phenotype.repeat_share": exact_share(sampler.repeats, n_eval),
        "genome.rng_dependent_share": exact_share(rng_dependent, len(sampler.genotypes)),
        "verify.tsc.ms_p50": pct(get("verify.tsc")["durations"], median, "ms"),
        "trace.overhead": Metric(overhead, "share", n_eval),
    }


# -- search workloads --------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    seed_circuit: Circuit
    target: TargetSpec
    layout: GenomeLayout


def half_adder(_root: Path) -> Problem:
    x, g = SignalRef.x, SignalRef.g
    seed = Circuit(
        2, (Gate(TT_XOR, x(0), x(1)), Gate(TT_AND, x(0), x(1))), (g(0), g(1))
    )
    return Problem(seed, TargetSpec(2, 2, tuple(simulate(seed).outputs)),
                   GenomeLayout(r=2, q=2, b=4))


def from_files(name: str) -> Callable[[Path], Problem]:
    def load(root: Path) -> Problem:
        bench = root / "benchmarks"
        target = parse_pla((bench / f"{name}.pla").read_text(encoding="utf-8"))
        seed = parse_blif((bench / f"{name}.blif").read_text(encoding="utf-8"))
        b = default_address_width(seed.r, len(seed.gates), seed.q)
        return Problem(seed, target, GenomeLayout(seed.r, seed.q, b))

    return load


@dataclass
class Search:
    rng_seed: int
    evals: int
    chunk: Chunk
    digest: str
    champion: evolve.Individual


def neighbours(problem: Problem, champion: evolve.Individual, k: int,
               rng: random.Random, seen) -> list[Circuit]:
    """Up to k circuits one mutation from the champion, none of them in seen.

    Each has as many gates as the champion and fault-free rails that never
    collide, so that verify_tsc takes its full path and about the champion's
    time on each: a mutation that wires in unused genes can make a circuit
    ten times as costly to verify.
    """
    full = (1 << (1 << problem.layout.r)) - 1
    ops = (genome.mutate_bit, genome.mutate_routing, genome.mutate_translocate)
    lock = LockMask.empty()
    found: list[Circuit] = []
    for _ in range(50 * k):
        if len(found) == k:
            break
        circuit = genome.decode(rng.choice(ops)(champion.genotype, lock, rng), rng)
        if (circuit in seen or circuit in found
                or len(circuit.gates) != len(champion.circuit.gates)):
            continue
        z0, z1 = fitness.fault_free_response(circuit).rails
        if not (z0 ^ z1) ^ full:
            found.append(circuit)
    return found


def rate(searches, seconds: Callable[[Chunk], float]) -> float:
    """Evals per second over the searches together."""
    searches = list(searches)
    return sum(x.evals for x in searches) / sum(seconds(x.chunk) for x in searches)


@dataclass(frozen=True)
class SearchWorkload:
    load: Callable[[Path], Problem]
    rng_seeds: tuple[int, ...]  # the fixed set the outcome metrics are taken over
    max_evals: int

    def search(self, probe: SpeedProbe, problem: Problem, rng_seed: int) -> Search:
        config = IslandConfig(
            layout=problem.layout,
            rng_seed=rng_seed,
            n_islands=ISLANDS,
            max_evals=self.max_evals,
            goal_size=None,
            stop_on_goal=True,
        )
        result, chunk = probe.timed(
            lambda: evolve.run(config, problem.target, problem.seed_circuit)
        )
        return Search(rng_seed, result.evals, chunk,
                      digest(result.champion.genotype), result.champion)

    def run(self, root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
        k = seed % len(self.rng_seeds)
        order = self.rng_seeds[k:] + self.rng_seeds[:k]
        if trace:
            return self._traced(self.load(root), order, seed)
        probe = SpeedProbe()
        with probe.running():
            return self._measured(probe, root, order, seconds)

    def _measured(self, probe: SpeedProbe, root: Path, order, seconds: float) -> Outcome:
        # Rounds of one search, one verify_tsc of its champion and one set-up,
        # so that every timing samples the same stretch of the machine's
        # speed.  No timing covers work already done in this process, which a
        # cache could remember: every round searches a new rng seed (the fixed
        # set, then fresh seeds above it until the time is up), and verify_tsc
        # runs once on each distinct circuit.  verify_ms_p50 is taken over the
        # fixed set's champions and their neighbours only, as the mean over
        # champions of the median over each one's neighbourhood.  Verify
        # times of different champions differ up to threefold: a median over
        # however many searches fit in the time would follow the speed of the
        # host, a median over all circuits would jump between neighbourhoods,
        # and one short call per champion is too few to time steadily.  Each
        # call is scaled by the reference kernel run right around it.
        checks = Checks()
        problem, setup = repeat_timed(probe, lambda: self.load(root), SETUP_MIN_S)
        setup_times = [setup]
        searches = []
        verify_times: list[list[tuple[Chunk, int]]] = []  # one list per neighbourhood
        reports: dict[Circuit, verify.TscReport] = {}
        mismatches = cross_checked = 0

        def check(label: str, circuit: Circuit, fv, timed: bool) -> None:
            nonlocal mismatches, cross_checked
            if circuit not in reports and timed:
                reports[circuit], chunk = probe.bracketed(lambda: verify.verify_tsc(circuit))
                verify_times[-1].append((chunk, 1))
            elif circuit not in reports:
                reports[circuit] = verify.verify_tsc(circuit)
            cross_checked += 1
            if not cross_check(checks, label, circuit, fv, reports[circuit]):
                mismatches += 1

        start = time.perf_counter()
        for s in itertools.chain(order, itertools.count(max(order) + 1)):
            if len(searches) >= len(order) and time.perf_counter() - start >= seconds:
                break
            x = self.search(probe, problem, s)
            searches.append(x)
            label = f"rng seed {s} champion"
            if len(searches) > len(order):  # a fresh seed: checked, not timed
                check(label, x.champion.circuit, x.champion.fitness, False)
            else:
                verify_times.append([])
                check(label, x.champion.circuit, x.champion.fitness, True)
                near = neighbours(problem, x.champion, VERIFY_NEIGHBOURS, random.Random(s),
                                  reports)
                for i, circuit in enumerate(near):
                    fv = fitness.evaluate_circuit(circuit, problem.target.columns,
                                                  problem.layout.max_gates)
                    check(f"rng seed {s} neighbour {i}", circuit, fv, True)
            setup_times.append(repeat_timed(probe, lambda: self.load(root), SETUP_MIN_S)[1])

        # The same search again, untimed: it must find the same champion.
        first = {x.rng_seed: x for x in searches[: len(order)]}
        again = self.search(probe, problem, order[0])
        checks.expect((again.digest, again.evals) == (first[order[0]].digest,
                                                       first[order[0]].evals),
                      f"rng seed {order[0]}: a repeated search found another champion")

        verdicts = {s: reports[first[s].champion.circuit] for s in self.rng_seeds}
        g = len(problem.seed_circuit.gates)
        dup = duplication_overhead(g, problem.layout.q)
        won = [s for s in self.rng_seeds if verdicts[s].is_tsc]
        n = len(self.rng_seeds)

        metrics = {
            "setup_s": timing(probe, setup_times, "s"),
            "evals_per_s": Metric(rate(searches, probe.nominal), "1/s", len(searches),
                                  raw=rate(searches, raw_seconds)),
            "tsc_success_rate": Metric(len(won) / n, "share", n, exact=True),
            "evals_to_tsc_p50": Metric(median(first[s].evals for s in won), "evals",
                                       len(won), exact=True),
            "seconds_to_tsc_p50": timing(probe, [(first[s].chunk, 1) for s in won], "s"),
            "overhead_vs_dup_p50": Metric(
                median((first[s].champion.fitness.live_gates - g) / dup for s in won),
                "ratio", len(won), exact=True),
            "champion_undetected_p50": Metric(
                median(len(verdicts[s].undetected) for s in self.rng_seeds),
                "faults", n, exact=True),
            "champion_unsignalled_p50": Metric(
                median(len(verdicts[s].violations) for s in self.rng_seeds),
                "outputs", n, exact=True),
            "verify_ms_p50": mean_timing(probe, verify_times, "ms"),
            "oracle_mismatches": Metric(mismatches, "count", cross_checked),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }
        record = {
            "searches": len(searches),
            "champions": [
                {
                    "rng_seed": s,
                    "digest": first[s].digest,
                    "evals": first[s].evals,
                    "live_gates": first[s].champion.fitness.live_gates,
                    "verified_tsc": verdicts[s].is_tsc,
                }
                for s in self.rng_seeds
            ],
        }
        return Outcome(metrics, checks, record)

    def _traced(self, problem: Problem, order, seed: int) -> Outcome:
        """Each search of the fixed set untraced, then again traced; the
        champions must match.  verify_tsc runs once on each new champion."""
        checks = Checks()
        tracer = Tracer()
        sampler = Sampler(seed)
        clock = SpeedProbe()  # not running: raw timings
        targets = [
            (evolve, "run", "evolve.run"),
            (evolve, "decode", "genome.decode", sampler.on_decode),
            (evolve, "evaluate_circuit", "fitness.evaluate", sampler.on_evaluate),
            (evolve, "crossover_single_point", "genome.variation"),
            (evolve, "mutate_bit", "genome.variation"),
            (evolve, "mutate_routing", "genome.variation"),
            (evolve, "mutate_translocate", "genome.variation"),
            (evolve, "select_parent", "evolve.select"),
            (Island, "make_migrant", "evolve.migrant"),
            (evolve, "pick_migration_target", "evolve.route"),
            (verify, "verify_tsc", "verify.tsc"),
        ]
        untraced, traced = {}, {}
        verified: set[Circuit] = set()
        for s in order:
            untraced[s] = self.search(clock, problem, s)
            sampler.new_search()
            with tracer.patched(targets):
                traced[s] = self.search(clock, problem, s)
                circuit = traced[s].champion.circuit
                if circuit not in verified:
                    verified.add(circuit)
                    verify.verify_tsc(circuit)
            checks.expect(
                (traced[s].digest, traced[s].evals)
                == (untraced[s].digest, untraced[s].evals),
                f"rng seed {s}: the traced search found another champion",
            )
        overhead = rate(untraced.values(), raw_seconds) / rate(traced.values(), raw_seconds) - 1
        metrics = layer_metrics(tracer, "evolve.run", sampler, overhead, fixed_work=True)
        record = {"champions": [{"rng_seed": s, "digest": traced[s].digest}
                                for s in self.rng_seeds],
                  "tracer": tracer}
        return Outcome(metrics, checks, record)


# -- replay workload ---------------------------------------------------------


@dataclass
class Item:
    genotype: genome.Genotype
    decode_seed: int
    circuit: Circuit


@lru_cache(maxsize=4)
def single_gene_locks(layout: GenomeLayout, genes: int) -> tuple[LockMask, ...]:
    """For each of the first genes slots, a mask locking every other position.

    Built once per process: each holds a few thousand positions, and
    rebuilding them at every set-up would make peak memory depend on when
    the garbage is collected.
    """
    everything = set(range(layout.total_len))
    return tuple(
        LockMask(frozenset(everything - set(range(off, off + layout.gene_len))))
        for off in map(layout.gene_offset, range(genes))
    )


class GenotypeStream:
    """Distinct rail-valid variants of duplication-baseline encodings.

    Each candidate starts from one of a few encodings of the baseline (its
    free slots filled at random) and takes one to three operations: a
    crossover with another encoding, or a mutation of one function gene
    that is mirrored onto the same gene of the inverted copy, so that the
    function and its copy keep agreeing and the rails stay valid.  A
    candidate is kept only if its decoded circuit is new and its fault-free
    rails never collide.
    """

    def __init__(self, baseline: Circuit, seed_gates: int, layout: GenomeLayout,
                 rng: random.Random):
        self.layout = layout
        self.n = seed_gates
        self.rng = rng
        self.bases = [encode_seed(baseline, layout, rng)[0] for _ in range(4)]
        self.locks = single_gene_locks(layout, seed_gates)
        self.full = (1 << (1 << layout.r)) - 1
        self.seen: set[int] = set()

    def _mirror(self, g: genome.Genotype, k: int) -> genome.Genotype:
        lay = self.layout
        src, dst = lay.gene_offset(k), lay.gene_offset(k + self.n)
        g = g.with_field(dst, 4, g.field(src, 4))
        for pin in (4, 4 + lay.b):
            addr = g.field(src + pin, lay.b)
            g = g.with_field(dst + pin, lay.b, addr + self.n if addr < self.n else addr)
        return g

    def _candidate(self) -> genome.Genotype:
        rng = self.rng
        ops = (genome.mutate_bit, genome.mutate_routing, genome.mutate_translocate)
        g = rng.choice(self.bases)
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                g = genome.crossover_single_point(g, rng.choice(self.bases), rng)
            else:
                k = rng.randrange(self.n)
                g = self._mirror(rng.choice(ops)(g, self.locks[k], rng), k)
        return g

    def next(self) -> Item:
        while True:
            g = self._candidate()
            decode_seed = self.rng.getrandbits(32)
            circuit = genome.decode(g, random.Random(decode_seed))
            key = hash(circuit)
            if key in self.seen:
                continue
            z0, z1 = fitness.fault_free_response(circuit).rails
            if (z0 ^ z1) ^ self.full:
                continue
            self.seen.add(key)
            return Item(g, decode_seed, circuit)


@dataclass
class Replay:
    target: TargetSpec
    layout: GenomeLayout
    stream: GenotypeStream
    first: list[Item]


def time_variation(genotypes, rng: random.Random) -> list[float]:
    """Raw seconds per call of each variation operator on each genotype."""
    lock = LockMask.empty()
    times = []
    for a, b in zip(genotypes, genotypes[1:] + genotypes[:1]):
        for op in (genome.mutate_bit, genome.mutate_routing, genome.mutate_translocate):
            t0 = time.perf_counter()
            op(a, lock, rng)
            times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        genome.crossover_single_point(a, b, rng)
        times.append(time.perf_counter() - t0)
    return times


@dataclass(frozen=True)
class ReplayWorkload:
    name: str

    def setup(self, root: Path, seed: int) -> Replay:
        problem = from_files(self.name)(root)
        seed_circuit = problem.seed_circuit
        stream = GenotypeStream(
            build_duplication_baseline(seed_circuit), len(seed_circuit.gates),
            problem.layout, random.Random(seed),
        )
        first = [stream.next() for _ in range(REPLAY_BATCH)]
        return Replay(problem.target, problem.layout, stream, first)

    def batches(self, replay: Replay):
        yield replay.first
        while True:
            yield [replay.stream.next() for _ in range(REPLAY_BATCH)]

    def score(self, probe: SpeedProbe, replay: Replay, items, decode, evaluate):
        """Decode and score one batch; return the results and their Chunk."""
        rngs = [random.Random(item.decode_seed) for item in items]
        columns, slots = replay.target.columns, replay.layout.max_gates

        def batch():
            out = []
            for item, rng in zip(items, rngs):
                circuit = decode(item.genotype, rng)
                out.append((circuit, evaluate(circuit, columns, slots)))
            return out

        return probe.timed(batch)

    def run(self, root: Path, seed: int, seconds: float, trace: bool) -> Outcome:
        if trace:
            return self._traced(self.setup(root, seed), seed, seconds)
        probe = SpeedProbe()
        with probe.running():
            return self._measured(probe, root, seed, seconds)

    def _measured(self, probe: SpeedProbe, root: Path, seed: int, seconds: float) -> Outcome:
        # Rounds of REPLAY_ROUND batches, one verify_tsc of the last batch's
        # first circuit and one set-up, so that every timing samples the same
        # stretch of the machine's speed.  Set-ups are timed on the fixed
        # SETUP_STREAM_SEED: how many candidates the stream rejects before
        # its first batch depends on the seed, and setup_s must not.  The
        # run's own stream is then built from --seed, untimed.
        checks = Checks()

        def timed_setup():
            return repeat_timed(probe, lambda: self.setup(root, SETUP_STREAM_SEED),
                                SETUP_MIN_S)[1]

        setup_times = [timed_setup()]
        replay = self.setup(root, seed)
        scored = []  # (chunk, evals)
        verify_times = []
        mismatches = 0
        batches = self.batches(replay)
        start = time.perf_counter()
        while not scored or time.perf_counter() - start < seconds:
            for _ in range(REPLAY_ROUND):
                items = next(batches)
                results, chunk = self.score(probe, replay, items, genome.decode,
                                            fitness.evaluate_circuit)
                scored.append((chunk, len(items)))
                for item, (circuit, fv) in zip(items, results):
                    checks.expect(circuit == item.circuit and fv.u_f is not None,
                                  "replay: decode or fault-free rails did not reproduce")
            circuit, fv = results[0]
            report, chunk = probe.timed(lambda: verify.verify_tsc(circuit))
            verify_times.append((chunk, 1))
            label = f"stream circuit {REPLAY_BATCH * len(scored)}"
            if not cross_check(checks, label, circuit, fv, report):
                mismatches += 1
            setup_times.append(timed_setup())

        evals = sum(n for _, n in scored)
        metrics = {
            "setup_s": timing(probe, setup_times, "s"),
            "evals_per_s": Metric(
                evals / sum(probe.nominal(c) for c, _ in scored), "1/s", len(scored),
                raw=evals / sum(c.seconds for c, _ in scored)),
            "verify_ms_p50": timing(probe, verify_times, "ms"),
            "oracle_mismatches": Metric(mismatches, "count", len(verify_times)),
            "peak_rss_mb": Metric(peak_rss_mb(), "MB", 1),
        }
        return Outcome(metrics, checks, {"evals": evals})

    def _traced(self, replay: Replay, seed: int, seconds: float) -> Outcome:
        """Each batch untraced, then again traced; the scores must match."""
        checks = Checks()
        tracer = Tracer()
        sampler = Sampler(seed)
        clock = SpeedProbe()  # not running: raw timings
        decode = tracer.wrap("genome.decode", genome.decode, sampler.on_decode)
        evaluate = tracer.wrap("fitness.evaluate", fitness.evaluate_circuit,
                               sampler.on_evaluate)
        untraced_s = traced_s = 0.0
        start = time.perf_counter()
        for items in self.batches(replay):
            plain, chunk = self.score(clock, replay, items, genome.decode,
                                      fitness.evaluate_circuit)
            untraced_s += chunk.seconds
            with tracer.span("replay.batch"):
                results, chunk = self.score(clock, replay, items, decode, evaluate)
            traced_s += chunk.seconds
            for (circuit, fv), (circuit_traced, fv_traced) in zip(plain, results):
                checks.expect(circuit == circuit_traced and fv == fv_traced,
                              "replay: the traced pass scored a genotype differently")
            if time.perf_counter() - start >= seconds:
                break
        verify_tsc = tracer.wrap("verify.tsc", verify.verify_tsc)
        for item in replay.first[:2]:
            verify_tsc(item.circuit)

        metrics = layer_metrics(tracer, "replay.batch", sampler, traced_s / untraced_s - 1,
                                fixed_work=False)
        # Replay scores a fixed stream and does no variation of its own, so
        # time the operators on the sampled genotypes: the cost at this size.
        times = time_variation(sampler.genotypes, random.Random(seed))
        metrics["genome.variation.calls"] = Metric(len(times), "count", len(times))
        metrics["genome.variation.us_p50"] = Metric(median(times) * 1e6, "us", len(times))
        return Outcome(metrics, checks, {"tracer": tracer})


WORKLOADS = {
    "search-halfadder": SearchWorkload(half_adder, tuple(range(8)), 12_000),
    "search-mult2": SearchWorkload(from_files("mult2"), (0, 1, 2), 5_000),
    "replay-decod": ReplayWorkload("decod"),
}
