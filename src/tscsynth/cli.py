"""Command-line interface: evolve, verify, baseline, export, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import evolve as evolve_mod
from .evolve import IslandConfig
from .formats import (
    ParseError,
    export_dot,
    parse_blif,
    parse_pla,
    read_native,
    write_native,
)
from .genome import GenomeLayout, default_address_width
from .netlist import build_duplication_baseline, duplication_overhead
from .verify import codespace_report, verify_tsc

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _word_mask(text: str | None, r: int) -> int | None:
    """The --applied-words mask over the 2**r input words; None applies all."""
    mask = None if text is None else int(text, 16)
    if mask is not None and (mask <= 0 or mask >> (1 << r)):
        raise ValueError(f"--applied-words {text} must apply at least one word "
                         f"and only words below 2**{r}")
    return mask


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"bad config line (want key=value): {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _cmd_evolve(args: argparse.Namespace) -> int:
    target = parse_pla(_read(args.target))
    seed = parse_blif(_read(args.seed))
    if (seed.r, seed.q) != (target.r, target.q):
        print(
            f"error: seed is {seed.r} in/{seed.q} out but target is "
            f"{target.r} in/{target.q} out",
            file=sys.stderr,
        )
        return EXIT_USAGE

    g = len(seed.tt)
    b = args.b
    if b is None:
        b = default_address_width(seed.r, g, seed.q)
    layout = GenomeLayout(r=seed.r, q=seed.q, b=b)
    if g > layout.max_gates:
        print(f"error: seed needs {g} gene slots, layout has "
              f"{layout.max_gates}; raise --b", file=sys.stderr)
        return EXIT_USAGE

    dup = duplication_overhead(g, seed.q)
    goal_overhead = args.goal_overhead
    if goal_overhead is None:
        goal_overhead = dup - 1
    applied = args.applied_words
    word_mask = _word_mask(applied, layout.r)

    config = IslandConfig(
        layout=layout,
        migration_rate=args.migration_rate,
        rng_seed=args.seed_rng,
        # A config-file mode bypasses argparse's choices check; IslandConfig
        # rejects an unknown one.
        mode=args.mode,
        n_islands=args.islands,
        max_evals=args.budget_evals,
        max_seconds=args.budget_seconds,
        goal_size=g + goal_overhead,
        stop_on_goal=not args.no_stop_on_goal,
        word_mask=word_mask,
        checkpoint_every=args.checkpoint_every,
    )

    out_dir = Path(args.out) if args.out else None
    runner = evolve_mod.run_distributed if args.parallel else evolve_mod.run
    result = runner(config, target, seed, out_dir=out_dir)

    champion = result.champion
    report = verify_tsc(champion.circuit, word_mask, target.columns)
    name = Path(args.target).stem
    s = champion.fitness.live_gates
    overhead = s - g
    run_record = {
        "benchmark": name,
        "target": args.target,
        "seed": args.seed,
        "mode": args.mode,
        "rng_seed": config.rng_seed,
        "islands": config.n_islands,
        "parallel": args.parallel,
        "migration_rate": config.migration_rate,
        "budget_evals": config.max_evals,
        "budget_seconds": config.max_seconds,
        "goal_size": config.goal_size,
        "stop_on_goal": config.stop_on_goal,
        "applied_words": applied,
        "layout": {"r": layout.r, "q": layout.q, "b": layout.b},
        "seed_gates": g,
        "dup_overhead": dup,
        "evals": result.evals,
        "scored": result.scored,
        "decoded": result.decoded,
        "elapsed_s": round(result.elapsed, 3),
        "goal_reached": result.goal_reached,
        "champion": {
            "genotype": champion.genotype.to_hex(),
            "fitness": list(champion.fitness.key()),
            "live_gates": s,
            "overhead": overhead,
        },
        "verification": {
            "is_tsc": report.is_tsc,
            "is_st": report.is_st,
            "is_fs": report.is_fs,
            "false_alarm": report.false_alarm,
            "undetected_faults": len(report.undetected),
            "unsignalled_incorrect": len(report.violations),
            "computes_target": report.computes_target,
        },
        "history": result.history,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "champion.json").write_text(
            write_native(champion.circuit), encoding="utf-8"
        )
        (out_dir / "champion.hex").write_text(
            champion.genotype.to_hex() + "\n", encoding="utf-8"
        )
        (out_dir / "run.json").write_text(
            json.dumps(run_record, indent=2) + "\n", encoding="utf-8"
        )
    print(
        f"{name}: fitness={champion.fitness.key()} live_gates={s} "
        f"overhead={overhead} (duplication {dup}) evals={result.evals} "
        f"scored={result.scored} decoded={result.decoded}"
    )
    print(f"verification: {report.summary()}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit = read_native(_read(args.circuit))
    word_mask = _word_mask(args.applied_words, circuit.r)
    columns = None
    if args.target is not None:
        target = parse_pla(_read(args.target))
        if (target.r, target.q) != (circuit.r, circuit.q):
            print(
                f"error: circuit is {circuit.r} in/{circuit.q} out but target is "
                f"{target.r} in/{target.q} out",
                file=sys.stderr,
            )
            return EXIT_USAGE
        columns = target.columns
    report = verify_tsc(circuit, word_mask, columns)
    print(report.summary())
    for fault in report.undetected[:10]:
        print(f"  undetected: {fault}")
    for fault, word in report.violations[:10]:
        print(f"  unsignalled incorrect output: fault {fault} at word {word}")
    ok = report.is_tsc and report.computes_target is not False
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_baseline(args: argparse.Namespace) -> int:
    seed = parse_blif(_read(args.seed))
    g = len(seed.tt)
    dup = duplication_overhead(g, seed.q)
    baseline = build_duplication_baseline(seed)
    print(f"seed: {g} gates, {seed.q} outputs")
    print(f"duplication overhead: {dup}")
    print(f"baseline size: {len(baseline.tt)} gates")
    report = codespace_report(seed, baseline)
    print(report.summary())
    for fault in report.undetectable_checker_faults[:10]:
        print(f"  undetectable checker fault: {fault}")
    if args.out:
        Path(args.out).write_text(write_native(baseline), encoding="utf-8")
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    circuit = read_native(_read(args.circuit))
    Path(args.dot).write_text(export_dot(circuit), encoding="utf-8")
    print(f"wrote {args.dot}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    run_path = Path(args.run) / "run.json"
    if not run_path.exists():
        print(f"error: {run_path} not found", file=sys.stderr)
        return EXIT_USAGE
    record = json.loads(run_path.read_text(encoding="utf-8"))
    try:
        return _print_report(record, args.function_core)
    except ParseError as exc:
        raise ParseError(f"{run_path} {exc}") from None


_JSON_KINDS = {type(None): "null", dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean"}


def _field(record, path: str, kind: type, optional: bool = False):
    """The value at a dotted path of a run record, checked to be of kind; an
    optional field may be missing or null, and then reads as None."""
    value, keys = record, path.split(".")
    for i, key in enumerate(keys):
        if type(value) is not dict:
            where = f"field {'.'.join(keys[:i])!r}" if i else "record"
            raise ParseError(f"{where} is {_JSON_KINDS[type(value)]}, not an object")
        if key not in value and not optional:
            raise ParseError(f"has no field {key!r}")
        value = value.get(key)
    if type(value) is not kind and not (optional and value is None):
        raise ParseError(f"field {path!r} is {_JSON_KINDS[type(value)]}, "
                         f"not {_JSON_KINDS[kind]}")
    return value


def _print_report(record: dict, core: int | None) -> int:
    # Every field is read before anything is printed.
    g = _field(record, "seed_gates", int)
    s = _field(record, "champion.live_gates", int)
    base, dup = g, _field(record, "dup_overhead", int)
    if core is not None:
        base, dup = core, duplication_overhead(core, _field(record, "layout.q", int))
    overhead = s - base
    is_tsc = _field(record, "verification.is_tsc", bool)
    # Records written before the function check lack its key.
    computes = _field(record, "verification.computes_target", bool, optional=True)
    verdict = ("not TSC" if not is_tsc else "TSC" if computes
               else "TSC, wrong function" if computes is False
               else "TSC, function unchecked")
    # Champion summary in the style of an overhead-comparison table row.
    report = {
        "benchmark": _field(record, "benchmark", str),
        "seed_gates": g,
        "champion_live_gates": s,
        "overhead": overhead,
        "dup_overhead": dup,
        "ratio": (overhead / dup) if is_tsc and computes and dup > 0 else None,
        "verdict": verdict,
        "shrunk_function_logic": s < base,
        "fitness": _field(record, "champion.fitness", list),
        # Records written before scored evaluations were counted lack "scored".
        "evals": _field(record, "evals", int, optional=True),
        "scored": _field(record, "scored", int, optional=True),
        # Records written before parents' netlists were reused lack "decoded".
        "decoded": _field(record, "decoded", int, optional=True),
        "trajectory": _field(record, "history", list),
    }
    print(json.dumps(report, indent=2))
    ratio = f"{report['ratio']:.2f}" if report["ratio"] is not None else "-"
    print()
    print(f"{'Benchmark':<12}{'Gates':>7}{'Oh.':>6}{'Dup.':>6}{'Oh./Dup.':>10}  Verdict")
    print(
        f"{report['benchmark']:<12}{base:>7}{overhead:>6}{dup:>6}{ratio:>10}  "
        f"{report['verdict']}"
    )
    if report["scored"] is not None:
        print(f"evals: {report['evals']}, scored: {report['scored']} (the rest "
              "reused a parent's fitness)")
    if report["decoded"] is not None:
        print(f"decoded: {report['decoded']} (the rest reused a parent's netlist)")
    if s < g and core is None:
        print(
            "note: champion uses fewer live gates than the seed's function "
            "logic; pass --function-core N to compare against the smaller core"
        )
    return EXIT_OK


def build_parser(
    evolve_config: dict[str, str] | None = None,
) -> argparse.ArgumentParser:
    """The CLI parser; ``evolve_config`` holds config-file values, which
    become the ``evolve`` defaults, so flags on the command line still win."""
    parser = argparse.ArgumentParser(
        prog="tscsynth",
        description="Evolve and verify totally self-checking combinational circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="evolve a self-checking circuit from a seed")
    p.add_argument("--target", required=True, help="PLA file with the output function")
    p.add_argument("--seed", required=True, help="BLIF seed netlist (two-input gates)")
    configurable = [
        p.add_argument("--mode", choices=["unconstrained", "nonintrusive"],
                       default="unconstrained"),
        p.add_argument("--b", type=int, default=None, help="address width in bits"),
        p.add_argument("--islands", type=int, default=8),
        p.add_argument("--budget-evals", dest="budget_evals", type=int,
                       default=1_000_000),
        p.add_argument("--budget-seconds", dest="budget_seconds", type=float,
                       default=None),
        p.add_argument("--seed-rng", dest="seed_rng", type=int, default=0),
        p.add_argument("--migration-rate", dest="migration_rate", type=float,
                       default=0.1),
        p.add_argument("--goal-overhead", dest="goal_overhead", type=int, default=None),
        p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int,
                       default=50),
        p.add_argument("--applied-words", dest="applied_words", default=None,
                       help="hex mask of applied input words (default: all)"),
        p.add_argument("--parallel", action="store_true",
                       help="one process per island; migrants cross and the "
                       "budget and goal are checked every "
                       f"{evolve_mod.EPOCH_GENERATIONS} generations; reproducible"),
        p.add_argument("--no-stop-on-goal", dest="no_stop_on_goal",
                       action="store_true"),
    ]
    p.add_argument("--config", default=None, help="key=value file; CLI flags win")
    p.add_argument("--out", default=None, help="directory for run artifacts")
    p.set_defaults(func=_cmd_evolve)
    if evolve_config:
        actions = {action.dest: action for action in configurable}
        unknown = sorted(set(evolve_config) - set(actions))
        if unknown:
            p.error("unknown config key(s): "
                    + ", ".join(key.replace("_", "-") for key in unknown))
        # argparse applies each option's type to string defaults, but a flag
        # has none: "false" would be a truthy string.
        p.set_defaults(**{
            key: value.lower() in ("1", "true", "yes") if actions[key].nargs == 0
            else value
            for key, value in evolve_config.items()
        })

    p = sub.add_parser("verify", help="prove or refute the TSC property")
    p.add_argument("--circuit", required=True, help="native JSON circuit")
    p.add_argument("--applied-words", dest="applied_words", default=None)
    p.add_argument("--target", default=None,
                   help="PLA file; also require the circuit to compute it")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("baseline", help="build the duplication baseline for a seed")
    p.add_argument("--seed", required=True, help="BLIF seed netlist")
    p.add_argument("--out", default=None, help="write the baseline circuit JSON here")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("export", help="render a circuit as graphviz")
    p.add_argument("--circuit", required=True)
    p.add_argument("--dot", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--function-core", dest="function_core", type=int, default=None,
                   help="gate count of the function core for overhead comparison")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "config", None):
            args = build_parser(_parse_config_file(args.config)).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
