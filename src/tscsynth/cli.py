"""Command-line interface: evolve, verify, baseline, export, report.

Every flag that reads a circuit (evolve --seed, baseline --seed, verify
--circuit, export --circuit) takes either format: a native JSON circuit,
whose first non-blank character is "{", or a BLIF netlist.  evolve takes a
seed's size to be its function size (netlist.function_size: the gates a
function output reaches, structurally identical ones counted once), so a
seed with rails, such as a circuit that baseline --out wrote or one whose
outputs have private copies of shared logic, counts its checking logic and
those copies as overhead; nonintrusive mode locks the whole function core.
evolve deletes an earlier run's run.json, champion.json and champion.hex
from --out before the search, so an interrupted rerun leaves none of them.

evolve also reads argument files: @path stands for the flags in the file path,
one or more per line, "#" starting a comment, checked as on the command line;
a later argument wins.  A path that begins with "@" is given as --seed=@path;
the other commands take "@" in a path as it is.

Exit codes: 0 when the command is done; 1 when verify finds the circuit not
TSC or not computing its target; 2 on any usage, input or file error, which
main alone turns into an "error:" line.
"""

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
from .netlist import Circuit, build_duplication_baseline, duplication_overhead, function_size
from .sim import check_word_mask
from .verify import TscReport, verify_tsc

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_circuit(path: str) -> Circuit:
    """A native JSON circuit if the file's first non-blank character is "{",
    a BLIF netlist otherwise."""
    text = _read(path)
    return read_native(text) if text.lstrip().startswith("{") else parse_blif(text)


def _word_mask(text: str | None) -> int | None:
    """The --applied-words hex mask; None applies all words."""
    return None if text is None else int(text, 16)


def _cmd_evolve(args: argparse.Namespace) -> int:
    target = parse_pla(_read(args.target))
    seed = _read_circuit(args.seed)
    # The seed takes a gene slot per gate, but its size is its function size:
    # a checked seed's checking logic and private copies are overhead.  The
    # layout has the target's shape; the engine checks that the seed has it
    # and fits.
    n = len(seed.tt)
    b = args.b
    if b is None:
        b = default_address_width(target.r, n, target.q)
    layout = GenomeLayout(r=target.r, q=target.q, b=b)
    g = function_size(seed)
    dup = duplication_overhead(g, target.q)
    goal_overhead = args.goal_overhead
    if goal_overhead is None:
        # One gate below duplication, or below the seed's own checking logic
        # if that is cheaper, so a checked seed does not meet it unchanged;
        # never a goal below no gates, which a seed without gates would set.
        cost = min(dup, n - g) if seed.rails is not None else dup
        goal_overhead = max(cost - 1, -g)
    word_mask = _word_mask(args.applied_words)

    config = IslandConfig(
        layout=layout,
        migration_rate=args.migration_rate,
        rng_seed=args.seed_rng,
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
    if out_dir is not None:
        # An earlier run's record is not this run's, even if this one stops
        # early; the engine deletes its checkpoints and makes out_dir.
        for path in (out_dir / "run.json", out_dir / "champion.json",
                     out_dir / "champion.hex"):
            if path.is_file():
                path.unlink()
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
        "applied_words": args.applied_words,
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
    # The result is printed first, so a file that cannot be written loses
    # no search.
    print(
        f"{name}: fitness={champion.fitness.key()} live_gates={s} "
        f"overhead={overhead} (duplication {dup}) evals={result.evals} "
        f"scored={result.scored} decoded={result.decoded}"
    )
    print(f"verification: {report.summary()}")
    if out_dir is not None:
        (out_dir / "champion.json").write_text(
            write_native(champion.circuit), encoding="utf-8"
        )
        (out_dir / "champion.hex").write_text(
            champion.genotype.to_hex() + "\n", encoding="utf-8"
        )
        (out_dir / "run.json").write_text(
            json.dumps(run_record, indent=2) + "\n", encoding="utf-8"
        )
    return EXIT_OK


def _print_verdict(report: TscReport) -> None:
    print(report.summary())
    for fault in report.undetected[:10]:
        print(f"  undetected: {fault}")
    for fault, word in report.violations[:10]:
        print(f"  unsignalled incorrect output: fault {fault} at word {word}")


def _cmd_verify(args: argparse.Namespace) -> int:
    circuit = _read_circuit(args.circuit)
    word_mask = _word_mask(args.applied_words)
    check_word_mask(word_mask, circuit.r)
    columns = None
    if args.target is not None:
        target = parse_pla(_read(args.target))
        if (target.r, target.q) != (circuit.r, circuit.q):
            raise ParseError(f"circuit is {circuit.r} in/{circuit.q} out but target "
                             f"is {target.r} in/{target.q} out")
        columns = target.columns
    report = verify_tsc(circuit, word_mask, columns)
    _print_verdict(report)
    ok = report.is_tsc and report.computes_target is not False
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_baseline(args: argparse.Namespace) -> int:
    seed = _read_circuit(args.seed)
    # First, so that a seed with rails or without outputs is named as such.
    baseline = build_duplication_baseline(seed)
    g = len(seed.tt)
    dup = duplication_overhead(g, seed.q)
    if args.out:
        # Written first, so an unusable path costs no oracle run.
        Path(args.out).write_text(write_native(baseline), encoding="utf-8")
    print(f"seed: {g} gates, {seed.q} outputs")
    print(f"duplication overhead: {dup}")
    print(f"baseline size: {len(baseline.tt)} gates")
    _print_verdict(verify_tsc(baseline))
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    circuit = _read_circuit(args.circuit)
    Path(args.dot).write_text(export_dot(circuit), encoding="utf-8")
    print(f"wrote {args.dot}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    run_path = Path(args.run) / "run.json"
    try:
        record = json.loads(run_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{run_path} is not JSON: {exc}") from None
    try:
        return _print_report(record)
    except ParseError as exc:
        raise ParseError(f"{run_path} {exc}") from None


_JSON_KINDS = {type(None): "null", dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean"}


def _field(record, path: str, kind: type):
    """The value at a dotted path of a run record, checked to be of kind."""
    value, keys = record, path.split(".")
    for i, key in enumerate(keys):
        if type(value) is not dict:
            where = f"field {'.'.join(keys[:i])!r}" if i else "record"
            raise ParseError(f"{where} is {_JSON_KINDS[type(value)]}, not an object")
        if key not in value:
            raise ParseError(f"has no field {key!r}")
        value = value[key]
    if type(value) is not kind:
        raise ParseError(f"field {path!r} is {_JSON_KINDS[type(value)]}, "
                         f"not {_JSON_KINDS[kind]}")
    return value


def _print_report(record: dict) -> int:
    # Every field is read before anything is printed.
    g = _field(record, "seed_gates", int)
    s = _field(record, "champion.live_gates", int)
    dup = _field(record, "dup_overhead", int)
    overhead = s - g
    is_tsc = _field(record, "verification.is_tsc", bool)
    computes = _field(record, "verification.computes_target", bool)
    verdict = "not TSC" if not is_tsc else "TSC" if computes else "TSC, wrong function"
    # Champion summary in the style of an overhead-comparison table row.
    report = {
        "benchmark": _field(record, "benchmark", str),
        "seed_gates": g,
        "champion_live_gates": s,
        "overhead": overhead,
        "dup_overhead": dup,
        "ratio": (overhead / dup) if is_tsc and computes and dup > 0 else None,
        "verdict": verdict,
        "shrunk_function_logic": s < g,
        "fitness": _field(record, "champion.fitness", list),
        "evals": _field(record, "evals", int),
        "scored": _field(record, "scored", int),
        "decoded": _field(record, "decoded", int),
        "trajectory": _field(record, "history", list),
    }
    print(json.dumps(report, indent=2))
    ratio = f"{report['ratio']:.2f}" if report["ratio"] is not None else "-"
    print()
    print(f"{'Benchmark':<12}{'Gates':>7}{'Oh.':>6}{'Dup.':>6}{'Oh./Dup.':>10}  Verdict")
    print(
        f"{report['benchmark']:<12}{g:>7}{overhead:>6}{dup:>6}{ratio:>10}  "
        f"{report['verdict']}"
    )
    print(f"evals: {report['evals']}, scored: {report['scored']} (the rest "
          "reused a parent's fitness)")
    print(f"decoded: {report['decoded']} (the rest reused a parent's netlist)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        return arg_line.split("#", 1)[0].split()  # "#" starts a comment


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tscsynth",
        description="Evolve and verify totally self-checking combinational circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Without allow_abbrev=False a misspelt flag would read as one it abbreviates.
    p = sub.add_parser(
        "evolve", help="evolve a self-checking circuit from a seed",
        fromfile_prefix_chars="@", allow_abbrev=False,
        epilog="@path reads flags from path, one or more per line, # starting a comment; "
        "a later flag wins.  Write a path that begins with @ as --seed=@path.",
    )
    p.add_argument("--target", required=True, help="PLA file with the output function")
    p.add_argument("--seed", required=True,
                   help="seed circuit, BLIF or native JSON (rails allowed)")
    p.add_argument("--mode", choices=["unconstrained", "nonintrusive"], default="unconstrained")
    p.add_argument("--b", type=int, default=None, help="address width in bits")
    p.add_argument("--islands", type=int, default=8)
    p.add_argument("--budget-evals", dest="budget_evals", type=int, default=1_000_000)
    p.add_argument("--budget-seconds", dest="budget_seconds", type=float, default=None)
    p.add_argument("--seed-rng", dest="seed_rng", type=int, default=0)
    p.add_argument("--migration-rate", dest="migration_rate", type=float, default=0.1)
    p.add_argument("--goal-overhead", dest="goal_overhead", type=int, default=None,
                   help="gates over the seed's function size that a goal circuit may "
                   "use (default: one below the duplication overhead, or below a "
                   "checked seed's own checking logic if that is smaller; never "
                   "a goal below 0 gates)")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=50,
                   help="generations between lines of checkpoints.ndjson in --out; "
                   "--parallel checks only between its "
                   f"{evolve_mod.EPOCH_GENERATIONS}-generation epochs, so it writes "
                   "at most one line per epoch; 0 writes no checkpoints")
    p.add_argument("--applied-words", dest="applied_words", default=None,
                   help="hex mask of applied input words (default: all)")
    p.add_argument("--parallel", action="store_true",
                   help="one process per island, each running epochs of "
                   f"{evolve_mod.EPOCH_GENERATIONS} generations; migrants cross and "
                   "the budget and goal are checked between epochs; reproducible")
    p.add_argument("--no-stop-on-goal", dest="no_stop_on_goal", action="store_true")
    p.add_argument("--out", default=None,
                   help="directory for run artifacts, created before the search; "
                   "an earlier run's artifacts there are deleted")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("verify", help="prove or refute the TSC property")
    p.add_argument("--circuit", required=True, help="circuit, native JSON or BLIF")
    p.add_argument("--applied-words", dest="applied_words", default=None)
    p.add_argument("--target", default=None,
                   help="PLA file; also require the circuit to compute it")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("baseline", help="build the duplication baseline for a seed")
    p.add_argument("--seed", required=True,
                   help="seed circuit without rails, BLIF or native JSON")
    p.add_argument("--out", default=None, help="write the baseline circuit JSON here")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("export", help="render a circuit as graphviz")
    p.add_argument("--circuit", required=True, help="circuit, native JSON or BLIF")
    p.add_argument("--dot", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # ParseError is a ValueError; OSError covers every file that cannot be
    # read or written.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
