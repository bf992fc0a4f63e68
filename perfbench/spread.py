"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search-mult2 --seeds 1-10 --save a.json
    python3 perfbench/spread.py --workload search-mult2 --seeds 1-10 --against a.json

Run from the repository root.  For every metric of the runs it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; for an end-to-end metric it also prints
the bound from ``BENCHMARK.json``.  ``--against`` compares with a saved set
made with the same seeds: each median must not be worse than the saved one
by more than its bound, and every exact-repeat count and champion digest
must be identical seed by seed.  Exits 1 if a run failed or a comparison
did not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((ROOT / ".bench_out" / f"{stem}.json").read_text(encoding="utf-8"))
    return {"seed": seed, "result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write the set of runs here")
    parser.add_argument("--against", default=None, help="compare with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        run = run_once(args.workload, seed, seconds, args.trace)
        runs.append(run)
        print(f"seed {seed}: correct={run['result']['correct']} "
              f"failed={run['result']['failed']}/{run['result']['attempted']}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs) + "\n", encoding="utf-8")

    ok = all(r["result"]["correct"] for r in runs)
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name in runs[0]["record"]["metrics"]:
        values = [r["record"]["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, {}).get("bound")
        note = ""
        if bound is not None and spread > bound:
            note, ok = "  SPREAD OVER BOUND", False
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
              f"{'' if bound is None else bound:>7}{note}")

    if args.against:
        ok &= compare(runs, json.loads(Path(args.against).read_text(encoding="utf-8")), bounds)
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


def compare(runs: list[dict], saved: list[dict], bounds: dict) -> bool:
    ok = True
    old_by_seed = {r["seed"]: r["record"] for r in saved}
    for r in runs:
        old = old_by_seed.get(r["seed"])
        if old is None:
            continue
        new = r["record"]
        for name, m in new["metrics"].items():
            if m["exact"] and m["value"] != old["metrics"][name]["value"]:
                print(f"seed {r['seed']}: exact-repeat {name} changed "
                      f"{old['metrics'][name]['value']} -> {m['value']}")
                ok = False
        if new.get("champions") != old.get("champions"):
            print(f"seed {r['seed']}: champions differ")
            ok = False
    for name, entry in bounds.items():
        if name not in runs[0]["record"]["metrics"]:
            continue
        new_med = statistics.median(r["record"]["metrics"][name]["value"] for r in runs)
        old_med = statistics.median(r["record"]["metrics"][name]["value"] for r in saved)
        worse = (old_med - new_med if entry["better"] == "higher" else new_med - old_med)
        share = worse / old_med
        flag = "  WORSE THAN BOUND" if share > entry["bound"] else ""
        print(f"{name:<28} saved median {old_med:.6g}  now {new_med:.6g}  "
              f"worse by {share:+.4f} (bound {entry['bound']}){flag}")
        ok &= not flag
    return ok


if __name__ == "__main__":
    sys.exit(main())
