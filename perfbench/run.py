"""Run one workload of the tscsynth benchmark and report its metrics.

    python3 perfbench/run.py --workload search-halfadder --seed 1 --seconds 25 --trace 0

Run from the repository root: the library is imported from ``src/`` and the
problems are read from ``benchmarks/``.  With ``--trace 0`` the run reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (see ``perfbench/README.md``).  It prints a table of every metric with
its unit and sample count, writes the full record (machine, commit, seeds,
champion digests, spans) under ``.bench_out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
``BENCHMARK.json`` names; a failed correctness check shows there as
``"correct": false``.  It exits 2, printing no result, if the library or
its inputs are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Every end-to-end figure the benchmark computes, in report order.  The
# search-outcome ones are not defined on every workload, so BENCHMARK.json
# gates only those that are; the rest appear in the table and the record.
REPORT_ORDER = (
    "setup_s",
    "evals_per_s",
    "tsc_success_rate",
    "evals_to_tsc_p50",
    "seconds_to_tsc_p50",
    "overhead_vs_dup_p50",
    "champion_undetected_p50",
    "champion_unsignalled_p50",
    "verify_ms_p50",
    "oracle_mismatches",
    "peak_rss_mb",
)


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def git_commit(root: Path) -> str:
    # Outside a git checkout, do not let git search the parent directories.
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tscsynth").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"error: no tscsynth sources or benchmarks/ under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports tscsynth from src/

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = WORKLOADS[args.workload].run(ROOT, args.seed, args.seconds, bool(args.trace))
    metrics, checks = outcome.metrics, outcome.checks
    gated = spec["per_layer" if args.trace else "end_to_end"]

    names = list(metrics) if args.trace else REPORT_ORDER
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name in names:
        m = metrics.get(name)
        if m is None:
            print(f"{name:<28} {'-':>14}  (not defined on this workload)")
            continue
        tag = "  exact-repeat" if m.exact else ""
        if m.raw is not None:
            tag += f"  raw={fmt(m.raw)}"
        print(f"{name:<28} {fmt(m.value):>14} {m.unit:<7} n={m.samples}{tag}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")

    record = dict(outcome.record)
    tracer = record.pop("tracer", None)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.tsv.gz")
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commit=git_commit(ROOT),
        machine=machine_info(),
        attempted=checks.attempted,
        failures=checks.failures,
        metrics={name: vars(m) for name, m in metrics.items()},
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    result = {}
    for entry in gated:
        m = metrics[entry["name"]]
        if m.unit != entry["unit"] or m.value is None:
            raise SystemExit(f"error: {entry['name']} is {m.value} {m.unit}, "
                             f"BENCHMARK.json expects {entry['unit']}")
        result[entry["name"]] = {"value": m.value, "unit": m.unit}
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
