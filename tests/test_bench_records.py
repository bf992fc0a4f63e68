"""Every committed benchmark record (BENCH_*.json at the repository root)
parses, says what changed, how it was run and on what machine, and claims
a gain only on a workload and an end-to-end metric that BENCHMARK.json
lists.  A record with no claim, such as the one that defined the
benchmark, claims nothing."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"change", "command", "machine"} <= record.keys()
    claim = record.get("claim")
    if claim is not None:
        assert claim["workload"] in {w["name"] for w in SPEC["workloads"]}
        assert claim["metric"] in {m["name"] for m in SPEC["end_to_end"]}
