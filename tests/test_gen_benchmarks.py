"""The shipped benchmarks are what scripts/gen_benchmarks.py renders."""

import importlib.util
from pathlib import Path

import pytest

from tscsynth.formats import render_blif, render_pla
from tscsynth.sim import simulate

from conftest import BENCH_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gen_benchmarks.py"


def load_script():
    spec = importlib.util.spec_from_file_location("gen_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARKS = load_script().BENCHMARKS


def test_every_shipped_benchmark_has_a_builder():
    assert sorted(BENCHMARKS) == sorted(p.stem for p in BENCH_DIR.glob("*.blif"))
    assert sorted(BENCHMARKS) == sorted(p.stem for p in BENCH_DIR.glob("*.pla"))


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_builder_seed_computes_its_target(name):
    circuit, target = BENCHMARKS[name]()
    assert simulate(circuit).outputs == target.columns


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_builder_renders_the_shipped_files(name):
    # Building the seed also checks that every gate is live.
    circuit, target = BENCHMARKS[name]()
    assert (BENCH_DIR / f"{name}.blif").read_text(encoding="utf-8") == render_blif(
        circuit, model=name
    )
    assert (BENCH_DIR / f"{name}.pla").read_text(encoding="utf-8") == render_pla(target)
