"""Every module-level import in the package, the tests and the scripts is
used by the module itself, the package root imports nothing, and the verify
oracle and the fitness path import nothing from each other."""

import ast
from pathlib import Path

import pytest

import tscsynth

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((
    *Path(tscsynth.__file__).resolve().parent.glob("*.py"),
    *(ROOT / "tests").glob("*.py"),
    *(ROOT / "scripts").glob("*.py"),
))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_finds_unused_import():
    source = "import os.path\nimport json as js\nfrom x import y, z\nprint(y, js)\n"
    assert unused_imports(source) == ["os", "z"]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(ROOT)).replace("src/tscsynth/", "")
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Every package module an import anywhere in source names, with relative
    imports read from inside tscsynth: "from .x import y" and "from . import
    x" both name tscsynth.x."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("tscsynth." * (node.level > 0) + (node.module or "")).rstrip(".")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_package_root_imports_nothing():
    # Each name has one import path, its module: "from tscsynth.genome import
    # decode", never "from tscsynth import decode".
    source = Path(tscsynth.__file__).read_text(encoding="utf-8")
    assert imported_modules(source) == set()


def test_finds_imported_modules():
    source = "from . import fitness\nfrom .sim import x\ndef f():\n    import tscsynth.genome\n"
    assert {"tscsynth.fitness", "tscsynth.sim", "tscsynth.genome"} <= imported_modules(source)


@pytest.mark.parametrize("name", ["verify.py", "sim.py"])
def test_oracle_independent_of_fitness(name):
    # The oracle is the deliberately separate duplicate the fitness path is
    # checked against: it shares with fitness only what sim holds, the gate
    # table kernel and the fault-free wave, and never fitness's fault model
    # (its inverted-output slots and readouts); sharing that would check the
    # fitness with itself.
    source = (Path(tscsynth.__file__).resolve().parent / name).read_text(encoding="utf-8")
    assert not any(m == "tscsynth.fitness" or m.startswith("tscsynth.fitness.")
                   for m in imported_modules(source))


def test_fitness_independent_of_oracle():
    # The other direction, for the same reason: the fitness path takes
    # nothing from the oracle (verify.fault_pass, its slot order, its
    # readout).
    source = (Path(tscsynth.__file__).resolve().parent / "fitness.py").read_text(encoding="utf-8")
    assert not any(m == "tscsynth.verify" or m.startswith("tscsynth.verify.")
                   for m in imported_modules(source))
