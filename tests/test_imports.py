"""Every module-level import in the package, the tests and the scripts is
used by the module itself, the package root imports nothing, the verify
oracle and the fitness path import nothing from each other, and every
package name the benchmark (perfbench/) uses exists."""

import ast
import importlib
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


BENCHMARK_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


def resolve(path: str):
    """The module or object a dotted tscsynth path names, or None."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(resolve(module), name, None) if module else None


def missing_package_names(source: str) -> list[str]:
    """The tscsynth names a source uses that do not exist: each name it
    imports from the package, each attribute it reads on an imported module
    or name, and the attribute of each (owner, "attr", ...) tuple, the form
    of the benchmark tracer's table of functions to wrap.  The source is
    parsed, never run."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import tscsynth.x" binds tscsynth, "import tscsynth.x as y" x.
            bound.update((alias.asname, alias.name) if alias.asname else ("tscsynth",) * 2
                         for alias in node.names if alias.name.split(".")[0] == "tscsynth")
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "tscsynth"):
            bound.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                         for alias in node.names)
    missing = [path for path in bound.values() if resolve(path) is None]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner, attr = node.value, node.attr
        elif (isinstance(node, ast.Tuple) and len(node.elts) >= 3
              and isinstance(node.elts[1], ast.Constant)
              and isinstance(node.elts[1].value, str)):
            owner, attr = node.elts[0], node.elts[1].value
        else:
            continue
        if isinstance(owner, ast.Name) and owner.id in bound:
            path = bound[owner.id]
            found = resolve(path)
            if found is not None and not hasattr(found, attr):
                missing.append(f"{path}.{attr}")
    return missing


def test_finds_missing_package_names():
    source = ("from tscsynth import evolve, nomodule\nfrom tscsynth.fitness import nope\n"
              "from tscsynth.evolve import Island\nevolve.run, evolve.gone, Island.nothing\n"
              "TABLE = [(evolve, 'decode', 'x'), (Island, 'missing', 'y')]\n"
              "import tscsynth.sim as s, tscsynth.verify\ns.values, s.lost, tscsynth.gone\n")
    assert sorted(missing_package_names(source)) == [
        "tscsynth.evolve.Island.missing", "tscsynth.evolve.Island.nothing",
        "tscsynth.evolve.gone", "tscsynth.fitness.nope", "tscsynth.gone",
        "tscsynth.nomodule", "tscsynth.sim.lost",
    ]


@pytest.mark.parametrize("path", BENCHMARK_SOURCES, ids=lambda path: path.name)
def test_benchmark_names_exist(path):
    # The benchmark (perfbench/) is run against each commit's sources but is
    # not changed with them: a source change that removes or renames a name
    # it uses must fail here, not only in a benchmark run.
    assert missing_package_names(path.read_text(encoding="utf-8")) == []
