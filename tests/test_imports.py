"""Every module-level import in the package, the tests and the scripts is
used by the module itself, the package root imports nothing, the verify
oracle and the fitness path import nothing from each other, every package
name the benchmark (perfbench/) uses exists, and each of its direct calls
of one fits the name's signature."""

import ast
import importlib
import inspect
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


def package_bindings(tree: ast.Module) -> dict[str, str]:
    """Each name an import in tree binds to a tscsynth module or name, with
    the dotted path it names."""
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
    return bound


def missing_package_names(source: str) -> list[str]:
    """The tscsynth names a source uses that do not exist: each name it
    imports from the package, each attribute it reads on an imported module
    or name, and the attribute of each (owner, "attr", ...) tuple, the form
    of the benchmark tracer's table of functions to wrap.  The source is
    parsed, never run."""
    tree = ast.parse(source)
    bound = package_bindings(tree)
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


def unbound_calls(source: str, recorded: dict[str, tuple[str, ...]] | None = None) -> list[str]:
    """Each direct call in source of an existing tscsynth name, f(...) or
    module.f(...), whose positional count and keyword names the name's
    signature does not accept, as "path at line n: why".  Given recorded,
    the parameters each name's positional arguments bind to, in order, a
    call whose n positional arguments bind to other parameters than the
    first n recorded is reported too.  Calls that spread * or ** arguments
    are skipped, and so are names that do not exist, which
    missing_package_names reports."""
    tree = ast.parse(source)
    bound = package_bindings(tree)
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            path = bound[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in bound):
            path = f"{bound[func.value.id]}.{func.attr}"
        else:
            continue
        if (any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue
        found = resolve(path)
        if not callable(found):
            continue
        try:
            binding = inspect.signature(found).bind(
                *node.args, **{kw.arg: None for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"{path} at line {node.lineno}: {exc}")
            continue
        if recorded is None:
            continue
        # Keyword values are None, so a parameter holding an argument node
        # took a positional argument; a *args parameter holds a tuple of them.
        names = []
        for name, value in binding.arguments.items():
            taken = value if isinstance(value, tuple) else (value,)
            names += [name] * sum(any(v is arg for arg in node.args) for v in taken)
        want = recorded.get(path, ())[: len(node.args)]
        if tuple(names) != want:
            unbound.append(f"{path} at line {node.lineno}: positional arguments bind to "
                           f"{tuple(names)}, recorded {want}")
    return unbound


def test_finds_unbound_calls():
    source = ("from tscsynth import genome\nfrom tscsynth.genome import decode as d, Genotype\n"
              "d(g, rng)\nd(g)\nd(g, rng, None, 1)\ngenome.decode(g, rng=r)\n"
              "genome.decode(g, seed=r)\nGenotype(1, lay)\nGenotype(value=1)\n"
              "d(*args)\ngenome.decode(g, **kw)\ngenome.gone(1)\nlen(d)\n")
    assert [line.split(":")[0] for line in unbound_calls(source)] == [
        "tscsynth.genome.decode at line 4", "tscsynth.genome.decode at line 5",
        "tscsynth.genome.decode at line 7", "tscsynth.genome.Genotype at line 9",
    ]


def test_finds_moved_positional_arguments():
    # decode(g, rng, reading) binds wherever the signature has three
    # parameters; only the recorded names tell that rng went to another one.
    source = ("from tscsynth.genome import decode, Genotype\ndecode(g, rng)\n"
              "decode(g, rng, reading)\ndecode(g, rng=r)\nGenotype(1, lay)\n"
              "Genotype(value=1, layout=lay)\n")
    recorded = {"tscsynth.genome.decode": ("genotype", "reading", "rng")}
    assert [line.split(":")[0] for line in unbound_calls(source, recorded)] == [
        "tscsynth.genome.decode at line 2", "tscsynth.genome.decode at line 3",
        "tscsynth.genome.Genotype at line 5",
    ]


# The parameters each package name the benchmark calls takes its positional
# arguments in, in order: a call of n positional arguments binds to the
# first n.  A parameter that is removed or reordered can leave a call that
# still binds, its argument landing in the next parameter, as decode(g, rng)
# would bind rng to reading if decode lost its rng.
BENCHMARK_POSITIONAL = {
    "tscsynth.evolve.run": ("config", "target", "seed_circuit"),
    "tscsynth.fitness.evaluate_checking": ("circuit", "resp_free"),
    "tscsynth.fitness.evaluate_circuit": ("circuit", "target", "max_gates"),
    "tscsynth.fitness.fault_free_response": ("circuit",),
    "tscsynth.formats.TargetSpec": ("r", "q", "columns"),
    "tscsynth.formats.parse_blif": ("text",),
    "tscsynth.formats.parse_pla": ("text",),
    "tscsynth.genome.GenomeLayout": ("r", "q", "b"),
    "tscsynth.genome.LockMask": ("locked",),
    "tscsynth.genome.crossover_single_point": ("a", "b", "rng"),
    "tscsynth.genome.decode": ("genotype", "rng"),
    "tscsynth.genome.default_address_width": ("r", "seed_gates", "q"),
    "tscsynth.genome.encode_seed": ("circuit", "layout", "rng"),
    "tscsynth.netlist.Circuit": ("r", "gates", "func_outputs"),
    "tscsynth.netlist.Gate": ("tt", "a", "b"),
    "tscsynth.netlist.build_duplication_baseline": ("seed",),
    "tscsynth.netlist.duplication_overhead": ("g", "q"),
    "tscsynth.sim.simulate": ("circuit",),
    "tscsynth.verify.verify_fs": ("circuit", "scope"),
    "tscsynth.verify.verify_tsc": ("circuit",),
}


@pytest.mark.parametrize("path", BENCHMARK_SOURCES, ids=lambda path: path.name)
def test_benchmark_calls_bind(path):
    # A source change that renames a parameter a call names, such as
    # IslandConfig's stop_on_goal, that changes how many positional
    # arguments a name takes, or that moves a positional argument to
    # another parameter, must fail here too, not only in a benchmark run.
    assert unbound_calls(path.read_text(encoding="utf-8"), BENCHMARK_POSITIONAL) == []
