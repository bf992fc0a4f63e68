"""Every module-level import in the package, the tests and the scripts is
used by the module itself."""

import ast
from pathlib import Path

import pytest

import tscsynth

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in (
        *Path(tscsynth.__file__).resolve().parent.glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
    )
    if path.name != "__init__.py"  # re-exports its imports
)


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
