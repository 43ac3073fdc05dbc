"""The library's runtime dependencies are numpy and pyyaml: every absolute
import in the package names a standard-library module or one of those two."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rtdcorr"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml"}


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_runtime_imports_are_stdlib_numpy_or_yaml():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in absolute_imports(path)
        if module not in ALLOWED
    ]
    assert outside == []


@pytest.mark.parametrize("module, owner", [("csv", "dataset.py"), ("yaml", "netsim.py")])
def test_one_module_imports_each_file_format(module, owner):
    """dataset.write_csv is the one CSV writer and netsim.load_yaml the one
    YAML reader, so each file format is decided in one module."""
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(name == module for _, name in absolute_imports(path))
    )
    assert importers == [owner]
