"""The library's runtime dependencies are numpy and pyyaml: every absolute
import in the package names a standard-library module or one of those two."""

import ast
import sys
from pathlib import Path

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


def test_only_dataset_imports_csv():
    """dataset.write_csv is the one CSV writer, so the file format is decided
    in one module."""
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(module == "csv" for _, module in absolute_imports(path))
    )
    assert importers == ["dataset.py"]
