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


@pytest.mark.parametrize("module, owner", [("csv", "dataset.py"), ("yaml", "netsim.py"),
                                           ("json", "netsim.py")])
def test_one_module_imports_each_file_format(module, owner):
    """dataset.write_csv is the one CSV writer, and netsim.load_config the
    one config reader (through netsim.load_document, the one JSON and YAML
    reader), so each file format is decided in one module."""
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(name == module for _, name in absolute_imports(path))
    )
    assert importers == [owner]


def attribute_uses(node: ast.AST, scope: str, module: str, attr: str) -> list[str]:
    """The scope (dotted names of the module and the enclosing definitions)
    of each ``module.attr`` named under an AST node."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif (isinstance(child, ast.Attribute) and child.attr == attr
              and isinstance(child.value, ast.Name) and child.value.id == module):
            found.append(scope)
        found += attribute_uses(child, inner, module, attr)
    return found


def package_uses(module: str, attr: str) -> list[str]:
    """``attribute_uses`` over every module of the package."""
    return [
        use
        for path in sorted(PACKAGE.glob("*.py"))
        for use in attribute_uses(ast.parse(path.read_text(), filename=str(path)), path.stem, module, attr)
    ]


def test_one_csv_row_writer():
    """The package names ``csv.writer`` once, in ``dataset.write_csv``, so
    every CSV row goes through that one writer."""
    assert package_uses("csv", "writer") == ["dataset.write_csv"]


def text_opens_without_encoding(tree: ast.AST) -> list[int]:
    """The line of each call of the builtin ``open`` under an AST node that
    opens a text file (its mode is not a literal with ``b``) and names no
    ``encoding``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        binary = isinstance(mode, ast.Constant) and "b" in mode.value
        if not binary and not any(k.arg == "encoding" for k in node.keywords):
            found.append(node.lineno)
    return found


def test_every_file_is_read_and_written_one_way():
    """The locale decides nothing: no module imports ``locale``, and every
    text-mode ``open`` names its encoding.  YAML is loaded in one place,
    ``netsim.load_document``, with its one loader."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert [p.name for p in sources if any(m == "locale" for _, m in absolute_imports(p))] == []
    unnamed = [f"{p.name}:{line}" for p in sources
               for line in text_opens_without_encoding(ast.parse(p.read_text(), filename=str(p)))]
    assert unnamed == []
    assert package_uses("yaml", "load") == ["netsim.load_document"]


def test_every_bundled_file_is_package_data():
    """Each file under the package's configs/ matches a package-data glob
    of pyproject.toml, so an installed rtdcorr keeps its bundled configs."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["rtdcorr"]
    bundled = sorted(p.relative_to(PACKAGE) for p in (PACKAGE / "configs").iterdir())
    assert bundled
    assert [p for p in bundled if not any(p.match(g) for g in globs)] == []
