import textwrap

from conftest import load_script

#: a module with every kind of line: 2 docstring lines (module and class),
#: 7 code lines (a multi-line string's three, its blank line included, and a
#: line with a trailing comment), 2 comment lines and 5 blank lines
MODULE = textwrap.dedent('''\
    """A module."""

    # a comment
    import os  # a trailing comment is code


    class A:
        """A class."""

        X = """text

        more"""

        def f(self):
            # another comment
            return os.sep
    ''')


def test_count_lines_sorts_each_line_into_one_kind():
    code_lines = load_script("code_lines")
    assert code_lines.count_lines(MODULE) == {"code": 7, "docstring": 2, "comment": 2, "blank": 5}
    doc = 'def g():\n    """Two\n    lines."""\n    return 1\n'
    assert code_lines.count_lines(doc) == {"code": 2, "docstring": 2, "comment": 0, "blank": 0}


def test_code_lines_prints_each_module_and_the_totals(tmp_path, capsys):
    for side, modules in (("a", {"pkg/m.py": MODULE}),
                          ("b", {"pkg/m.py": MODULE + "Y = 1\n", "pkg/n.py": "# only in b\n"})):
        for name, text in modules.items():
            path = tmp_path / side / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    code_lines = load_script("code_lines")
    assert code_lines.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    rows = {line.split(" | ")[0].strip(): [int(v) for v in line.replace("|", " ").split()[1:]]
            for line in lines[2:]}
    # per kind (code, docstring, comment, blank): A, B, B - A
    assert rows == {
        "pkg/m.py": [7, 8, 1, 2, 2, 0, 2, 2, 0, 5, 5, 0],
        "pkg/n.py": [0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
        "total": [7, 8, 1, 2, 2, 0, 2, 3, 1, 5, 5, 0],
    }
