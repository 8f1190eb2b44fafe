"""``scripts/src_lines.py``: the line counts by kind that change notes report."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "src_lines.py"
#: the package stays under this many lines, blank lines and docstrings
#: included (3,921 when the guard was set)
SRC_LINE_TARGET = 4000

# lines of every kind and the edge cases of each rule; the test below lists
# the line numbers of each kind
SOURCE = '''"""Module docstring.

With a blank line inside it.
"""

import os  # code with a comment

# a comment-only line
X = 1
"""The attribute docstring of X."""


def f():
    return os.sep


Y = """a string that is not a statement

counts as code, its blank line too"""
'''


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("_src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_lines_by_kind(src_lines, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # docstring: 1-4 and 10; code: 6, 9, 13, 14 and 17-19; comment: 8;
    # blank: 5, 7, 11, 12, 15 and 16
    assert src_lines.count_lines(path) == {
        "code": 7, "docstring": 5, "comment": 1, "blank": 6,
    }
    assert len(SOURCE.splitlines()) == 19


def test_main_prints_a_row_per_file_and_a_total(src_lines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nZ = 2\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", *src_lines.KINDS, "all"]
    assert [row[0] for row in rows[1:-1]] == [str(tmp_path / "a.py"),
                                              str(tmp_path / "pkg" / "b.py")]
    assert rows[2][1:] == ["1", "0", "1", "1", "3"]
    assert rows[-1] == ["total", "8", "5", "2", "7", "22"]


def test_src_stays_under_the_line_target(src_lines):
    total = sum(sum(src_lines.count_lines(f).values()) for f in (ROOT / "src").rglob("*.py"))
    assert total < SRC_LINE_TARGET
