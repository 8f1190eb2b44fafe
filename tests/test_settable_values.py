"""``scripts/settable_values.py``: the counts of settable values that change
notes report."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "settable_values.py"
#: the most values a caller can set in the package, defaults and dataclass
#: fields together (12 and 72 when the guard was set, 8 and 65 when it was
#: last tightened): a change that adds one raises this ceiling
SETTABLE_CEILING = 73

# every rule of both kinds and what each leaves out; the test below lists
# the counted names
SOURCE = '''import dataclasses
from dataclasses import dataclass, field
from typing import ClassVar


def f(a, b=1, *args, c, d=2, **kw):
    def inner(x=0):
        return x
    return lambda y=3: y


@dataclass(frozen=True)
class A:
    x: int
    y: float = 0.5
    z: list = field(default_factory=list)
    CAP: ClassVar[int] = 4
    plain = 7

    def method(self, flag=False):
        return flag


@dataclasses.dataclass
class B:
    w: int
    v: str = "b"


class C:
    q: int = 1
'''


@pytest.fixture(scope="module")
def settable_values():
    spec = importlib.util.spec_from_file_location("_settable_values", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_values_by_kind(settable_values, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # defaults: f's b and d, inner's x, method's flag (not the lambda's y);
    # fields: A's x, y and z, B's w and v (not A's CAP or plain, nor C's q)
    assert settable_values.count_values(path) == {"defaults": 4, "fields": 5}


def test_main_prints_a_row_per_file_and_a_total(settable_values, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("def g(k=1):\n    return k\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert settable_values.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["file", *settable_values.KINDS, "all"]
    assert [row[0] for row in rows[1:-1]] == [str(tmp_path / "a.py"),
                                              str(tmp_path / "pkg" / "b.py")]
    assert rows[2][1:] == ["1", "0", "1"]
    assert rows[-1] == ["total", "5", "5", "10"]


def test_src_settable_values_stay_at_most_the_ceiling(settable_values):
    counts = [settable_values.count_values(f) for f in (ROOT / "src").rglob("*.py")]
    assert sum(sum(c.values()) for c in counts) <= SETTABLE_CEILING
