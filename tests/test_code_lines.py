"""``tools/code_lines.py`` on a hand-written snippet and on this checkout."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring
over two lines."""

import math  # a trailing comment


class Disk:
    """Class docstring."""

    def area(self, r):
        """Function docstring,
        also over two lines."""
        # a comment line
        total = (math.pi
                 * r * r)

        return total


NOTE = """a string that is not a docstring
spans two lines"""
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snippet_counts(code_lines):
    # code: import, class, def, the two-line expression, return, the two-line NOTE
    assert code_lines.count(SNIPPET) == (21, 8)


def test_prints_every_module_and_the_total(code_lines, capsys):
    root = TOOL.parents[1]
    code_lines.main([str(root)])
    out = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in (root / "src" / "serrin").glob("*.py"))
    assert out[0] == str(root)
    assert [line.split()[0] for line in out[2:-1]] == modules
    rows = [list(map(int, line.split()[1:])) for line in out[2:]]
    assert rows[-1] == [sum(col) for col in zip(*rows[:-1])]
