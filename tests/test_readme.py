"""The README's code examples run as written, and its CSV contract and config
table match the code."""

import re
from pathlib import Path

from serrin import CSV_COLUMNS, cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_sweep_csv_columns_are_the_written_ones():
    section = README.read_text().split("### Sweep CSV", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    assert [c.strip() for c in block.split(",")] == CSV_COLUMNS


def _schema_rows(row, where):
    """``(row, key, required)`` of each key of ``row``, named ``where``, with the
    rows of its nested rows after the key that holds them."""
    for key, kind in row.items():
        yield where, key, "no" if {where, f"{where}.{key}"} & cli._OPTIONAL else "yes"
        if isinstance(kind, dict):
            yield from _schema_rows(kind, f"{where}.{key}")


def test_config_table_is_the_cli_schema():
    section = README.read_text().split("### Scenario config", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| `(\w+)` \| (yes|no)\b", section, flags=re.M)
    assert rows == [row for block, keys in cli._SCHEMA.items()
                    for row in _schema_rows(keys, block)]
