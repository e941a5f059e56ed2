"""The README's code examples run as written, and its CSV contract matches the code."""

import re
from pathlib import Path

from serrin import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_sweep_csv_columns_are_the_written_ones():
    section = README.read_text().split("### Sweep CSV", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    assert [c.strip() for c in block.split(",")] == CSV_COLUMNS
