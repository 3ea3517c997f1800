"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = [float(x) for x in capsys.readouterr().out.split()]
    assert len(printed) == 5
    assert all(math.isfinite(x) for x in printed)
