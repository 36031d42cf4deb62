"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    residual, field = out.getvalue().split("\n", 1)
    assert float(residual) < 1e-8  # an exact pair, up to O(step^2)
    assert field.startswith("[")
