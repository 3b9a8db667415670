"""The README's code runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_in_one_minute_runs():
    text = README.read_text()
    section = text[text.index("\n## Library in one minute\n"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].endswith("EstimatorStatus.COMPLETED")
    assert float(lines[1]) < 1e-12                # ell0 is a fixed point
    assert lines[2].split()[0] == "0"             # no bound violations
