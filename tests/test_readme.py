"""The README's documented session runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

from misobc import GAP_BOUND

README = Path(__file__).resolve().parent.parent / "README.md"


def minimal_session() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"A minimal session:\s*```python\n(.*?)```", text, re.S)
    assert match, "README has no minimal-session python block"
    return match.group(1)


def test_readme_minimal_session_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(minimal_session(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("MonteCarloEstimate(")
    assert float(lines[1]) < GAP_BOUND
    pair = [float(x) for x in lines[2].strip("[]").split(",")]
    assert len(pair) == 2 and pair[0] == pair[1] > 0.0
