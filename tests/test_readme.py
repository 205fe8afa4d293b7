"""The README's documented session runs as written against the package,
and its module and estimator memory tables match the code."""

import contextlib
import io
import itertools
import re
from pathlib import Path

from misobc import GAP_BOUND, capacity

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


def test_readme_scratch_rows_match_the_estimator():
    # one table row per set of quantities, with the rows _scratch_rows sizes
    # on one power and on several, for the quantities in every order
    text = README.read_text(encoding="utf-8")
    match = re.search(r"\| quantities \| one power \| several powers \|\n"
                      r"\| -+ \| -+ \| -+ \|\n((?:\|.*\|\n)+)", text)
    assert match, "README has no quantities/rows table"
    table = {}
    for line in match.group(1).splitlines():
        names, one, several = (cell.strip() for cell in line.strip("|").split("|"))
        table[frozenset(names.split(", "))] = (int(one), int(several))
    sets = [q for k in (1, 2, 3) for q in itertools.combinations(capacity.QUANTITIES, k)]
    assert len(table) == len(sets)
    for quantities in sets:
        for order in itertools.permutations(quantities):
            rows = (capacity._scratch_rows(order, 1), capacity._scratch_rows(order, 50))
            assert table[frozenset(quantities)] == rows, order


def test_readme_module_table_lists_every_module():
    # one row per module under src/misobc, the package module itself aside
    text = README.read_text(encoding="utf-8")
    match = re.search(r"\| module +\| contents +\|\n\| -+ \| -+ \|\n((?:\|.*\|\n)+)", text)
    assert match, "README has no module table"
    listed = [re.match(r"\| `misobc\.(\w+)` +\|", line).group(1)
              for line in match.group(1).splitlines()]
    package = Path(capacity.__file__).parent
    modules = sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__")
    assert sorted(listed) == modules and len(set(listed)) == len(listed)
