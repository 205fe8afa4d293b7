"""The scripts in tools/: the code-line counter that the design gates quote,
and the cold-start timer."""

import importlib.util
import subprocess
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    source = tmp_path / "m.py"
    source.write_text('''"""Module
docstring."""

# a comment
import os  # counted


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return (text,
                os.sep)
''')
    code_lines = load("code_lines")
    # import, class, def, the two lines of the string, and the two of the return
    assert code_lines.code_lines(source) == 7
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split() == ["m.py", "7", "total", "7"]


def test_code_lines_against_a_revision_prints_each_delta(tmp_path, capsys):
    # a two-commit repository: the second commit shrinks a.py, deletes b.py
    # and adds c.py; the working tree then grows c.py, uncommitted
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (package / "a.py").write_text("x = 1\ny = 2\nz = 3\n")
    (package / "b.py").write_text("import os\n")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (package / "a.py").write_text("x = 1\n")
    (package / "b.py").unlink()
    (package / "c.py").write_text("c = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (package / "c.py").write_text("c = 1\nd = 2\n")
    load("code_lines").main([str(package), "--against", "HEAD~1"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "HEAD~1", "tree", "delta"],
                    ["a.py", "3", "1", "-2"],
                    ["b.py", "1", "0", "-1"],
                    ["c.py", "0", "2", "+2"],
                    ["total", "4", "3", "-1"]]


def test_cold_start_times_a_light_command_on_two_trees(capsys):
    command = "rd --mode waterfill --const-sigma2 4 --budget 1"
    tree = str(TOOLS.parent)
    load("cold_start").main(["--runs", "2", "--tree", tree, "--tree", tree,
                             "--command", command])
    head, rule, row = capsys.readouterr().out.splitlines()
    assert head.count(f"MB ({tree})") == 2 and rule.count("---") == 7
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert cells[0] == f"`{command}`"
    for exits, ms, mb in (cells[1:4], cells[4:7]):
        # an interpreter start and the standard library: tens of ms and MB
        assert exits == "0" and float(ms) > 0.0 and 1.0 < float(mb) < 100.0
