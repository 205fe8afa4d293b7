"""The scripts in tools/: the code-line counter that the design gates quote,
and the cold-start timer."""

import importlib.util
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
