"""The code-line counter in tools/, which the design gates quote."""

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
