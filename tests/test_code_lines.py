"""``tools/code_lines.py`` counts what its docstring says it counts.

The code-line counts quoted for the package come from this tool, so its
rules are pinned here on a small module whose code lines are known.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
on two lines."""

# A comment line.
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,

        with a blank line inside."""
        text = """not a docstring:
it counts on each
of its lines"""
        return text


async def fetch():
    """Async function docstring."""
    return os.sep
'''

# import, class, def, text (3 lines), return, async def, return
EXPECTED = 9


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    assert load_tool().code_lines(path) == EXPECTED


def test_code_lines_count_a_string_that_is_not_a_docstring_on_each_line(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Docstring."""\nx = 1\ny = """a\nb\n\nc"""\n')
    # x, then y's string over four lines, its blank line included.
    assert load_tool().code_lines(path) == 5
