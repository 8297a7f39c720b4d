"""The code-line rule of ``tools/src_lines.py``, on which ROADMAP's line counts rest."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 17 lines; the code lines are 6, 9, 12 and 15-17
_SNIPPET = '''"""Module docstring,
over two lines."""

# a comment

X = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string that is
not a docstring"""
        return s
'''


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines():
    assert _src_lines().count(_SNIPPET) == (17, 6)


def test_count_takes_each_line_of_a_multiline_string():
    count = _src_lines().count
    assert count('s = """a\nb\nc"""\n') == (3, 3)
    assert count('def f():\n    """Doc."""\n    return """a\nb"""\n') == (4, 3)
