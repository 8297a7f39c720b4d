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


def test_product_sizes_runs_both_pipelines():
    path = _PATH.parent / "product_sizes.py"
    spec = importlib.util.spec_from_file_location("product_sizes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    from wiener import l1r

    convolve, fejer_kernel, lines = l1r.convolve, l1r.fejer_kernel, []
    rows = module.run(l1r, lines.append)
    assert l1r.convolve is convolve and l1r.fejer_kernel is fejer_kernel  # nothing left wrapped
    assert set(rows) == {"criterion_09", "line_divide"} and len(lines) == 16
    # three products each; the smoothing product is split into bands
    for pipeline in rows.values():
        calls = pipeline["convolve"]
        assert len(calls) == 3 and all(nodes > 2 for _, _, _, nodes, _, _ in calls)
        assert calls[0][2] > 1
        # f and the smoothing kernel, each within 2 support_tol
        kernels = pipeline["fejer_kernel"]
        assert len(kernels) == 2 and all(segs > 2 and slack <= 2.0 * tol for _, tol, segs, slack in kernels)
