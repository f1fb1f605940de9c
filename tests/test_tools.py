"""tools/code_lines.py, the code-line count the package's size is judged by."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 7 code lines: the import, the def, the three lines of the split call, the
# string expression (not a docstring, so it is code) and the return
MODULE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


def f(a, b):
    """Function docstring."""
    # a comment-only line
    total = max(a,
                b,
                os.sep)
    "a string expression, not a docstring"
    return total
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_small_module():
    assert load_tool().code_lines(MODULE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert load_tool().main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(tmp_path / "pkg" / "a.py"), "7"], [str(tmp_path / "pkg" / "b.py"), "1"],
        ["total", "8"]]
