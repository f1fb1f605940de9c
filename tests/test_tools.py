"""tools/code_lines.py, the code-line count the package's size is judged by,
and tools/csv_drift.py, the drift between two sets of metrics CSVs."""

import importlib.util
import math
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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


def load_tool(name="code_lines"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
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


HEADER = "round,target_acc,mean_source_loss,w_0\n"


def write_runs(directory: Path, run_hash: str, rows: dict) -> Path:
    directory.mkdir()
    for label, body in rows.items():
        (directory / f"sweep__{label}__s0__{run_hash}.csv").write_text(HEADER + body)
    return directory


def test_csv_drift_pairs_runs_across_run_hashes(tmp_path, capsys):
    a = write_runs(tmp_path / "a", "0123456789ab", {
        "tau=1.0": "0,0.5,nan,0.25\n1,0.75,1.5,0.5\n", "tau=2.0": "0,0.5,2.0,1.0\n"})
    b = write_runs(tmp_path / "b", "ba9876543210", {
        "tau=1.0": "0,0.5,nan,0.25\n1,0.875,1.25,0.5\n", "tau=2.0": "0,0.5,2.0,0.9375\n"})
    tool = load_tool("csv_drift")
    assert tool.drift(a, b) == {"round": 0.0, "target_acc": 0.125,
                                "mean_source_loss": 0.25, "w_0": 0.0625}
    assert tool.main([str(a), str(b)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["round", "0"], ["target_acc", "0.125"], ["mean_source_loss", "0.25"],
        ["w_0", "0.0625"]]
    # two files; a NaN against a number is an infinite drift
    one = next(b.glob("*tau=2.0*"))
    one.write_text(HEADER + "0,0.5,nan,1.0\n")
    assert math.isinf(tool.drift(next(a.glob("*tau=2.0*")), one)["mean_source_loss"])


def test_csv_drift_rejects_sides_that_do_not_pair_up(tmp_path, capsys):
    a = write_runs(tmp_path / "a", "0123456789ab", {"tau=1.0": "0,0.5,1.0,1.0\n"})
    b = write_runs(tmp_path / "b", "0123456789ab", {"tau=3.0": "0,0.5,1.0,1.0\n"})
    c = write_runs(tmp_path / "c", "0123456789ab", {"tau=1.0": "0,0.5,1.0,1.0\n1,0,0,1\n"})
    tool = load_tool("csv_drift")
    assert tool.main([str(a), str(b)]) == 2
    assert "runs on one side only" in capsys.readouterr().err
    assert tool.main([str(a), str(c)]) == 2
    assert "header or row count" in capsys.readouterr().err


def test_csv_drift_rejects_a_missing_path_and_directories_without_csvs(tmp_path, capsys):
    a = write_runs(tmp_path / "a", "0123456789ab", {"tau=1.0": "0,0.5,1.0,1.0\n"})
    tool = load_tool("csv_drift")
    assert tool.main([str(a), str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err == f"csv_drift: no CSVs at {tmp_path / 'missing'}\n"
    (tmp_path / "empty1").mkdir()
    (tmp_path / "empty2").mkdir()
    assert tool.main([str(tmp_path / "empty1"), str(tmp_path / "empty2")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"csv_drift: no CSVs at {tmp_path / 'empty1'}\n" and not captured.out


def test_csv_drift_compares_text_cells_by_equality(tmp_path):
    tool = load_tool("csv_drift")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    # a simmatrix: domain names label the rows
    a.write_text("train\\eval,t0,s0\nt0,0.75,0.5\ns0,0.25,1.0\n")
    b.write_text("train\\eval,t0,s0\nt0,0.875,0.5\ns0,0.25,1.0\n")
    assert tool.drift(a, b) == {"train\\eval": 0.0, "t0": 0.125, "s0": 0.0}
    # a summary: text labels, and empty cells for a config whose runs all failed
    header = "config,num_runs,mean_final_acc,std_final_acc,num_failed\n"
    a.write_text(header + "tau=0.5,0,,,2\ntau=2.0,2,0.5,0.0,0\n")
    b.write_text(header + "tau=0.5,2,0.5,0.0,0\ntau=2.0,2,0.5,0.0,0\n")
    assert tool.drift(a, b) == {"config": 0.0, "num_runs": 2.0, "mean_final_acc": math.inf,
                                "std_final_acc": math.inf, "num_failed": 2.0}
    b.write_text(header + "tau=0.25,0,,,2\ntau=2.0,2,0.5,0.0,0\n")
    largest = tool.drift(a, b)
    assert (largest["config"], largest["mean_final_acc"]) == (math.inf, 0.0)
