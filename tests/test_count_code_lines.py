"""The code-line counter, on a fixture with every kind of line it leaves out."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def area(r):
    """One-line docstring."""
    text = """a multi-line string
that is not a docstring"""
    return (
        math.pi
        * r**2
    )
'''


def test_counts_only_code_lines():
    # import, def, the two lines of text, and the four lines of the return
    assert count_code_lines.count_code_lines(FIXTURE) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a = tmp_path / "a.py"
    a.write_text(FIXTURE, encoding="utf-8")
    b = tmp_path / "b.py"
    b.write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert count_code_lines.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].endswith("total")
