"""tools/sloc.py: the line rule and the per-module report, on a made-up package."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

MODULE = '''"""Docstring lines count."""

# a comment alone does not count
    # nor an indented one

def f(x):  # a trailing comment does not hide code
    return x + 1
'''


def test_count_lines_skips_blank_and_comment_lines():
    assert sloc.count_lines(MODULE) == 3
    assert sloc.count_lines("") == sloc.count_lines("\n  \n\t\n# only\n") == 0


def test_report_per_module_and_total(tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "b.py").write_text(MODULE)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "sub" / "c.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not python\n")
    assert sloc.module_counts(package) == {"a.py": 2, "b.py": 3, "sub/c.py": 1}
    assert sloc.main([str(package)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", f"{package.as_posix()}/a.py"],
        ["3", f"{package.as_posix()}/b.py"],
        ["1", f"{package.as_posix()}/sub/c.py"],
        ["6", "total"],
    ]
