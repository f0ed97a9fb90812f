"""tools/code_lines.py, the code-line count quoted for the package, on
synthetic module texts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Six code lines: the import, the class line, the two lines of the string
# that is not a docstring, the def line and the return.
MODULE = '''"""A module docstring,
over two lines."""

# A comment on its own line.
import os  # and one after code


class A:
    """A class docstring."""

    text = """not a
docstring"""

    def f(self):
        """A function docstring,
        over two lines."""
        # Another comment.

        return os.sep
'''

ASYNC = '''async def g():
    """An async function's docstring."""
    return 1
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    assert code_lines.code_lines(MODULE) == 6
    assert code_lines.code_lines(ASYNC) == 2
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_a_string_that_is_not_a_docstring_counts_each_of_its_lines():
    assert code_lines.code_lines('x = 1\n"""three\nlines\nhere"""\n') == 4
    assert code_lines.code_lines('def f():\n    return """a\n    b"""\n') == 3


def test_the_total_is_the_sum_of_the_modules(tmp_path, monkeypatch, capsys):
    src = tmp_path / "pkg"
    (src / "sub").mkdir(parents=True)
    (src / "a.py").write_text(MODULE)
    (src / "sub" / "b.py").write_text(ASYNC)
    (src / "sub" / "empty.py").write_text("")
    monkeypatch.setattr(code_lines, "SRC", src)
    code_lines.main()
    lines = capsys.readouterr().out.splitlines()
    counts = {name: int(n) for n, name in (line.split() for line in lines)}
    assert lines[-1].split()[1] == "total"
    assert counts.pop("total") == sum(counts.values()) == 8
    assert counts == {"pkg/a.py": 6, "pkg/sub/b.py": 2, "pkg/sub/empty.py": 0}
