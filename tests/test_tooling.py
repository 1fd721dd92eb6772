"""The repository's pytest configuration, run in a fresh pytest process on a
throwaway test file, and the library's import rule."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    """pyproject.toml turns warnings into errors.  Reporting a hypothesis
    failure can import libcst, whose mypy_extensions import warns; that
    warning must not stop the session before the next test runs."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out


def test_library_imports_only_the_standard_library_and_numpy():
    """qmn runs on numpy alone: every import in src/qmn is relative, numpy, or
    a module of Python's standard library."""
    outside = []
    for path in sorted((ROOT / "src" / "qmn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            outside += [f"{path.name}:{node.lineno} {name}" for name in top - sys.stdlib_module_names - {"numpy"}]
    assert not outside, outside


def test_library_lines_fit_in_120_characters():
    """No line of src/qmn is over 120 characters, so the line count of the
    library measures its size and not how densely it is written."""
    long = [
        f"{path.name}:{n} ({len(line)})"
        for path in sorted((ROOT / "src" / "qmn").glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 120
    ]
    assert not long, long
