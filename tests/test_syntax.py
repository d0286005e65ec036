"""Every Python file of the project parses as Python 3.10.

CI runs the suite on Python 3.10 and 3.11.  This test reads each `.py`
file under `src/`, `tests/` and `perfbench/` and parses it with
`ast.parse(..., feature_version=(3, 10))`, so newer syntax (an
`except*` clause, a PEP 695 type parameter list) fails it on any
interpreter.  It checks syntax only, and only as far as `ast` enforces
`feature_version`: nothing is imported or run, so a standard-library
name or a numpy call that 3.10 lacks goes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20, paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == [], failures
