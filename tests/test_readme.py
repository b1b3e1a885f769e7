"""The README's library quick tour runs, and shows what it computes.

Each top-level statement of the README's ```python block is run in order.
An expression statement whose last line ends in ``# value`` or
``# value: note`` is evaluated and compared with ``value``: a list is shown
as ``[`` + ``", ".join(map(str, v))`` + ``]``, anything else by ``repr``."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def shown(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return repr(value)


def test_quick_tour_values_match_their_comments():
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        comment = re.search(r"\s# (.*)$", lines[stmt.end_lineno - 1])
        if isinstance(stmt, ast.Expr) and comment:
            want = comment.group(1).split(": ", 1)[0]
            assert shown(eval(code, namespace)) == want, code
            checked.append(code)
        else:
            exec(code, namespace)
    assert len(checked) == 9
