"""The README's Python examples run as written, and say what they print."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

#: ``print(expr)  # 1.23`` or ``name = ...  # 1.23``: a value the example states
STATED = re.compile(
    r"^(?:print\((?P<expr>.+)\)|(?P<name>\w+) = .+?)\s+# (?P<value>-?\d+(?:\.(?P<digits>\d+))?)\b",
    re.M,
)


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    stated = 0
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        for match in STATED.finditer(block):
            value = eval(match["expr"] or match["name"], namespace)
            digits = len(match["digits"] or "")
            assert round(value, digits) == float(match["value"]), match.group(0)
            stated += 1
    assert stated >= 2
