"""The README library example runs and gives the values it states."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    exec(blocks[0], ns)
    assert ns["tjurina"](ns["f"]) == 12
    assert ns["rb"].dimension == 16
    stated = ns["poly_from_string"](ns["ring"], "x^2*z+y^3+z^4+x*y*z^2")
    assert ns["nf"].polynomial() == stated
