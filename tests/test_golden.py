"""Golden `--json` output of the README CLI examples.

Each case runs one CLI example with `--json`, drops the wall-clock
`timing_ms` field and compares the serialized report byte for byte with
`golden_cli.json`.  Besides the README examples (all but `selftest`) the
cases cover the facets and vertices of a three-variable Newton diagram
(`newton`), a diagram extended by a virtual point (`cpoly`) and two
non-quasihomogeneous `classify` inputs: one whose weight systems have no
one-dimensional solution space, and one with a ray of weights that
vanishes on an axis.  Two more pin the polytope code: a plane diagram
extended by a virtual point on one axis (`cpoly`), and a three-variable
diagram with a vertex on no compact facet (`newton`).
A last `conditions` case over F_2 has a witness ray in both modes.

Regenerate the file with `PYTHONPATH=src python tests/test_golden.py`, only
when an output change is intended.
"""

import io
import json
from pathlib import Path

import pytest

from possing.cli import run

GOLDEN = Path(__file__).with_name("golden_cli.json")

CASES = [
    ["tau", "--char", "2", "--vars", "x,y", "x^5+x^2*y^2+y^4"],
    ["mu", "--char", "0", "--vars", "x,y,z", "x^2*z+y^3+z^4"],
    ["newton", "--vars", "x,y", "x*y^4+x^2*y^3+x^3*y^2-x^4*y^2+x^7"],
    ["cpoly", "--vars", "x,y", "--weights", "1,2;3,1"],
    ["val", "--char", "2", "--vars", "x,y", "--weights", "4,6;5,5", "x^5+x^2*y^2+y^4"],
    ["inform", "--char", "7", "--vars", "x,y", "--weights", "4,7", "x^7+x^6*y+y^4"],
    ["conditions", "--char", "3", "--vars", "x,y", "x^12+x^3*y^2+y^3"],
    ["regbasis", "--char", "2", "--vars", "x,y,z", "--weights", "9,8,6",
     "--mode", "contact", "x^2*z+y^3+z^4"],
    ["innd", "--char", "7", "--vars", "x,y", "x^5+x^2*y^2+y^4"],
    ["classify", "--vars", "x,y,z", "--weights", "9,8,6", "x^2*z+y^3+z^4"],
    ["normalform", "--char", "2", "--vars", "x,y,z", "--weights", "9,8,6",
     "--mode", "contact", "x^2*z+y^3+z^4+x*y*z^2"],
    ["determinacy", "--char", "3", "--vars", "x,y", "--mode", "contact",
     "x^12+x^3*y^2+y^3"],
    ["newton", "--vars", "x,y,z", "x^3+x*y^3+z^2"],
    ["cpoly", "--vars", "x,y,z", "x^3+x*y^3+z^2"],
    ["classify", "--vars", "x,y,z", "x^3+x*y^3+z^2+y^5"],
    ["classify", "--vars", "x,y", "--weights", "1,1", "--scan-bound", "4", "x^2+x^2*y"],
    ["cpoly", "--vars", "x,y", "x^5+x^2*y^2"],
    ["newton", "--vars", "x,y,z", "x*y^2*z^2+x^2*y*z+x^2*y^5+x^4*z^4"],
]

# Kept out of CASES so that the parametrized ids above stay `conditions`,
# `classify0`, ... and this case gets a test name of its own.
WITNESS_CASE = ["conditions", "--char", "2", "--vars", "x,y", "--scan-bound", "8",
                "x^5+x^2*y^2+y^4"]


def report(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv + ["--json"], out=out, err=err)
    assert code == 0, err.getvalue()
    rep = json.loads(out.getvalue())
    rep.pop("timing_ms")
    return json.dumps(rep, sort_keys=True, indent=2)


def test_golden_covers_every_case():
    assert list(json.loads(GOLDEN.read_text())) == [" ".join(a) for a in CASES + [WITNESS_CASE]]


@pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
def test_json_output_matches_golden(argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert report(argv) == json.dumps(expected, sort_keys=True, indent=2)


def test_conditions_witness_matches_golden():
    test_json_output_matches_golden(WITNESS_CASE)


if __name__ == "__main__":
    golden = {" ".join(argv): json.loads(report(argv)) for argv in CASES + [WITNESS_CASE]}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
