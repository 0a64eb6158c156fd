import importlib
import io
import json
import time

import pytest

from possing.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--json"])
    return code, (json.loads(out) if out else None), err


class TestParsing:
    def test_tau_command(self):
        code, rep, _ = invoke_json(
            ["tau", "--char", "2", "--vars", "x,y", "x^5+x^2*y^2+y^4"]
        )
        assert code == 0
        assert rep["result"]["tjurina"] == 16

    def test_weight_list(self):
        code, rep, _ = invoke_json(
            ["val", "--char", "2", "--vars", "x,y", "--weights", "4,6;5,5",
             "x^5+x^2*y^2+y^4"]
        )
        assert code == 0
        assert rep["result"]["value"] == 20

    def test_composite_characteristic_rejected(self):
        code, _, err = invoke(["tau", "--char", "4", "--vars", "x,y", "x^2+y^2"])
        assert code == 1
        assert "prime" in err

    def test_largest_accepted_characteristic(self):
        code, rep, _ = invoke_json(["mu", "--char", "2147483647", "--vars", "x,y", "x^2+y^3"])
        assert code == 0
        assert rep["result"]["milnor"] == 2

    def test_huge_characteristic_refused_fast(self):
        start = time.perf_counter()
        code, _, err = invoke(["mu", "--char", "1000000000000000003", "--vars", "x,y", "x^2+y^3"])
        assert code == 1
        assert "2^31" in err
        assert time.perf_counter() - start < 1.0

    def test_unknown_variable(self):
        code, _, err = invoke(["tau", "--vars", "x,y", "x+z"])
        assert code == 1
        assert "unknown variable" in err

    def test_malformed_weights(self):
        code, _, err = invoke(
            ["val", "--vars", "x,y", "--weights", "1,zzz", "x+y"]
        )
        assert code == 1

    @pytest.mark.parametrize("command,poly", [("regbasis", "x^2+y^3"), ("normalform", "x^3+y^4")])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_scan_bound_below_one_rejected(self, command, poly, bound):
        # a scan to bound 0 checks no multiple, so it cannot report a verdict
        code, out, err = invoke([command, "--scan-bound", bound, poly])
        assert code == 1 and out == ""
        assert "--scan-bound must be at least 1" in err

    def test_scan_bound_one_accepted(self):
        code, rep, _ = invoke_json(["regbasis", "--scan-bound", "1", "x^2+y^3"])
        assert code == 0
        assert rep["result"]["scan_bound"] == 1

    def test_missing_polynomial(self):
        code, _, _ = invoke(["mu", "--vars", "x,y"])
        assert code == 1


class TestCommands:
    def test_mu_infinite_serializes(self):
        code, rep, _ = invoke_json(
            ["mu", "--char", "2", "--vars", "x,y", "x^5+x^2*y^2+y^4"]
        )
        assert code == 0 and rep["result"]["milnor"] == "inf"

    @pytest.mark.parametrize("command,poly,key,value", [
        ("mu", "x^100000000+y^2", "milnor", 99_999_999),
        ("tau", "x^100000000+y^3", "tjurina", 199_999_998),
    ])
    def test_huge_pure_power_answers(self, command, poly, key, value):
        """Standard monomials are counted, not listed: no MemoryError."""
        code, rep, err = invoke_json([command, "--vars", "x,y", poly])
        assert code == 0 and err == ""
        assert rep["result"][key] == value

    def test_newton(self):
        code, rep, _ = invoke_json(
            ["newton", "--vars", "x,y", "x*y^4+x^2*y^3+x^3*y^2-x^4*y^2+x^7"]
        )
        assert code == 0
        assert rep["result"]["vertices"] == [[1, 4], [3, 2], [7, 0]]
        assert rep["result"]["convenient"] is False

    def test_cpoly_from_weights(self):
        code, rep, _ = invoke_json(
            ["cpoly", "--vars", "x,y", "--weights", "1,2;3,1"]
        )
        assert code == 0
        assert rep["result"]["weights"] == [[1, 2], [3, 1]]

    def test_inform(self):
        code, rep, _ = invoke_json(
            ["inform", "--char", "7", "--vars", "x,y", "--weights", "4,7",
             "x^7+x^6*y+y^4"]
        )
        assert code == 0
        assert rep["result"]["initial_form"] == "x^7+y^4"

    def test_conditions_e33(self):
        code, rep, _ = invoke_json(
            ["conditions", "--char", "3", "--vars", "x,y", "x^12+x^3*y^2+y^3"]
        )
        assert code == 0
        res = rep["result"]
        assert res["contact_graded_finite"] is True
        assert res["contact_graded_exact"] is False
        assert res["tjurina"] == 21
        assert res["dim_gr_contact"] == 22

    def test_regbasis_q10(self):
        code, rep, _ = invoke_json(
            ["regbasis", "--char", "2", "--vars", "x,y,z", "--weights", "9,8,6",
             "--mode", "contact", "x^2*z+y^3+z^4"]
        )
        assert code == 0
        res = rep["result"]
        assert res["dimension"] == 16 and res["max_valuation"] == 35

    def test_innd(self):
        code, rep, _ = invoke_json(
            ["innd", "--char", "7", "--vars", "x,y", "x^5+x^2*y^2+y^4"]
        )
        assert code == 0 and rep["result"]["inner_nondegenerate"] is True

    def test_classify_quasihomogeneous(self):
        code, rep, _ = invoke_json(
            ["classify", "--vars", "x,y,z", "--weights", "9,8,6", "x^2*z+y^3+z^4"]
        )
        assert code == 0
        res = rep["result"]
        assert res["quasihomogeneous"]["weights"] == [9, 8, 6]
        assert res["semi_quasihomogeneous_right"] is True
        assert res["milnor_equals_tjurina"] is True

    def test_normalform_q10(self):
        code, rep, _ = invoke_json(
            ["normalform", "--char", "2", "--vars", "x,y,z", "--weights", "9,8,6",
             "--mode", "contact", "x^2*z+y^3+z^4+x*y*z^2"]
        )
        assert code == 0
        res = rep["result"]
        assert res["coefficients"] == {"x*y*z^2": 1}
        assert res["principal_part"] == "z^4+y^3+x^2*z"  # canonical order

    def test_determinacy(self):
        code, rep, _ = invoke_json(
            ["determinacy", "--char", "2", "--vars", "x,y,z", "--weights", "9,8,6",
             "--mode", "contact", "x^2*z+y^3+z^4"]
        )
        assert code == 0
        assert rep["result"]["filtered_bound"] == 5


README_CLASSIFY = ["classify", "--vars", "x,y,z", "--weights", "9,8,6", "x^2*z+y^3+z^4"]
README_DETERMINACY = ["determinacy", "--char", "3", "--vars", "x,y", "--mode", "contact",
                      "x^12+x^3*y^2+y^3"]
UNIT_GERM = "x^6*y^6*z^5+x^6*y^5*z^3+y^6*z^6+x^6*y^5+x^5*y^2*z^3+y*z+x"


def counting(monkeypatch, target: str) -> list:
    """Wrap the function at the dotted path target; the list of its calls."""
    module, name = target.rsplit(".", 1)
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, counted)
    return calls


class TestOneInvariantPerPolynomial:
    """Each command parses a fresh polynomial, whose Milnor and Tjurina
    numbers are remembered on it: one Lazard standard basis per value."""

    @pytest.mark.parametrize("argv, runs", [
        (README_CLASSIFY, 2),
        (README_DETERMINACY, 1),
        (["conditions", "--char", "3", "--vars", "x,y", "x^12+x^3*y^2+y^3"], 2),
    ])
    def test_lazard_runs(self, monkeypatch, argv, runs):
        calls = counting(monkeypatch, "possing.localalg.std_basis")
        code, _, err = invoke(argv)
        assert code == 0, err
        assert len(calls) == runs

    @pytest.mark.parametrize("command, key", [("mu", "milnor"), ("tau", "tjurina")])
    def test_unit_ideal_needs_no_basis(self, monkeypatch, command, key):
        """f_x has constant term 1, a unit of K[[x]]: both colengths are 0."""
        calls = counting(monkeypatch, "possing.localalg.std_basis")
        code, rep, _ = invoke_json([command, "--vars", "x,y,z", UNIT_GERM])
        assert code == 0 and rep["result"] == {key: 0}
        assert calls == []

    @pytest.mark.parametrize("argv", [
        README_CLASSIFY,
        ["classify", "--char", "3", "--vars", "x,y", "x^12+x^3*y^2+y^3"],
        ["classify", "--vars", "x,y", "x^5+x^2*y^2"],
    ])
    def test_classify_builds_one_polytope(self, monkeypatch, argv):
        from_poly = counting(monkeypatch, "possing.cli.cpolytope_from_poly")
        from_weights = counting(monkeypatch, "possing.cli.cpolytope_from_weights")
        code, _, err = invoke(argv)
        assert code == 0, err
        assert len(from_poly) + len(from_weights) == 1


class TestRefusals:
    def test_normalform_refusal_exit_code(self):
        code, out, err = invoke(
            ["normalform", "--char", "2", "--vars", "x,y", "--mode", "contact",
             "--scan-bound", "24", "x^5+x^2*y^2+y^4"]
        )
        assert code == 2
        assert "refused" in err and "witness_ray" in err

    def test_truncate_generic_fallback(self):
        code, rep, _ = invoke_json(
            ["normalform", "--char", "2", "--vars", "x,y", "--mode", "contact",
             "--scan-bound", "24", "--truncate-generic", "x^5+x^2*y^2+y^4"]
        )
        assert code == 0
        assert rep["result"]["generic_bound"] == 30


class TestDeterminism:
    def test_json_round_trip_identical(self):
        argv = ["conditions", "--char", "3", "--vars", "x,y", "x^12+x^3*y^2+y^3",
                "--json"]
        out1, out2 = io.StringIO(), io.StringIO()
        assert run(argv, out=out1) == 0
        assert run(argv, out=out2) == 0
        rep1 = json.loads(out1.getvalue())
        rep2 = json.loads(out2.getvalue())
        rep1.pop("timing_ms"), rep2.pop("timing_ms")
        assert rep1 == rep2
        # byte-identical re-serialization
        blob = json.dumps(rep1, sort_keys=True, indent=2)
        assert blob == json.dumps(json.loads(blob), sort_keys=True, indent=2)

    def test_conditions_text_key_order(self):
        # witness rays follow the right-mode dimensions; both modes have one
        code, out, _ = invoke(["conditions", "--char", "2", "--vars", "x,y",
                               "--scan-bound", "8", "x^5+x^2*y^2+y^4"])
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "right_graded_finite",
            "milnor",
            "dim_gr_right",
            "witness_rays.right_graded_finite",
            "witness_rays.right_graded_exact",
            "witness_rays.contact_graded_finite",
            "witness_rays.contact_graded_exact",
            "right_graded_exact",
            "contact_graded_finite",
            "tjurina",
            "dim_gr_contact",
            "contact_graded_exact",
        ]

    def test_text_output_renders(self):
        code, out, _ = invoke(["tau", "--char", "2", "--vars", "x,y",
                               "x^5+x^2*y^2+y^4"])
        assert code == 0
        assert "tjurina" in out and "16" in out


class TestInternalFailures:
    @pytest.mark.parametrize(
        "exc", [AssertionError("standard-basis and echelon colengths disagree"),
                AssertionError("residual escaped the quotient basis"),
                MemoryError(),
                RecursionError("maximum recursion depth exceeded")])
    def test_internal_failure_exit_code(self, monkeypatch, exc):
        def fail(f):
            raise exc

        monkeypatch.setattr("possing.cli.milnor", fail)
        code, out, err = invoke(["mu", "--vars", "x,y", "x^2+y^3"])
        assert code == 3
        assert err.startswith("error: internal: ")
        assert (str(exc) or type(exc).__name__) in err
        assert "Traceback" not in err and out == ""


class TestSelftest:
    def test_check_lines_go_to_the_out_stream(self, monkeypatch, capsys):
        """Each check line and the summary go to `out`, none to stdout."""
        from possing import fixtures

        monkeypatch.setattr(fixtures, "CRITERIA", {
            1: lambda: [fixtures.CheckResult(1, "fake passing check", True)]})
        monkeypatch.setattr(fixtures, "PROPERTY_SUITES", [
            lambda cases: fixtures.CheckResult(9, "fake failing suite", False, "why")])
        code, out, err = invoke(["selftest"])
        assert capsys.readouterr().out == ""
        assert code == 2 and err == ""
        assert out.splitlines() == [
            "[criterion 1] %-64s PASS" % "fake passing check",
            "[criterion 9] %-64s FAIL" % "fake failing suite",
            "    why",
            "selftest: 2 checks, 1 passed, 1 failed",
        ]
