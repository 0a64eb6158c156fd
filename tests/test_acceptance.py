"""Acceptance suite: the pinned fixture values and the randomized property
suites, one test per criterion (criteria 7 and 8 split by characteristic so
partial results stay visible).  Each check prints its own pass/fail line.
"""

from functools import lru_cache

import pytest

from possing import fixtures


@lru_cache(maxsize=None)
def criterion(n):
    return fixtures.CRITERIA[n]()


def report(checks):
    failures = []
    for c in checks:
        print(
            "[criterion %d] %-66s %s"
            % (c.criterion, c.name, "PASS" if c.passed else "FAIL")
        )
        if not c.passed:
            failures.append("%s (%s)" % (c.name, c.detail))
    assert not failures, "; ".join(failures)


def test_criterion_1_plane_curve_char2():
    report(criterion(1))


def test_criterion_2_space_singularity_char2():
    report(criterion(2))


def test_criterion_3_bimodal_curve_char3():
    report(criterion(3))


def test_criterion_4_two_term_family():
    report(criterion(4))


def test_criterion_5_product_formula():
    report(criterion(5))


def test_criterion_6_degree_seven_curve_char7():
    report(criterion(6))


@pytest.mark.parametrize("char", [0, 5, 3, 2])
def test_criterion_7_cusp_family(char):
    checks = [c for c in criterion(7) if c.name.startswith("char %d" % char)]
    assert checks
    report(checks)


@pytest.mark.parametrize("char", [0, 5, 3, 2])
def test_criterion_8_wave_family(char):
    checks = [c for c in criterion(8) if c.name.startswith("char %d" % char)]
    assert checks
    report(checks)


@pytest.mark.parametrize(
    "suite",
    fixtures.PROPERTY_SUITES,
    ids=lambda s: s.__name__.replace("suite_", ""),
)
def test_criterion_9_property_suites(suite):
    check = suite(cases=200)
    report([check])


def test_internal_error_in_pool_fails_the_suite(monkeypatch):
    """An error other than a named refusal propagates instead of shrinking
    the principal-part pool to a vacuous pass."""

    def broken(*args, **kwargs):
        raise AssertionError("internal error")

    fixtures._normal_form_pool.cache_clear()
    monkeypatch.setattr(fixtures, "regular_basis", broken)
    try:
        with pytest.raises(AssertionError, match="internal error"):
            fixtures.suite_normal_form_tjurina(cases=1)
    finally:
        fixtures._normal_form_pool.cache_clear()
