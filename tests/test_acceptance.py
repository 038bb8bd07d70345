"""Acceptance battery: one test per top-level check, one report line each.

Run with -s to see the PASS/FAIL lines; each test delegates to the
corresponding function in pwlab.verify at its pinned configuration.  Each
check runs once per session: the order test reads the same results.
"""

import functools

from pwlab import verify
from pwlab.verify import (
    DEFAULT_SEED,
    check_cesaro_dichotomy,
    check_commuting_square,
    check_core_properties,
    check_expansivity_dichotomy,
    check_isometry,
    check_li_yorke,
    check_noncompactness_witness,
    check_norm_equality,
    check_radius_convergence,
    check_shadowing_divergence,
    check_spectrum_trichotomy,
    check_translation_norm,
)


@functools.cache
def result_of(check):
    return check(seed=DEFAULT_SEED)


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.check_id} {status} {result.title}: {result.detail}")
    assert result.passed, f"{result.check_id} {result.title}: {result.detail}"


def test_c01_norm_equality():
    report(result_of(check_norm_equality))


def test_c02_translation_norm():
    report(result_of(check_translation_norm))


def test_c03_radius_convergence():
    report(result_of(check_radius_convergence))


def test_c04_spectrum_trichotomy():
    report(result_of(check_spectrum_trichotomy))


def test_c05_noncompactness_witness():
    report(result_of(check_noncompactness_witness))


def test_c06_isometry():
    report(result_of(check_isometry))


def test_c07_commuting_square():
    report(result_of(check_commuting_square))


def test_c08_expansivity_dichotomy():
    report(result_of(check_expansivity_dichotomy))


def test_c09_cesaro_dichotomy():
    report(result_of(check_cesaro_dichotomy))


def test_c10_shadowing_divergence():
    report(result_of(check_shadowing_divergence))


def test_c11_li_yorke():
    report(result_of(check_li_yorke))


def test_c12_core_properties():
    report(result_of(check_core_properties))


def test_check_order_matches_ids():
    # bench/run.py labels the n-th check_* callable of pwlab.verify as C<n>
    checks = tuple(fn for name, fn in vars(verify).items() if name.startswith("check_") and callable(fn))
    assert checks == verify._CHECKS
    assert [result_of(fn).check_id for fn in checks] == [f"C{n}" for n in range(1, 13)]
