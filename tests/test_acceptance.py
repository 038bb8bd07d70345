"""Acceptance battery: one test per top-level check, one report line each.

Run with -s to see the PASS/FAIL lines; each test delegates to the
corresponding function in pwlab.verify at its pinned configuration.  Each
check runs once per session, under a profile hook that records the kernel
families it reaches: the order and census tests read the same results.
"""

import functools
import sys

from pwlab import core, dynamics, fourier, spectral, verify
from pwlab.verify import (
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


# the kernel families of the route census, keyed by (module file, function name)
FAMILIES = {
    (spectral.__file__, "build_matrix"): "section",
    (spectral.__file__, "_lanczos"): "section",
    (core.__file__, "_cardinal"): "sinc sum",
    (core.__file__, "_pairings"): "closed pairing",
    (core.__file__, "_coset_sum"): "coset FFT",
    (fourier.__file__, "to_l2"): "Fourier",
    (fourier.__file__, "_values_at"): "Fourier",
    (fourier.__file__, "_subgrid_values"): "Fourier",
    (dynamics.__file__, "orbit_norms_fourier"): "Fourier",
    (core.__file__, "kernel_norm_sq"): "closed kernel",
    (spectral.__file__, "norm_closed"): "closed form",
    (spectral.__file__, "spectral_radius_closed"): "closed form",
    (spectral.__file__, "spectrum_closed_form"): "closed form",
}
reached = {}


def traced(check, families):
    """check(), with the kernel families it reaches added to families."""
    def hook(frame, event, arg):
        if event == "call":
            family = FAMILIES.get((frame.f_code.co_filename, frame.f_code.co_name))
            if family:
                families.add(family)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        return check()
    finally:
        sys.setprofile(previous)


@functools.cache
def result_of(check):
    families = reached[check] = set()
    return traced(check, families)


def report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{result.check_id} {status} {result.title}: {result.detail}")
    # a Python bool, not numpy's: pwlab verify --out writes it to JSON
    assert result.passed is True, f"{result.check_id} {result.title}: {result.detail}"


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
    # run_all runs, and bench/run.py labels as C<n>, the n-th check_* callable of pwlab.verify
    checks = tuple(fn for name, fn in vars(verify).items() if name.startswith("check_") and callable(fn))
    assert checks == verify._CHECKS
    assert [result_of(fn).check_id for fn in checks] == [f"C{n}" for n in range(1, 13)]


# The census as the hook finds it.  Rows with a single numerical route: C4's
# spectrum (its section is only the T^2 = I line), C5, and C10 and C11, whose
# sinc sums run inside the closed pairing or read f(alpha) (C10).  A change that
# adds a route changes its row here; one that merges two routes fails.
CENSUS = {
    "C1": {"section", "closed form"},
    "C2": {"section", "closed form"},
    "C3": {"section", "closed form"},
    "C4": {"section", "closed form"},
    "C5": {"closed kernel"},
    "C6": {"sinc sum", "coset FFT"},
    "C7": {"sinc sum", "coset FFT", "Fourier"},
    "C8": {"closed pairing", "sinc sum", "Fourier", "closed form"},
    "C9": {"closed pairing", "sinc sum", "Fourier", "closed form"},
    "C10": {"closed pairing", "sinc sum", "closed kernel"},
    "C11": {"closed pairing", "sinc sum"},
    "C12": {"sinc sum", "coset FFT"},
}


def test_route_census():
    found = {result_of(fn).check_id: reached[fn] for fn in verify._CHECKS}
    assert found == CENSUS
    # run again on the operator tables the first runs left (core._table): the same
    # kernels are reached, and every result is the same to the byte
    warm = {}
    for fn in verify._CHECKS:
        result = traced(fn, warm.setdefault(fn, set()))
        assert result == result_of(fn), result.check_id
    assert {result_of(fn).check_id: warm[fn] for fn in verify._CHECKS} == CENSUS
