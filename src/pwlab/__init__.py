"""Numerical laboratory for composition operators with affine symbols on
bandlimited function spaces.

The package models a bandlimited function by its samples on the critical
lattice, applies composition operators C_phi f = f(cz + d) in that sampling
picture and in the frequency picture, and checks the resulting norms,
spectra, orbit growth, and dynamical classifications against closed forms.
"""

from .core import (
    DEFAULT_SEED,
    OVERFLOW_EXPONENT,
    AdmissibilityError,
    AffineSymbol,
    AliasingError,
    BandwidthMismatchError,
    OverflowGuardError,
    PwFunction,
    PwLabError,
    compose_apply,
    composed_inner_product,
    composed_norm,
    grid,
    inner_product,
    kernel_eval,
    kernel_norm_sq,
    pw_eval,
    reproduce,
    scaled,
)
from .dynamics import (
    ExpansivityCertificate,
    OrbitTrace,
    PropertyReport,
    Pseudotrajectory,
    build_pseudotrajectory,
    cesaro_averages,
    cesaro_lower_envelope,
    classify,
    expansivity_certificate,
    orbit_norms,
    orbit_norms_fourier,
    shadowing_divergence,
)
from .fourier import (
    L2Function,
    from_l2,
    to_l2,
    weighted_compose_adjoint,
    weighted_compose_apply,
)
from .probes import node_function, rough_probe, smooth_probe, spectral_pulse
from .spectral import (
    OperatorMatrix,
    SpectrumDescriptor,
    build_matrix,
    compactness_witness,
    norm_closed,
    operator_norm_estimate,
    spectral_radius_closed,
    spectral_radius_estimate,
    spectrum_closed_form,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"
