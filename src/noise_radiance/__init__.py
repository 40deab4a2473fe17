"""Photon emission spectra of noise-driven bound quantum systems.

The package computes the radiation emitted when a bound system (an ion in a
trap, a generic few-level system) is shaken by a classical Gaussian noise
field and relaxes by photon emission.  Second-order amplitudes carry one
noise vertex and one radiation vertex; level widths damp the intermediate
propagation and remove the secular artifact that a zero-width treatment
produces at the noise frequency itself.

Public API highlights
---------------------
``NoiseModel`` / ``NoiseSum``
    stationary correlation models (white, exponential, gaussian, tabulated)
    with spectral densities, admissibility checks and weighted moments.
``SystemSpec`` / ``CouplingConstants``
    level structure, coupling matrices, widths, and unit conventions,
    plus builtin example systems and a text save/load format.
``kernel_T1`` .. ``rate_T3_longtime``
    exact finite-time double-time kernels and their long-time rates.
``spectrum`` / ``emission_rate_at_k``
    assembled differential emission rate over a photon-momentum grid,
    in regularized (damped) or naive (zero-width, windowed) mode.
``estimate_Pfi`` / ``sample_noise``
    Monte Carlo cross-check: Gaussian noise trajectories and the
    second-order amplitude along each, read off its Gaussian weights.
``oracle_dT1_dt`` and friends
    independent quadrature oracles used by the test suite.
"""
from __future__ import annotations

from .errors import (
    EdgeLevelWarning,
    InadmissibleNoiseError,
    InvariantViolationError,
    NoiseRadianceError,
    NonGroundInitialWarning,
    OutOfSupportWarning,
    ParseError,
    PointwiseUndefinedError,
    QuadratureNonConvergentError,
    ResonantMixedTermError,
    TrajectoryTooShortError,
    ZeroWidthError,
)
from .noise import (
    AdmissibilityReport,
    AnyNoise,
    NoiseModel,
    NoiseSum,
    corr_laplace,
    corr_moment,
    correlation_reach,
    correlation_time,
    eval_correlation,
    load_correlation_file,
    spectral_density,
    validate_admissible,
)
from .system import (
    CouplingConstants,
    SystemSpec,
    bohr_frequency,
    builtin_harmonic_oscillator,
    builtin_oscillator_3d,
    csl_equivalent_gamma,
    delta_matrix,
    load_system,
    mode_amplitude,
    near_degenerate_toy,
    radiation_element,
    radiation_matrix,
    save_system,
    two_level_toy,
)
from .kernels import (
    KernelParams,
    KernelValue,
    correlation_double_integral,
    correlation_double_integral_derivative,
    exp_time_integral,
    kernel_T1,
    kernel_T2,
    kernel_T3,
    kernel_single_mode_damped,
    kernel_single_mode_undamped,
    ordered_double_exp,
    rate_T1_longtime,
    rate_T2_longtime,
    rate_T3_longtime,
    residual_cross_bound,
    residual_cross_rate,
    residual_cross_window_mean,
)
from .linewidth import (
    beta_constant,
    fill_widths,
    generic_linewidth,
    ho_energy_shift,
    oscillator_linewidth,
    single_quantum_width,
)
from .rate import (
    ANGULAR_POLARIZATION_FACTOR,
    EmissionSpectrum,
    check_contributing_widths,
    emission_line_weight,
    emission_rate_at_k,
    finite_time_probability,
    naive_rate_at_k,
    pair_rate_terms,
    spectrum,
)
from .mc import (
    AmplitudeEstimate,
    NoiseRealization,
    amplitude_paths,
    default_time_step,
    empirical_autocovariance,
    estimate_Pfi,
    predicted_Pfi,
    sample_noise,
)
from .oracles import (
    brute_force_kernel,
    correlation_pair_integral,
    fourier_transform_quadrature,
    oracle_dT1_dt,
    oracle_dT2_dt,
    oracle_dT3_dt,
    polarization_overlap_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "ANGULAR_POLARIZATION_FACTOR",
    "AdmissibilityReport",
    "AmplitudeEstimate",
    "AnyNoise",
    "CouplingConstants",
    "EdgeLevelWarning",
    "EmissionSpectrum",
    "InadmissibleNoiseError",
    "InvariantViolationError",
    "KernelParams",
    "KernelValue",
    "NoiseModel",
    "NoiseRadianceError",
    "NoiseRealization",
    "NoiseSum",
    "NonGroundInitialWarning",
    "OutOfSupportWarning",
    "ParseError",
    "PointwiseUndefinedError",
    "QuadratureNonConvergentError",
    "ResonantMixedTermError",
    "SystemSpec",
    "TrajectoryTooShortError",
    "ZeroWidthError",
    "amplitude_paths",
    "beta_constant",
    "bohr_frequency",
    "brute_force_kernel",
    "builtin_harmonic_oscillator",
    "builtin_oscillator_3d",
    "check_contributing_widths",
    "corr_laplace",
    "corr_moment",
    "correlation_double_integral",
    "correlation_double_integral_derivative",
    "correlation_pair_integral",
    "correlation_reach",
    "correlation_time",
    "csl_equivalent_gamma",
    "delta_matrix",
    "emission_line_weight",
    "emission_rate_at_k",
    "empirical_autocovariance",
    "estimate_Pfi",
    "eval_correlation",
    "exp_time_integral",
    "fill_widths",
    "finite_time_probability",
    "fourier_transform_quadrature",
    "generic_linewidth",
    "ho_energy_shift",
    "kernel_T1",
    "kernel_T2",
    "kernel_T3",
    "kernel_single_mode_damped",
    "kernel_single_mode_undamped",
    "load_correlation_file",
    "load_system",
    "mode_amplitude",
    "naive_rate_at_k",
    "near_degenerate_toy",
    "ordered_double_exp",
    "oracle_dT1_dt",
    "oracle_dT2_dt",
    "oracle_dT3_dt",
    "oscillator_linewidth",
    "pair_rate_terms",
    "polarization_overlap_quadrature",
    "predicted_Pfi",
    "radiation_element",
    "radiation_matrix",
    "rate_T1_longtime",
    "rate_T2_longtime",
    "rate_T3_longtime",
    "residual_cross_bound",
    "residual_cross_rate",
    "residual_cross_window_mean",
    "sample_noise",
    "save_system",
    "single_quantum_width",
    "spectral_density",
    "spectrum",
    "two_level_toy",
    "validate_admissible",
]
