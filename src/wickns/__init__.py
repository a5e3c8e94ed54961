"""Numerical toolkit for the Wick-renormalized cubic Schrodinger flow on the
one-dimensional torus with rough Gaussian forcing.

Layout: `fields` holds truncated Fourier data and the free propagator,
`noise` the Gaussian forcing layer (smoothing operators, stochastic
convolution, exact-in-law sampling), `norms` the Fourier-Lebesgue /
Hilbert-Schmidt / windowed restriction-norm surrogates, `dynamics` the
renormalized nonlinearity and time steppers, `lab` the estimate experiments
(tail fits, variance law, trilinear and multiplier scans, lattice sums,
criticality arithmetic), and `cli` the reproducible experiment runner.
"""

from .fields import (
    SpectralField,
    apply_linear_propagator,
    convolve,
    evaluate,
    field_from_csv,
    field_to_csv,
    frequencies,
    make_field,
    mode_field,
    project,
    propagator_phases,
    zero_field,
)
from .noise import (
    NoiseOperator,
    Trajectory,
    bessel_operator,
    convolution_from_path,
    convolution_paths_block,
    convolution_variance,
    identity_operator,
    make_grid,
    matrix_operator,
    moment_bound_check,
    multiplier_operator,
    operator_from_csv,
    operator_to_csv,
    philox_stream,
    sample_convolution_path,
    sample_white_noise_field,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .norms import (
    TimeWindow,
    XsbParams,
    bracket,
    discrete_duhamel,
    duhamel_estimate_check,
    fl_norm,
    gamma_norm,
    homogeneous_estimate_check,
    hs_norm,
    operator_norm,
    raised_cosine_ramp,
    temporal_window_factor,
    xsb_norm,
    xsb_norm_batch,
)
from .dynamics import (
    PicardReport,
    SolverConfig,
    WickSplit,
    cubic_coeffs_block,
    cubic_nonlinearity,
    evolve_wick_rk4ip,
    wick_coeffs_block,
    gauge_transform,
    picard_iterate,
    solve,
    wick_nonlinearity_direct,
    wick_trilinear,
)
from .lab import (
    CriticalityReport,
    ModulationPoint,
    MultiplierReport,
    TailFitReport,
    TrilinearStats,
    VarianceReport,
    convolution_sum_check,
    criticality_report,
    divisor_bound_scan,
    divisor_count,
    lemma_exponent,
    multiplier_supremum_report,
    resonance_defects,
    tail_estimate_mc,
    trilinear_forcing_block,
    trilinear_ratio,
    variance_invariance_test,
)
from .config import COMMANDS, ConfigError, ExperimentConfig, parse_config, parse_config_text
from .manifest import RunManifest, compare_outputs, sha256_file

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
