"""Aperiodic and stochastic point sets with their autocorrelation and
diffraction numerics: cut-and-project model sets (Euclidean and 2-adic
internal spaces), constant-length substitutions and coincidence checks,
one-dimensional random tilings, periodogram estimation and the matching
closed-form spectra.
"""

from .core import (
    SQRT5,
    TAU,
    TAU_CONJ,
    AperiodicaError,
    DegenerateLatticeError,
    EmptyInputError,
    LatticeBasis,
    ModuleElement,
    OutOfRangeError,
    SpectralMeasure,
    WeightedComb,
    dual_lattice,
    read_comb_csv,
    restrict,
    write_comb_csv,
)
from .autocorr import (
    AutocorrelationEstimate,
    check_A1_A3,
    epsilon_almost_periods,
    estimate_autocorrelation,
    max_gap,
    pseudo_metric,
)
from .substitution import (
    PAPERFOLDING,
    THUE_MORSE,
    CoincidenceVerdict,
    MfsRule,
    SubstitutionRule,
    dekking_coincidence,
    fixed_point,
    mfs_from_substitution,
    modular_coincidence,
    primitive,
    two_sided_seeds,
)
from .cps import (
    CutProjectScheme,
    EuclideanWindow,
    GaussianProfile,
    QAdicWindow,
    density_weighted_comb,
    fibonacci_scheme,
    generate_model_set,
    paperfolding_windows,
    qadic_scheme,
    star,
    theorem10_autocorrelation,
    theorem10_spectrum,
)
from .randomtiling import (
    RandomTilingSpec,
    TilingSample,
    ac_density_grid,
    density,
    empirical_height_histogram,
    fibonacci_spec,
    internal_distribution,
    mean_ac_periodogram,
    mean_bragg_amplitudes,
    needle_free,
    pp_part,
    sample,
    scaling_profile,
)
from .spectrum import (
    Periodogram,
    bragg_amplitudes,
    bragg_extract,
    bragg_scaling_ratio,
    complement_check,
    lattice_periodicity_check,
    paperfolding_intensity,
    paperfolding_spectrum,
    periodogram,
    periodogram_values,
)

__version__ = "0.1.0"
