"""Exact-arithmetic decision procedures for four-state LOCC transformations
and two-qubit entanglement catalysis."""

from .catalysis import (
    DegenerateSpectrumError,
    FeasibilityReport,
    Verdict,
    analyze,
    closed_form_lambda_prime,
    compute_M,
    compute_m,
    is_valid_catalyst,
)
from .constructor import (
    Branch,
    ConstructionResult,
    construct_states,
    mu_admissible_bound,
)
from .majorization import (
    first_violated_index,
    is_majorized_by,
    locc_possible,
    lorenz_points,
    partial_sums,
)
from .oracle import augment, feasible_p_set, oracle_valid_catalyst, sweep, sweep_grid
from .rationals import (
    INFINITY,
    ExtendedRational,
    Rational,
    parse_rational,
    render_decimal,
    render_rational,
)
from .spectra import (
    CatalystSpectrum,
    EpsilonTriple,
    Spectrum4,
    StarViolation,
    epsilon_decompose,
    make_catalyst,
    make_spectrum,
    two_qubit_catalyst,
)

__all__ = [
    "Branch",
    "CatalystSpectrum",
    "ConstructionResult",
    "DegenerateSpectrumError",
    "EpsilonTriple",
    "ExtendedRational",
    "FeasibilityReport",
    "INFINITY",
    "Rational",
    "Spectrum4",
    "StarViolation",
    "Verdict",
    "analyze",
    "augment",
    "closed_form_lambda_prime",
    "compute_M",
    "compute_m",
    "construct_states",
    "epsilon_decompose",
    "feasible_p_set",
    "first_violated_index",
    "is_majorized_by",
    "is_valid_catalyst",
    "locc_possible",
    "lorenz_points",
    "make_catalyst",
    "make_spectrum",
    "mu_admissible_bound",
    "oracle_valid_catalyst",
    "parse_rational",
    "partial_sums",
    "render_decimal",
    "render_rational",
    "sweep",
    "sweep_grid",
    "two_qubit_catalyst",
]
