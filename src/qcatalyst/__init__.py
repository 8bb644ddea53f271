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
