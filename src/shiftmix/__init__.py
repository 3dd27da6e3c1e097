"""Invariant-measure construction and mixing/CLT verification for weighted shifts."""

from .weights import (
    GrowthChain,
    SymbolWeights,
    BlockSchedule,
    build_growth_chain,
    build_symbol_weights,
    check_weight_conditions,
    build_block_schedule,
)
from .shift import ShiftModel, LpVector, canonical_shift, apply_shift, apply_section
from .sampling import (
    SamplerState,
    SymbolWindow,
    sample_window,
    window_vector,
    conjugacy_residual,
    support_probe,
)
from .basis import TriangularBasis, build_basis
from .fourier import (
    TensorIndex,
    FourierTable,
    linear_fourier_table,
    mc_fourier_coefficient,
    exact_covariance,
)
from .observables import (
    Observable,
    linear_functional,
    monomial_sum,
    norm_power,
    parse_observable,
    evaluate,
    exact_mean,
)
from .mixing import (
    empirical_covariance,
    exact_decay_curve,
    decay_exponent_fit,
    clt_experiment,
    conditional_norm_diagnostics,
    window_tail_constants,
    fact2_bruteforce,
)
from .halfplane import (
    DecayedFunction,
    QuadratureConfig,
    h2_norm,
    translate,
    translation_decay_fit,
    envelope_sum_check,
)

__version__ = "0.1.0"
