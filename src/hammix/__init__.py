"""Exact verification toolkit for weighted-Hamming Lipschitz machinery.

Everything upstream of exp() is exact rational arithmetic: distances,
the recursive psi functional, linear programs over 1-Lipschitz polytopes
(with strong-duality certificates), mixing coefficients of dependent
measures, and martingale difference profiles.  Floats appear only in the
operator norm of the mixing matrix and the final tail-bound evaluation.
"""

from .lipschitz_lp import (
    LpProblem,
    PhiPsiReport,
    build_polytope_lp,
    lipschitz_constant,
    phi_norm,
    phi_sup,
    solve_lp,
    verify_phi_psi,
)
from .martingale import (
    ConcentrationReport,
    MartingaleProfile,
    SumViReport,
    azuma_bound,
    concentration_bound,
    conditional_expectation,
    martingale_profile,
    v_bar,
    v_i,
    verify_sumvi,
)
from .mixing import (
    DeltaMatrix,
    MarkovSpec,
    Measure,
    ZeroPrefixProbability,
    delta_matrix,
    eta_bar,
    expand_markov,
    operator_norm_2,
)
from .montecarlo import SampleStream, SimulationConfig, TailReport, empirical_tail, sample_word
from .psi import psi, psi_decomposition_rhs, psi_norm, ramp
from .rational import rat, rat_str
from .simplex import CertificateError, SimplexError, SimplexResult
from .words import (
    Alphabet,
    TableFunction,
    WeightVector,
    hamming_distance,
    marginal_projection,
    prefix_restrict,
    word_index,
    word_unindex,
    words,
    y_section,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CertificateError",
    "ConcentrationReport",
    "DeltaMatrix",
    "LpProblem",
    "MarkovSpec",
    "MartingaleProfile",
    "Measure",
    "PhiPsiReport",
    "SampleStream",
    "SimplexError",
    "SimplexResult",
    "SimulationConfig",
    "SumViReport",
    "TableFunction",
    "TailReport",
    "WeightVector",
    "ZeroPrefixProbability",
    "azuma_bound",
    "build_polytope_lp",
    "concentration_bound",
    "conditional_expectation",
    "delta_matrix",
    "empirical_tail",
    "eta_bar",
    "expand_markov",
    "hamming_distance",
    "lipschitz_constant",
    "marginal_projection",
    "martingale_profile",
    "operator_norm_2",
    "phi_norm",
    "phi_sup",
    "prefix_restrict",
    "psi",
    "psi_decomposition_rhs",
    "psi_norm",
    "ramp",
    "rat",
    "rat_str",
    "sample_word",
    "solve_lp",
    "v_bar",
    "v_i",
    "verify_phi_psi",
    "verify_sumvi",
    "word_index",
    "word_unindex",
    "words",
    "y_section",
]
