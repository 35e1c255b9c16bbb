"""Conditional divergence risk measures on finite probability spaces.

The package computes conditional optimized certainty equivalents and their
dual representation by penalized expectations, conditional phi-divergences
with their variational (Donsker-Varadhan style) form, and the translation
completion turning monotone concave conditional operators into niveloids.
Primal and dual share one multiplier search; ``condrisk gap`` checks their
values at it, while ``entropic_risk``, ``dual_bruteforce`` and
``niveloidify_bruteforce`` are the independent oracles.
"""

from .probspace import (
    FiniteProbabilitySpace,
    Partition,
    RandomVariable,
    ConditionalValue,
    atom_masses,
    cond_expectation,
    cond_sup_norm,
    cond_p_norm,
    embed,
    restrict_mask,
)
from .divergence import (
    DivergenceGenerator,
    ConditionalDensity,
    EquivalentConditionalMeasure,
    builtin_generator,
    generator_from_phi,
    validate_generator,
    numeric_conjugate,
    check_density,
    check_measure,
    density_to_measure,
    measure_to_density,
    cond_divergence,
    cond_expectation_under,
    donsker_varadhan_value,
    dv_optimal_argument,
)
from .oce import OceSolution, oce_primal, i_phi, entropic_risk
from .dual import DualSolution, oce_dual, duality_gap, dual_bruteforce
from .niveloid import (
    ConditionalOperator,
    NotDominatedError,
    AxiomCheck,
    NiveloidAxiomReport,
    niveloidify,
    niveloidify_bruteforce,
    penalty,
    check_niveloid_axioms,
    expectation_operator,
    entropic_operator,
    iphi_operator,
    atom_min_operator,
    squared_expectation_operator,
)
from .scalar_opt import SolverError, UnboundedObjective

__version__ = "0.1.0"

__all__ = [
    "FiniteProbabilitySpace",
    "Partition",
    "RandomVariable",
    "ConditionalValue",
    "atom_masses",
    "cond_expectation",
    "cond_sup_norm",
    "cond_p_norm",
    "embed",
    "restrict_mask",
    "DivergenceGenerator",
    "ConditionalDensity",
    "EquivalentConditionalMeasure",
    "builtin_generator",
    "generator_from_phi",
    "validate_generator",
    "numeric_conjugate",
    "check_density",
    "check_measure",
    "density_to_measure",
    "measure_to_density",
    "cond_divergence",
    "cond_expectation_under",
    "donsker_varadhan_value",
    "dv_optimal_argument",
    "OceSolution",
    "oce_primal",
    "i_phi",
    "entropic_risk",
    "DualSolution",
    "oce_dual",
    "duality_gap",
    "dual_bruteforce",
    "ConditionalOperator",
    "NotDominatedError",
    "AxiomCheck",
    "NiveloidAxiomReport",
    "niveloidify",
    "niveloidify_bruteforce",
    "penalty",
    "check_niveloid_axioms",
    "expectation_operator",
    "entropic_operator",
    "iphi_operator",
    "atom_min_operator",
    "squared_expectation_operator",
    "SolverError",
    "UnboundedObjective",
    "__version__",
]
