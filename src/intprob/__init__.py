"""Belief functions, probability intervals and the intersection probability."""

from .belief import (
    MassFunction,
    SingletonTotals,
    belief_values,
    classify,
    contour,
    mobius_plausibility,
    plausibility_values,
    random_mass,
    singleton_totals,
)
from .combine import ConjunctiveResult, TotalConflictError, affine, conjunctive, dempster, disjunctive
from .frame import Frame, FrameSizeError, enumerate_subsets, permutations
from .geometry import (
    FocusResult,
    Simplex,
    affine_coords,
    barycentre,
    credal_vertices,
    focus,
    lower_simplex,
    special_focus,
    upper_simplex,
)
from .intervals import IntervalSystem, check_consistency, check_tightness, contains, event_bounds, from_belief
from .transforms import (
    BetaCoefficient,
    CardinalityProfile,
    Distribution,
    beta,
    cardinality_profile,
    intersection_probability,
    pignistic,
    pra_pl_interval,
    relative_belief,
    relative_plausibility,
    relative_uncertainty,
    sudano,
    varsigma,
)

__version__ = "0.1.0"
