"""Over-rotation numbers, forcing, and exact orbit realization for cyclic
patterns of interval maps.

A pattern is a cyclic permutation recording how an interval map permutes a
periodic orbit.  This package classifies patterns (over-rotation pair,
division, block structures), decides which patterns a pattern forces by
realizing orbits of its pattern-linear map exactly in rational arithmetic,
and runs exhaustive verification sweeps of the structural claims behind the
forcing order.
"""

from .forcing import (
    NotTwist,
    Orbit,
    TwistUpTo,
    forced_patterns,
    forces,
    insert_rotation,
    is_twist_bounded,
    orp_spectrum,
    pattern_of_orbit,
    realize_loop,
)
from .markov import (
    DegenerateRealizationError,
    DivergentPatternError,
    LoopError,
    fixed_point,
    fundamental_loop_pprime,
    markov_graph,
    p_linear,
)
from .orders import (
    eta,
    n_r,
    orp_precedes,
    sharkovsky_precedes,
    star_precedes,
)
from .patterns import (
    OrpPair,
    Pattern,
    PatternError,
    block_structures,
    canonical,
    classify,
    doubling_of,
    flip,
    format_cycle,
    format_pattern,
    has_division,
    is_convergent,
    is_doubling,
    over_rotation_number,
    over_rotation_pair,
    parse_cycle,
    parse_pattern,
    stefan,
)
from .verify import (
    NdNbsReport,
    VerificationReport,
    enumerate_patterns,
    nd_nbs,
    verify_forcing_order,
    verify_lemmas,
    verify_refrem,
    verify_stefan_only,
    verify_trichotomy,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateRealizationError",
    "DivergentPatternError",
    "LoopError",
    "NdNbsReport",
    "NotTwist",
    "Orbit",
    "OrpPair",
    "Pattern",
    "PatternError",
    "TwistUpTo",
    "VerificationReport",
    "block_structures",
    "canonical",
    "classify",
    "doubling_of",
    "enumerate_patterns",
    "eta",
    "fixed_point",
    "flip",
    "forced_patterns",
    "forces",
    "format_cycle",
    "format_pattern",
    "fundamental_loop_pprime",
    "has_division",
    "insert_rotation",
    "is_convergent",
    "is_doubling",
    "is_twist_bounded",
    "markov_graph",
    "n_r",
    "nd_nbs",
    "orp_precedes",
    "orp_spectrum",
    "over_rotation_number",
    "over_rotation_pair",
    "p_linear",
    "parse_cycle",
    "parse_pattern",
    "pattern_of_orbit",
    "realize_loop",
    "sharkovsky_precedes",
    "star_precedes",
    "stefan",
    "verify_forcing_order",
    "verify_lemmas",
    "verify_refrem",
    "verify_stefan_only",
    "verify_trichotomy",
]
