"""Exact symbolic toolkit for the blown-up one-node quadric threefold.

Computes intersection theory, line-bundle cohomology, graded Hom spaces,
exceptional-collection mutations, integer K-theory lattices, and stability
machinery for the projective bundle P(O + O(a,b)) over P^1 x P^1, together
with a check harness that replays every golden identity.
"""

from .geometry import (
    ChowElement,
    DivisorClass,
    GeometryConfig,
    Geometry,
    GradedDims,
    SurfaceDivisor,
)
from .lattice import IntegerLattice, KClass, KTheory, LatticeQuotient
from .expressions import (
    Cone,
    LineAtom,
    MutateLeftNode,
    MutateRightNode,
    ParseError,
    PushAtom,
    Shift,
    Sum,
    Zero,
    parse_object,
    pretty,
)
from .calculus import Calculus, PreconditionError, RHomResult, SoundnessError
from .stability import (
    CentralCharge,
    Heart,
    check_stability_function,
    check_support,
    check_weak_stability_condition,
    descend,
    hn_filtration,
    make_heart,
    slope,
    tilt_at,
)
from .harness import CheckResult, HarnessConfig, default_config, emit_report, run_checks

__version__ = "0.1.0"

__all__ = [
    "Calculus",
    "CentralCharge",
    "CheckResult",
    "ChowElement",
    "Cone",
    "DivisorClass",
    "Geometry",
    "GeometryConfig",
    "GradedDims",
    "HarnessConfig",
    "Heart",
    "IntegerLattice",
    "KClass",
    "KTheory",
    "LatticeQuotient",
    "LineAtom",
    "MutateLeftNode",
    "MutateRightNode",
    "ParseError",
    "PreconditionError",
    "PushAtom",
    "RHomResult",
    "Shift",
    "SoundnessError",
    "Sum",
    "SurfaceDivisor",
    "Zero",
    "check_stability_function",
    "check_support",
    "check_weak_stability_condition",
    "default_config",
    "descend",
    "emit_report",
    "hn_filtration",
    "make_heart",
    "parse_object",
    "pretty",
    "run_checks",
    "slope",
    "tilt_at",
]
