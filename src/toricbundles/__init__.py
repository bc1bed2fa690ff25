"""Toric vector bundles: Klyachko filtrations, parliaments of polytopes,
and exact slope-stability decisions on smooth complete toric varieties."""

from .linalg import (
    Subspace,
    intersect,
    orthogonal_lattice_basis,
    solve_integer_system,
    span,
    subspace_sum,
)
from .fan import Fan, FanError, FanReport, Wall, validate_fan, walls
from .bundle import (
    CharacterSheet,
    Filtration,
    IncompatibleBundleError,
    ToricBundle,
    associated_characters,
    check_compatibility,
    direct_sum,
    line_bundle,
    tangent_bundle,
    twist_by_character,
    twist_by_divisor,
)
from .matroid import (
    Flat,
    GroundSet,
    SubspaceLattice,
    build_lattice,
    bundle_ground_set,
    closure,
    enumerate_flats,
    ground_set,
    is_compatible_flat,
    is_subbundle,
    proper_nonzero_flats,
)
from .polytopes import HPolytope, newton_polytope
from .parliament import (
    Parliament,
    average_polytope,
    is_globally_generated,
    parliament,
    polytope_of,
    reconstruct_filtrations,
)
from .stability import (
    Order,
    Polarization,
    PolarizationError,
    RestrictionReport,
    StabilityReport,
    VerificationError,
    c1,
    check_stability,
    compare_average_polytopes,
    restrict_to_curve,
    slope,
    tangent_weight_condition,
    validate_polarization,
    weights_from_divisor,
)
from .io import BundleDocument, SchemaError, load_document, parse_document
from .svg import SvgOptions, render_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
