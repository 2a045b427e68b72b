"""Pairing of minima with 1-saddles on discrete scalar fields.

Two independent computations of the same pairing -- sublevel persistence via
union-find and morphological dynamics via flooding -- plus a path-based
oracle, equivalence sweeps, and the downstream morphology pipeline
(simplification, watershed, granulometric curve, saliency).
"""

from .errors import DivergenceError, FormatError, UsageError
from .grid import (
    Connectivity,
    ScalarField,
    filtration_order,
    local_minima,
    neighbors,
    precedes,
    sort_vertices,
)
from .formats import parse_field, read_field, sniff_format, write_field
from .pairing import (
    MergeEvent,
    MergeTree,
    PersistencePair,
    build_merge_tree,
    pair_1d_algorithm1,
    pair_by_dynamics,
    pair_by_persistence,
    pairing_signature,
    pairs_to_json,
    persistence_diagram,
)
from .pathdyn import dynamics_oracle, effort, exhaustive_dynamics
from .equivalence import (
    EquivalenceReport,
    GeneratorSpec,
    generate,
    sweep,
    verify_equivalence,
)
from .morphology import (
    GranulometricCurve,
    SaliencyMap,
    WatershedLabels,
    filter_dynamics,
    granulometric_curve,
    iter_edges,
    minimal_regions,
    saliency,
    saliency_to_field,
    segment_pipeline,
    watershed,
    watershed_from_markers,
)

__version__ = "0.1.0"

__all__ = [
    "Connectivity",
    "DivergenceError",
    "EquivalenceReport",
    "FormatError",
    "GeneratorSpec",
    "GranulometricCurve",
    "MergeEvent",
    "MergeTree",
    "PersistencePair",
    "SaliencyMap",
    "ScalarField",
    "UsageError",
    "WatershedLabels",
    "build_merge_tree",
    "dynamics_oracle",
    "effort",
    "exhaustive_dynamics",
    "filter_dynamics",
    "filtration_order",
    "generate",
    "granulometric_curve",
    "iter_edges",
    "local_minima",
    "minimal_regions",
    "neighbors",
    "pair_1d_algorithm1",
    "pair_by_dynamics",
    "pair_by_persistence",
    "pairing_signature",
    "pairs_to_json",
    "parse_field",
    "persistence_diagram",
    "precedes",
    "read_field",
    "saliency",
    "saliency_to_field",
    "segment_pipeline",
    "sniff_format",
    "sort_vertices",
    "sweep",
    "verify_equivalence",
    "watershed",
    "watershed_from_markers",
    "write_field",
]
