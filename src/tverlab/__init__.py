"""tverlab: exact-arithmetic workbench for Tverberg partitions with
constraints and chessboard-type complexes."""

from .geometry import (
    PointConfiguration,
    orientation,
    effective_general_position,
    hull_membership,
    common_point,
    affine_intersection_point,
    INSIDE,
    BOUNDARY,
    OUTSIDE,
)
from .partitions import enumerate_candidate_partitions
from .tverberg import (
    BirchInstance,
    TverbergRecord,
    birch_records,
    counting_report,
    is_tverberg,
    tverberg_records,
)
from .constraints import (
    CompleteK,
    ConstraintGraph,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    avoids,
    constrained_records,
    family_admissible,
    witness_search,
)

__all__ = [
    "PointConfiguration",
    "orientation",
    "effective_general_position",
    "hull_membership",
    "common_point",
    "affine_intersection_point",
    "INSIDE",
    "BOUNDARY",
    "OUTSIDE",
    "enumerate_candidate_partitions",
    "BirchInstance",
    "TverbergRecord",
    "birch_records",
    "counting_report",
    "is_tverberg",
    "tverberg_records",
    "CompleteK",
    "ConstraintGraph",
    "Cycle",
    "DisjointUnion",
    "Path",
    "Star",
    "avoids",
    "constrained_records",
    "family_admissible",
    "witness_search",
]
