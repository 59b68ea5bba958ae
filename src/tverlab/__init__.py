"""tverlab: exact-arithmetic workbench for Tverberg partitions with
constraints and chessboard-type complexes."""

from .geometry import (
    PointConfiguration,
    orientation,
    effective_general_position,
    common_point,
    affine_intersection_point,
)
from .partitions import enumerate_candidate_partitions
from .tverberg import (
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
    "common_point",
    "affine_intersection_point",
    "enumerate_candidate_partitions",
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
