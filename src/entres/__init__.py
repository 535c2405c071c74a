"""Entity resolution for records with heterogeneous schemas.

The pipeline: a similarity join indexes all similar cross-record field
pairs once; each iteration derives a record-similarity upper bound from
the index to prune or directly settle pairs, verifies the rest with a
maximum-weight bipartite field matching, votes on schema matchings, and
merges similar records into super records until nothing merges.
"""

from .cli import evaluate, parse_input
from .engine import EngineConfig, ResolutionEngine, ResolutionResult, run
from .matching import build_graph, km_max_weight, verify_pair
from .pair_index import BoundResult, FieldLabel, IndexedPair, ValuePairIndex, build_index
from .records import (
    AttrOrigin,
    EntityForest,
    Field,
    SuperRecord,
    basic_record,
    merge_super_records,
    normalize_value,
)
from .schema_vote import SchemaVoteLedger, error_bound
from .similarity import FieldMatchingSet, qgrams, record_sim, simf, simv

__all__ = [
    "AttrOrigin",
    "BoundResult",
    "EngineConfig",
    "EntityForest",
    "Field",
    "FieldLabel",
    "FieldMatchingSet",
    "IndexedPair",
    "ResolutionEngine",
    "ResolutionResult",
    "SchemaVoteLedger",
    "SuperRecord",
    "ValuePairIndex",
    "basic_record",
    "build_graph",
    "build_index",
    "error_bound",
    "evaluate",
    "km_max_weight",
    "parse_input",
    "merge_super_records",
    "normalize_value",
    "qgrams",
    "record_sim",
    "run",
    "simf",
    "simv",
    "verify_pair",
]

__version__ = "0.1.0"
