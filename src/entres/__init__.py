"""Entity resolution for records with heterogeneous schemas.

The pipeline: a similarity join indexes all similar cross-record field
pairs once; each iteration derives a record-similarity upper bound from
the index to prune or directly settle pairs, verifies the rest with a
maximum-weight bipartite field matching, votes on schema matchings, and
merges similar records into super records until nothing merges.

The package exports the library API; every other name, the command
line's ``parse_input`` and ``evaluate`` included, is imported from the
module that defines it.  Nothing in the package imports ``entres.cli``.
"""

from .engine import EngineConfig, ResolutionEngine, ResolutionResult, run
from .records import AttrOrigin, Field, SuperRecord, basic_record

__all__ = [
    "AttrOrigin",
    "EngineConfig",
    "Field",
    "ResolutionEngine",
    "ResolutionResult",
    "SuperRecord",
    "basic_record",
    "run",
]

__version__ = "0.1.0"
