"""Journal citation network toolkit.

From raw journal-to-journal citation counts to seed-journal environments,
cosine similarity graphs, centrality reports, and graph exports.
"""

from .centrality import (
    CentralityReport,
    CentralityRow,
    Graph,
    build_report,
    eigenvector_centrality,
)
from .environment import (
    Direction,
    SeedEnvironment,
    environment_totals,
    extract_environment,
)
from .errors import (
    CitenetError,
    ConvergenceError,
    EdgeListParseError,
    IsolatedSeedError,
    SidecarError,
    UnknownJournalError,
    YearMismatchError,
)
from .export import (
    NodeGlyph,
    export_dot,
    export_json,
    export_pajek,
    make_glyphs,
    report_table,
)
from .matrix import (
    MAX_COUNT,
    CitationMatrix,
    Journal,
    JournalId,
    SourceIndex,
    citation_degrees,
    merge_indices,
    parse_citation_csv,
    read_matrix,
    read_registry,
    serialize_matrix,
    write_matrix,
)
from .metrics import (
    h_index,
    impact_factor,
    quasi_impact_factor,
    self_citation_rate,
)
from .similarity import SimilarityGraph, similarity_graph

__version__ = "0.1.0"

__all__ = [
    "CentralityReport",
    "CentralityRow",
    "CitationMatrix",
    "CitenetError",
    "ConvergenceError",
    "Direction",
    "EdgeListParseError",
    "Graph",
    "IsolatedSeedError",
    "Journal",
    "JournalId",
    "MAX_COUNT",
    "NodeGlyph",
    "SeedEnvironment",
    "SidecarError",
    "SimilarityGraph",
    "SourceIndex",
    "UnknownJournalError",
    "YearMismatchError",
    "build_report",
    "citation_degrees",
    "eigenvector_centrality",
    "environment_totals",
    "export_dot",
    "export_json",
    "export_pajek",
    "extract_environment",
    "h_index",
    "impact_factor",
    "make_glyphs",
    "merge_indices",
    "parse_citation_csv",
    "quasi_impact_factor",
    "read_matrix",
    "read_registry",
    "report_table",
    "self_citation_rate",
    "serialize_matrix",
    "similarity_graph",
    "write_matrix",
]
