"""The public surface of ``citenet``, pinned name by name.

A change to the public API edits this list, and records the change in
CHANGES.md, in the same commit.
"""

import citenet

PUBLIC_NAMES = [
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
    "UnknownNodeError",
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
    "totals",
    "write_matrix",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 42
    assert sorted(citenet.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in citenet.__all__ if not hasattr(citenet, name)]
    assert missing == []
