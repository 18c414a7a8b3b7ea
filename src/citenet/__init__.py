"""Journal citation network toolkit.

From raw journal-to-journal citation counts to seed-journal environments,
cosine similarity graphs, centrality reports, and graph exports.

A public name's module, and numpy with it, is imported when the name is
first read, so ``import citenet`` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "centrality": (
        "CentralityReport", "CentralityRow", "Graph", "build_report", "eigenvector_centrality",
    ),
    "environment": ("Direction", "SeedEnvironment", "extract_environment"),
    "errors": (
        "CitenetError", "ConvergenceError", "EdgeListParseError", "IsolatedSeedError",
        "SidecarError", "UnknownJournalError", "YearMismatchError",
    ),
    "export": ("export_dot", "export_json", "export_pajek", "report_table"),
    "ingest": ("merge_indices", "parse_citation_csv", "read_registry", "write_matrix"),
    "matrix": (
        "MAX_COUNT", "CitationMatrix", "Journal", "JournalId", "SourceIndex", "citation_degrees",
        "read_matrix",
    ),
    "metrics": ("h_index", "impact_factor", "quasi_impact_factor", "self_citation_rate"),
    "similarity": ("SimilarityGraph", "similarity_graph"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Nothing is cached here, so a name always reads its module's current value.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_MODULES})
