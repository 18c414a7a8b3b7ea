"""The public surface of ``citenet``, pinned name by name.

A change to the public API edits this list, and records the change in
CHANGES.md, in the same commit.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from collections.abc import Mapping, MutableMapping
from pathlib import Path

import pytest

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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 40
    assert sorted(citenet.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in citenet.__all__ if not hasattr(citenet, name)]
    assert missing == []


SUBMODULES = ["centrality", "environment", "errors", "export", "matrix", "metrics", "similarity"]


def test_each_public_name_is_its_home_modules_attribute():
    assert sorted(citenet._MODULES) == SUBMODULES
    for module, names in citenet._MODULES.items():
        home = importlib.import_module(f"citenet.{module}")
        for name in names:
            value = getattr(citenet, name)
            assert value is getattr(home, name)
            # Each class and function is listed under the module that defines it
            # (JournalId is an alias of str).
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ in (home.__name__, "builtins"), name


def test_dir_lists_the_public_names_and_the_submodules():
    listed = dir(citenet)
    assert set(citenet.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def test_an_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        citenet.no_such_name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from citenet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_a_public_name_reads_its_modules_current_value(monkeypatch):
    def replaced(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr("citenet.matrix.read_matrix", replaced)
    assert citenet.read_matrix is replaced


def test_importing_the_package_imports_no_submodule():
    script = (
        "import sys, citenet\n"
        "citenet.__all__, citenet.__version__, dir(citenet)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('citenet.'))\n"
        "print(loaded, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(citenet.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[] False\n"


# Public names the package itself never calls, each with the reason it stays.
UNCALLED_ALLOWED = {
    # The in-memory form of what write_matrix persists: a wrapper that hides
    # a file format stays public.
    "serialize_matrix",
}


def _referenced_names(source: str) -> set[str]:
    """Names a module reads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def _uncalled(public, sources):
    referenced = set().union(*map(_referenced_names, sources))
    return sorted(name for name in public if name not in referenced)


def test_the_guard_flags_a_public_name_nothing_references():
    sources = ["from .a import used\n\ndef made_up():\n    return used.attr\n"]
    assert _uncalled(["used", "attr", "made_up"], sources) == ["made_up"]


def test_every_public_name_has_a_caller_in_the_package():
    package = Path(citenet.__file__).parent
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert _uncalled(citenet.__all__, sources) == sorted(UNCALLED_ALLOWED)


def _public_members(cls):
    return sorted(name for name in dir(cls) if not name.startswith("_"))


def test_graph_members_are_pinned():
    graph = ["directed", "edges", "from_citation_matrix", "nodes"]
    assert _public_members(citenet.Graph) == graph
    assert _public_members(citenet.SimilarityGraph) == sorted(
        [*graph, "basis", "threshold", "warnings"]
    )


def test_similarity_graph_takes_only_the_environment_and_threshold():
    parameters = inspect.signature(citenet.similarity_graph).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("env", "threshold")
    ]


def test_citation_degrees_takes_the_matrix_and_the_journal_ids():
    parameters = inspect.signature(citenet.citation_degrees).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("m", "journal_ids")
    ]


def test_build_report_takes_the_local_graph_the_matrix_and_the_local_basis():
    parameters = inspect.signature(citenet.build_report).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("local", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("matrix", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("local_basis", inspect.Parameter.KEYWORD_ONLY, "local graph"),
    ]


def test_eigenvector_centrality_takes_only_the_graph():
    parameters = inspect.signature(citenet.eigenvector_centrality).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("g", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
    ]


def test_report_table_takes_the_report_and_impact_factors():
    parameters = inspect.signature(citenet.report_table).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("centralities", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
        ("impact_factors", inspect.Parameter.POSITIONAL_OR_KEYWORD, None),
    ]


def test_a_graph_has_no_membership_test_or_node_index():
    assert not hasattr(citenet.Graph, "__contains__")
    assert "_index" not in citenet.Graph.__slots__


def test_environment_totals_takes_only_the_environment():
    parameters = inspect.signature(citenet.environment_totals).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        ("env", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
    ]


def test_a_seed_environment_keeps_its_matrix_and_a_matrix_cuts_no_submatrix():
    fields = [field.name for field in dataclasses.fields(citenet.SeedEnvironment)]
    assert fields == ["seed", "direction", "threshold", "members", "matrix", "contributions"]
    assert not hasattr(citenet.CitationMatrix, "submatrix")


def test_similarity_module_names_are_pinned():
    # Tuning constants such as the Gram product's block size stay private.
    module = citenet.similarity
    own = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and not inspect.ismodule(value)
        and getattr(value, "__module__", module.__name__) == module.__name__
    ]
    assert sorted(own) == ["SimilarityGraph", "similarity_graph"]


def _journals_matrix(order):
    records = {
        "B": citenet.Journal("B", "Beta", citenet.SourceIndex.SSCI),
        "A": citenet.Journal("A", "Alpha"),
        "C": citenet.Journal("C", "C", citenet.SourceIndex.BOTH),
    }
    return citenet.CitationMatrix(2005, [records[j] for j in order], {("B", "A"): 2})


def test_journals_is_a_read_only_mapping_view():
    journals = _journals_matrix("BAC").journals
    assert isinstance(journals, Mapping)
    assert not isinstance(journals, MutableMapping)
    with pytest.raises(TypeError):
        journals["D"] = citenet.Journal("D", "D")
    with pytest.raises(TypeError):
        del journals["A"]
    assert not hasattr(journals, "update") and not hasattr(journals, "pop")


def test_journals_keeps_id_order_equality_and_journal_values():
    m = _journals_matrix("CBA")
    expected = {
        "A": citenet.Journal("A", "Alpha", citenet.SourceIndex.SCI),
        "B": citenet.Journal("B", "Beta", citenet.SourceIndex.SSCI),
        "C": citenet.Journal("C", "C", citenet.SourceIndex.BOTH),
    }
    assert list(m.journals) == ["A", "B", "C"]
    assert list(m.journals.items()) == list(expected.items())
    assert m.journals == expected and expected == m.journals
    assert m.journals == _journals_matrix("ABC").journals
    assert m.journals != {**expected, "A": citenet.Journal("A", "Other")}
    assert m.journals["B"] == expected["B"]
    assert m.journals.get("Z") is None and "Z" not in m.journals and "A" in m.journals
    assert all(type(journal) is citenet.Journal for journal in m.journals.values())
    assert len(m.journals) == 3
