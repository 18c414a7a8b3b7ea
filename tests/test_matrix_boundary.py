"""Only ``matrix.py``, the three writers of ``ingest.py`` that merge, write or
cache those arrays, and ``Graph.from_citation_matrix`` read a matrix's CSR.

The CSR layout, the int32 counts and the self-citation rule belong to
``CitationMatrix``.  Any other module that reads its private arrays on
another object would have to change with them, so it reads the raw links
through ``Graph.from_citation_matrix`` instead.  And only a seed environment
builds that graph, once, as ``env.links``: every later stage reads it there.
"""

import ast
from pathlib import Path

import citenet

# CitationMatrix state no other module has an attribute of that name for.
PRIVATE = {"_indptr", "_indices", "_data", "_lookup", "_positions"}
ALLOWED = {
    ("centrality.py", "from_citation_matrix"),
    ("ingest.py", "merge_indices"),
    ("ingest.py", "_csv_bytes"),
    ("ingest.py", "write_matrix"),
}


def _private_reads(source: str) -> list[tuple[str | None, int, str]]:
    """(enclosing function, line, attribute) of each read of PRIVATE off
    anything other than ``self``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in PRIVATE
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            found.append((function, node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_guard_sees_a_read_off_another_object():
    source = "def f(m, self):\n    return m._indptr, self._data, m._csr\n"
    assert _private_reads(source) == [("f", 2, "_indptr")]


def test_only_matrix_reads_the_matrix_csr():
    package = Path(citenet.__file__).parent
    reads = [
        f"{path.name}:{line} {function}() reads .{attr}"
        for path in sorted(package.glob("*.py"))
        if path.name != "matrix.py"
        for function, line, attr in _private_reads(path.read_text(encoding="utf-8"))
        if (path.name, function) not in ALLOWED
    ]
    assert reads == []


def _calls(source: str, name: str) -> list[int]:
    """Line of each call of a function or attribute named *name*."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]


def test_only_the_environment_builds_the_raw_link_graph():
    package = Path(citenet.__file__).parent
    calls = [
        path.name
        for path in sorted(package.glob("*.py"))
        for _ in _calls(path.read_text(encoding="utf-8"), "from_citation_matrix")
    ]
    assert calls == ["environment.py"]
