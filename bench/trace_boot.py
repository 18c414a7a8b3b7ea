"""Run one ``citenet`` CLI call with outside-in tracing.

Usage::

    python3 bench/trace_boot.py --spans OUT.json [--traced-first] -- ARGV...
    python3 bench/trace_boot.py --memory OUT.json -- ARGV...

With ``--spans`` the call runs twice in this process: once plain and once
with every public function of the library layers wrapped, in the order
given by ``--traced-first``.  Both durations of ``citenet.cli.main`` and the
spans of the traced run go to OUT.json; the traced run's standard output is
printed.  The difference between the two durations is the tracing overhead.

With ``--memory`` the call runs once more, with ``tracemalloc`` on only
inside the matrix loads and the global graph build; this pass is separate
from the timed one, so allocation tracing never inflates a timed span.

Wrapped names are found at run time: a public function that a later change
deletes or renames is simply not wrapped, and the metrics built on it are
reported as absent.  Each wrapper is installed at every name a caller looks
the function up by (``citenet.cli.build_report``, the ``centrality`` module
global that ``build_report`` calls, and so on).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

LAYERS = ("matrix", "environment", "similarity", "centrality", "export", "metrics")
CLASS_METHODS = (
    ("centrality", "Graph", "from_citation_matrix"),
    ("centrality", "Graph", "from_similarity"),
)
EDGE_HEADER = "citing,cited,count"


def _first(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _path_of(stream):
    name = getattr(stream, "name", None)
    return name if isinstance(name, str) else None


# Sizes read off arguments and results right after a call returns: only O(1)
# lookups here, file sizes and row counts are taken after ``main`` returns.
SIZERS = {
    "matrix.parse_citation_csv": lambda a, k, r: {
        "cells": len(r.cells),
        "journals": len(r),
        "file": _path_of(_first(a, k, 0, "stream")),
    },
    "matrix.read_matrix": lambda a, k, r: {"file": str(_first(a, k, 0, "path"))},
    "matrix.read_registry": lambda a, k, r: {"file": _path_of(_first(a, k, 0, "stream"))},
    "matrix.write_matrix": lambda a, k, r: {"written": str(_first(a, k, 1, "path"))},
    "environment.extract_environment": lambda a, k, r: {
        "members": len(r.members),
        "submatrix_cells": len(r.submatrix.cells),
    },
    "similarity.similarity_graph": lambda a, k, r: {
        "nodes": len(r.nodes),
        "edges": len(r.edges),
        "zero_profiles": len(r.warnings),
        "axis_len": len(k["full_matrix"]) if k.get("full_matrix") else len(a[0].members),
    },
    "centrality.Graph.from_citation_matrix": lambda a, k, r: {
        "global": _first(a, k, 2, "nodes") is None
    },
    "centrality.betweenness_centrality": lambda a, k, r: {"nodes": len(a[0])},
    "centrality.build_report": lambda a, k, r: {
        "nodes": len(a[0]),
        "edges": len(a[0].edges),
    },
    "export.export_pajek": lambda a, k, r: {"chars": len(r)},
    "export.export_dot": lambda a, k, r: {"chars": len(r)},
    "export.export_json": lambda a, k, r: {"chars": len(r)},
    "export.report_table": lambda a, k, r: {"chars": len(r)},
}


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, error id)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def wrap(self, name: str, func):
        spans, stack, attrs = self.spans, self._stack, self.attrs
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent, id(exc))
                stack.pop()
                raise
            spans[index] = (name, start, clock(), parent, 0)
            stack.pop()
            if sizer is not None:
                try:
                    attrs[index] = sizer(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass
            return result

        return wrapper


def _public_functions():
    """(qualified name, function) for every public function of the layers."""
    found = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"citenet.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                found.append((f"{layer}.{attr}", obj))
    return found


class Installation:
    """Wrappers installed at every lookup name; ``undo`` restores them."""

    def __init__(self, make_wrapper, names=None) -> None:
        self._restore: list = []
        self.wrapped: list[str] = []
        cli = importlib.import_module("citenet.cli")
        targets = [("cli.main", cli.main)] + _public_functions()
        by_id = {}
        for name, func in targets:
            if names is None or name in names:
                by_id[id(func)] = (func, make_wrapper(name, func))
                self.wrapped.append(name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "citenet" and not module_name.startswith("citenet."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = by_id.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, obj))
        for layer, class_name, method in CLASS_METHODS:
            name = f"{layer}.{class_name}.{method}"
            cls = getattr(sys.modules.get(f"citenet.{layer}"), class_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if isinstance(raw, classmethod) and (names is None or name in names):
                setattr(cls, method, classmethod(make_wrapper(name, raw.__func__)))
                self._restore.append((cls, method, raw))
                self.wrapped.append(name)

    def undo(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)


def _call_main(argv: list[str]) -> tuple[int, float, str]:
    """Run ``citenet.cli.main`` (as currently bound), capturing stdout."""
    cli = sys.modules["citenet.cli"]
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, time.perf_counter() - start, buffer.getvalue()


def _data_rows(path: str) -> int:
    rows = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and not (line_no == 1 and stripped.lower() == EDGE_HEADER):
                rows += 1
    return rows


def _file_sizes(attrs: dict[int, dict]) -> None:
    """Row counts and byte sizes of the files the call read and wrote."""
    for entry in attrs.values():
        for key in ("file", "written"):
            path = entry.get(key)
            if not path or not os.path.exists(path):
                continue
            sidecar = path + ".meta.json"
            size = os.path.getsize(path)
            if os.path.exists(sidecar):
                size += os.path.getsize(sidecar)
            entry["bytes_read" if key == "file" else "bytes_written"] = size
            if key == "file" and path.endswith(".csv"):
                entry["rows"] = _data_rows(path)


def run_spans(argv: list[str], out: Path, traced_first: bool) -> int:
    import citenet.cli  # noqa: F401  (imports every layer before wrapping)

    tracer = Tracer()
    durations = {}
    stdout = ""
    code = 0
    for traced in ((True, False) if traced_first else (False, True)):
        installation = Installation(tracer.wrap) if traced else None
        try:
            code, seconds, text = _call_main(argv)
        finally:
            if installation is not None:
                installation.undo()
        durations["traced" if traced else "plain"] = seconds
        if traced:
            stdout, wrapped = text, installation.wrapped
    _file_sizes(tracer.attrs)
    sys.stdout.write(stdout)
    document = {
        "exit": code,
        "main_traced_s": durations["traced"],
        "main_plain_s": durations["plain"],
        "wrapped": wrapped,
        "spans": tracer.spans,
        "attrs": {str(k): v for k, v in tracer.attrs.items()},
    }
    out.write_text(json.dumps(document), encoding="utf-8")
    return code


MEMORY_NAMES = {
    "matrix.read_matrix",
    "matrix.parse_citation_csv",
    "centrality.Graph.from_citation_matrix",
}


def run_memory(argv: list[str], out: Path) -> int:
    """Allocation tracing only inside the outermost load and the global graph."""
    import citenet.cli  # noqa: F401

    records: list[dict] = []
    active = [False]

    def make_wrapper(name, func):
        kind = "global_graph" if name.endswith("from_citation_matrix") else "load"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            nodes = _first(args, kwargs, 2, "nodes")
            if active[0] or (kind == "global_graph" and nodes is not None):
                return func(*args, **kwargs)
            active[0] = True
            tracemalloc.start()
            try:
                result = func(*args, **kwargs)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                active[0] = False
            records.append({"kind": kind, "retained": current, "peak": peak})
            return result

        return wrapper

    installation = Installation(make_wrapper, MEMORY_NAMES)
    try:
        code, _, text = _call_main(argv)
    finally:
        installation.undo()
    sys.stdout.write(text)
    out.write_text(
        json.dumps({"exit": code, "wrapped": installation.wrapped, "records": records}),
        encoding="utf-8",
    )
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spans", type=Path, help="write spans and durations here")
    mode.add_argument("--memory", type=Path, help="write tracemalloc records here")
    parser.add_argument("--traced-first", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    try:
        if args.spans is not None:
            return run_spans(argv, args.spans, args.traced_first)
        return run_memory(argv, args.memory)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
