"""Serializers: Pajek network files, DOT, JSON, and tabular reports.

All exporters are pure functions of their inputs and emit byte-identical
text across runs.  A similarity graph's nodes are drawn as ellipses sized
from its environment's citation totals, ``g.env.totals``: the
vertical extent is log10(1 + gross citations) and the horizontal extent
log10(1 + citations net of self-citations), so a perfectly round node is one
without self-citations.  Spatial layout is left to downstream viewers.
"""

from __future__ import annotations

import io
import json
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .matrix import JournalId, _validate_id

if TYPE_CHECKING:
    from .centrality import CentralityReport
    from .similarity import SimilarityGraph

# Edge thickness is proportional to the cosine weight.
STROKE_SCALE = 5.0

_REPORT_COLUMNS = (
    "betweenness_local_%",
    "degree_local",
    "degree_in_global",
    "degree_out_global",
    "impact_factor",
)


def _glyphs(g: SimilarityGraph) -> Iterator[tuple[int, int, float, float]]:
    """``(gross, net_of_self, x_extent, y_extent)`` of each node, in node order.

    ``SeedEnvironment.totals`` gives 0 <= net <= gross, so both logarithms are defined.
    """
    for gross, net in g.env.totals.values():
        yield gross, net, math.log10(1 + net), math.log10(1 + gross)


def _check_ids(g: SimilarityGraph) -> None:
    """Reject node ids the edge-list parser rejects: they may not quote safely."""
    for node in g.nodes:
        _validate_id(node)


def export_pajek(g: SimilarityGraph) -> str:
    """Pajek .net text: vertices with their glyph extents as x_fact/y_fact, then edges.

    Vertices are numbered 1..N in graph node order; edge weights carry four
    decimals, size factors full precision.  LF line endings.
    """
    _check_ids(g)
    index = {node: i + 1 for i, node in enumerate(g.nodes)}
    lines = [f"*Vertices {len(g.nodes)}"]
    for node, (_, _, x_extent, y_extent) in zip(g.nodes, _glyphs(g)):
        lines.append(f'{index[node]} "{node}" x_fact {x_extent!r} y_fact {y_extent!r}')
    lines.append("*Edges")
    for (u, v), weight in g.edges.items():
        lines.append(f"{index[u]} {index[v]} {weight:.4f}")
    return "\n".join(lines) + "\n"


def export_dot(g: SimilarityGraph) -> str:
    """Undirected DOT graph; glyph extents give node width and height, and
    cosine weight maps to pen width."""
    _check_ids(g)
    lines = [
        "graph similarity {",
        "  node [shape=ellipse, fixedsize=true];",
    ]
    for node, (_, _, x_extent, y_extent) in zip(g.nodes, _glyphs(g)):
        lines.append(f'  "{node}" [width={x_extent:.4f}, height={y_extent:.4f}];')
    for (u, v), weight in g.edges.items():
        width = STROKE_SCALE * weight
        lines.append(f'  "{u}" -- "{v}" [penwidth={width:.4f}, weight={weight:.4f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_document(report: CentralityReport) -> dict:
    """JSON object of a report; each row's fields in :class:`CentralityRow` order."""
    return {
        "local_basis": report.local_basis,
        "global_basis": report.global_basis,
        "rows": [
            {
                "journal": row.journal,
                "degree_in": row.degree_in,
                "degree_out": row.degree_out,
                "degree_local": row.degree_local,
                "closeness": row.closeness,
                "betweenness": row.betweenness,
                "eigenvector": row.eigenvector,
            }
            for row in report
        ],
    }


def graph_document(g: SimilarityGraph, report: CentralityReport | None) -> dict:
    """JSON object of a graph: nodes with their citation totals and glyph
    extents, edges, and the report."""
    return {
        "format": "citenet-similarity-graph",
        "basis": g.env.direction.value,
        "threshold": g.threshold,
        "nodes": [
            {
                "id": node,
                "gross_cites": gross,
                "net_of_self": net,
                "x_extent": x_extent,
                "y_extent": y_extent,
            }
            for node, (gross, net, x_extent, y_extent) in zip(g.nodes, _glyphs(g))
        ],
        "edges": [
            {"source": u, "target": v, "weight": weight}
            for (u, v), weight in g.edges.items()
        ],
        "warnings": list(g.warnings),
        "report": None if report is None else report_document(report),
    }


def export_json(g: SimilarityGraph, report: CentralityReport | None = None) -> str:
    """JSON document with nodes, glyph extents, edges, and optional report.

    Floats are serialized at full precision; see README for the schema.
    """
    return json_text(graph_document(g, report))


def json_text(document) -> str:
    """``json.dumps(document, indent=2)`` and a newline, from the same encoder.

    ``json.dumps`` keeps a string for every token until it joins them: 2.9 MB
    for a 351-member graph document, whose text is 0.4 MB.  Written through
    an ASCII text buffer (the encoder escapes everything else), only the
    bytes of the text are kept.
    """
    text = io.TextIOWrapper(io.BytesIO(), encoding="ascii", newline="")
    json.dump(document, text, indent=2)
    text.write("\n")
    text.flush()
    return text.buffer.getvalue().decode("ascii")


def aligned_table(
    comments: Sequence[str], header: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """Comment lines, then *header* and *rows* in columns as wide as their
    widest cell: the first column left-aligned, the others right-aligned."""
    table = [tuple(header), *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = list(comments)
    for row in table:
        lines.append(
            "  ".join(
                cell.ljust(width) if col == 0 else cell.rjust(width)
                for col, (cell, width) in enumerate(zip(row, widths))
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def _basis_comments(report: CentralityReport) -> list[str]:
    return [f"# local basis: {report.local_basis}", f"# global basis: {report.global_basis}"]


def report_table(
    centralities: CentralityReport,
    impact_factors: Mapping[JournalId, float] | None = None,
) -> str:
    """Aligned text table of centralities and impact factors.

    Rows are sorted by local betweenness, then local degree, then global
    out-degree (all descending), with the journal id as the final
    tie-break.  Betweenness is rendered as a percentage with two decimals;
    journals without an impact factor get a blank cell.
    """
    impact_factors = impact_factors or {}

    ordered = sorted(
        centralities.rows.values(),
        key=lambda row: (
            -row.betweenness,
            -row.degree_local,
            -row.degree_out,
            row.journal,
        ),
    )
    cells = (
        (
            row.journal,
            f"{row.betweenness * 100:.2f}",
            str(row.degree_local),
            str(row.degree_in),
            str(row.degree_out),
            f"{impact_factors[row.journal]:.2f}" if row.journal in impact_factors else "",
        )
        for row in ordered
    )
    return aligned_table(_basis_comments(centralities), ("journal",) + _REPORT_COLUMNS, cells)
