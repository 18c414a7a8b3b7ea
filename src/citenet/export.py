"""Serializers: Pajek network files, DOT, JSON, and tabular reports.

All exporters are pure functions of their inputs and emit byte-identical
text across runs.  Node size parameters follow the ellipse-glyph encoding:
the vertical extent is log10(1 + gross citations) and the horizontal extent
log10(1 + citations net of self-citations), so a perfectly round node is one
without self-citations.  Spatial layout is left to downstream viewers.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping, Sequence

from .centrality import CentralityReport
from .environment import SeedEnvironment, environment_totals
from .matrix import JournalId, _validate_id
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


@dataclass(frozen=True)
class NodeGlyph:
    """Ellipse extents for one journal's citation magnitudes."""

    journal: JournalId
    gross_cites: int
    net_of_self: int

    def __post_init__(self) -> None:
        if self.net_of_self < 0:
            raise ValueError(f"{self.journal}: net_of_self must be nonnegative")
        if self.net_of_self > self.gross_cites:
            raise ValueError(f"{self.journal}: net_of_self cannot exceed gross_cites")

    @property
    def y_extent(self) -> float:
        return math.log10(1 + self.gross_cites)

    @property
    def x_extent(self) -> float:
        return math.log10(1 + self.net_of_self)


def make_glyphs(env: SeedEnvironment) -> list[NodeGlyph]:
    """One glyph per environment member, in member order."""
    return [NodeGlyph(member, *totals) for member, totals in environment_totals(env).items()]


def _glyph_map(
    g: SimilarityGraph, glyphs: Sequence[NodeGlyph]
) -> dict[JournalId, NodeGlyph]:
    by_journal = {glyph.journal: glyph for glyph in glyphs}
    missing = [node for node in g.nodes if node not in by_journal]
    if missing:
        raise ValueError(f"missing glyphs for nodes: {missing}")
    return by_journal


def _check_ids(g: SimilarityGraph) -> None:
    """Reject node ids the edge-list parser rejects: they may not quote safely."""
    for node in g.nodes:
        _validate_id(node)


def export_pajek(g: SimilarityGraph, glyphs: Sequence[NodeGlyph]) -> str:
    """Pajek .net text: vertices with x_fact/y_fact sizes, then edges.

    Vertices are numbered 1..N in graph node order; edge weights carry four
    decimals, size factors full precision.  LF line endings.
    """
    _check_ids(g)
    by_journal = _glyph_map(g, glyphs)
    index = {node: i + 1 for i, node in enumerate(g.nodes)}
    lines = [f"*Vertices {len(g.nodes)}"]
    for node in g.nodes:
        glyph = by_journal[node]
        lines.append(
            f'{index[node]} "{node}" x_fact {glyph.x_extent!r} y_fact {glyph.y_extent!r}'
        )
    lines.append("*Edges")
    for (u, v), weight in g.edges.items():
        lines.append(f"{index[u]} {index[v]} {weight:.4f}")
    return "\n".join(lines) + "\n"


def export_dot(g: SimilarityGraph, glyphs: Sequence[NodeGlyph]) -> str:
    """Undirected DOT graph; cosine weight maps to pen width."""
    _check_ids(g)
    by_journal = _glyph_map(g, glyphs)
    lines = [
        "graph similarity {",
        "  node [shape=ellipse, fixedsize=true];",
    ]
    for node in g.nodes:
        glyph = by_journal[node]
        lines.append(
            f'  "{node}" [width={glyph.x_extent:.4f}, height={glyph.y_extent:.4f}];'
        )
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
        "rows": [asdict(row) for row in report],
    }


def graph_document(
    g: SimilarityGraph,
    glyphs: Sequence[NodeGlyph],
    report: CentralityReport | None,
) -> dict:
    """JSON object of a graph: nodes, glyph extents, edges, and the report."""
    by_journal = _glyph_map(g, glyphs)
    return {
        "format": "citenet-similarity-graph",
        "basis": g.basis.value,
        "threshold": g.threshold,
        "nodes": [
            {
                "id": node,
                "gross_cites": by_journal[node].gross_cites,
                "net_of_self": by_journal[node].net_of_self,
                "x_extent": by_journal[node].x_extent,
                "y_extent": by_journal[node].y_extent,
            }
            for node in g.nodes
        ],
        "edges": [
            {"source": u, "target": v, "weight": weight}
            for (u, v), weight in g.edges.items()
        ],
        "warnings": list(g.warnings),
        "report": None if report is None else report_document(report),
    }


def export_json(
    g: SimilarityGraph,
    glyphs: Sequence[NodeGlyph],
    report: CentralityReport | None = None,
) -> str:
    """JSON document with nodes, glyph extents, edges, and optional report.

    Floats are serialized at full precision; see README for the schema.
    """
    return json_text(graph_document(g, glyphs, report))


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
