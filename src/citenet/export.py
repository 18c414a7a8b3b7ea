"""Serializers: Pajek network files, DOT, JSON, and tabular reports.

All exporters are pure functions of their inputs and emit byte-identical
text across runs.  Node size parameters follow the ellipse-glyph encoding:
the vertical extent is log10(1 + gross citations) and the horizontal extent
log10(1 + citations net of self-citations), so a perfectly round node is one
without self-citations.  Spatial layout is left to downstream viewers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

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
    return [
        NodeGlyph(member, *environment_totals(env, member)) for member in env.members
    ]


def _sorted_edges(
    g: SimilarityGraph,
) -> list[tuple[tuple[JournalId, JournalId], float]]:
    index = {node: i for i, node in enumerate(g.nodes)}
    return sorted(g.edges.items(), key=lambda item: (index[item[0][0]], index[item[0][1]]))


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
    for (u, v), weight in _sorted_edges(g):
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
    for (u, v), weight in _sorted_edges(g):
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
            for (u, v), weight in _sorted_edges(g)
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
    return json.dumps(graph_document(g, glyphs, report), indent=2) + "\n"


def report_table(
    env: SeedEnvironment,
    centralities: CentralityReport,
    impact_factors: Mapping[JournalId, float] | None = None,
) -> str:
    """Aligned text table of centralities and impact factors.

    Rows are sorted by local betweenness, then local degree, then global
    out-degree (all descending), with the journal id as the final
    tie-break.  Betweenness is rendered as a percentage with two decimals;
    journals without an impact factor get a blank cell.
    """
    if set(env.members) != set(centralities.rows):
        raise ValueError("centrality report does not cover the environment members")
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
    cells = [
        (
            row.journal,
            f"{row.betweenness * 100:.2f}",
            str(row.degree_local),
            str(row.degree_in),
            str(row.degree_out),
            f"{impact_factors[row.journal]:.2f}" if row.journal in impact_factors else "",
        )
        for row in ordered
    ]

    header = ("journal",) + _REPORT_COLUMNS
    widths = [
        max(len(header[col]), max((len(row[col]) for row in cells), default=0))
        for col in range(len(header))
    ]
    lines = [
        f"# local basis: {centralities.local_basis}",
        f"# global basis: {centralities.global_basis}",
        "  ".join(
            name.ljust(widths[col]) if col == 0 else name.rjust(widths[col])
            for col, name in enumerate(header)
        ).rstrip(),
    ]
    for row in cells:
        lines.append(
            "  ".join(
                value.ljust(widths[col]) if col == 0 else value.rjust(widths[col])
                for col, value in enumerate(row)
            ).rstrip()
        )
    return "\n".join(lines) + "\n"
