"""Reference results recomputed from the generated inputs.

Nothing here imports ``citenet``: environments come from numpy over the
summed matrix, similarities from an integer Gram matrix, and betweenness and
closeness from networkx.  The ``check_*`` functions compare one CLI output
with these references and return a list of mismatch messages (empty when
the output is right).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix

REPORT_TOL = 1e-9  # betweenness, closeness and eigenvector, full precision
WEIGHT_TOL = 1e-12  # cosine weights and contributions
ROUNDED_TOL = 5e-5 + 1e-12  # values printed with four decimals
STROKE_SCALE = 5.0  # DOT pen width per unit of cosine weight


@dataclass
class Environment:
    seed: str
    direction: str
    members: list[str]
    contributions: dict[str, float]
    sub: np.ndarray  # member x member counts, in member order
    gross: dict[str, int]
    net: dict[str, int]


@dataclass
class Analysis:
    env: Environment
    nodes: list[str]
    edges: dict[tuple[str, str], float]  # similarity edges, u before v
    zero_profiles: int
    degree_in: dict[str, int]
    degree_out: dict[str, int]
    degree_local: dict[str, int]
    betweenness: dict[str, float]
    closeness: dict[str, float]
    top_eigenvalue: float
    adjacency: np.ndarray  # symmetric eigenvector adjacency, member order


class MatrixOracle:
    """Reference computations over one summed citation matrix."""

    def __init__(self, ids: list[str], matrix: csr_matrix) -> None:
        self.ids = ids
        self.index = {journal: k for k, journal in enumerate(ids)}
        self.csr = matrix
        self._analyses: dict[tuple, Analysis] = {}

    @cached_property
    def csc(self):
        return self.csr.tocsc()

    @cached_property
    def _diagonal(self) -> np.ndarray:
        return self.csr.diagonal()

    @cached_property
    def _distinct_out(self) -> np.ndarray:
        return np.diff(self.csr.indptr) - (self._diagonal > 0)

    @cached_property
    def _distinct_in(self) -> np.ndarray:
        return np.diff(self.csc.indptr) - (self._diagonal > 0)

    def global_degrees(self, journal: str) -> tuple[int, int]:
        """Distinct non-diagonal (citing, cited) neighbours of a journal."""
        k = self.index[journal]
        return int(self._distinct_in[k]), int(self._distinct_out[k])

    def self_citation_rate(self, journal: str) -> float:
        k = self.index[journal]
        return float(self._diagonal[k]) / float(self.csc[:, k].sum())

    def environment(self, seed: str, direction: str, threshold: float) -> Environment:
        k = self.index[seed]
        if direction == "cited":
            line = self.csc[:, k]
            others, counts = line.indices, line.data
        else:
            line = self.csr[k, :]
            others, counts = line.indices, line.data
        total = int(counts.sum())
        share = counts / total
        qualifying = [
            (self.ids[j], int(c))
            for j, c, s in zip(others, counts, share)
            if j != k and s > threshold
        ]
        qualifying.sort(key=lambda item: (-item[1], item[0]))
        members = [seed] + [journal for journal, _ in qualifying]
        own = int(self._diagonal[k])
        contributions = {seed: own / total}
        contributions.update((journal, c / total) for journal, c in qualifying)
        rows = [self.index[m] for m in members]
        sub = self.csr[rows][:, rows].toarray().astype(np.int64)
        sums = sub.sum(axis=0) if direction == "cited" else sub.sum(axis=1)
        diag = np.diag(sub)
        gross = {m: int(sums[i]) for i, m in enumerate(members)}
        net = {m: int(sums[i] - diag[i]) for i, m in enumerate(members)}
        return Environment(seed, direction, members, contributions, sub, gross, net)

    def analysis(
        self,
        seed: str,
        direction: str = "cited",
        min_contrib: float = 0.01,
        cosine_threshold: float = 0.2,
        basis: str = "sim",
    ) -> Analysis:
        key = (seed, direction, min_contrib, cosine_threshold, basis)
        if key not in self._analyses:
            env = self.environment(seed, direction, min_contrib)
            self._analyses[key] = _analyse(self, env, cosine_threshold, basis)
        return self._analyses[key]


def _similarity(env: Environment, threshold: float):
    """Cosine edges over member profiles, diagonal zeroed, via exact Gram."""
    profiles = env.sub.T.copy() if env.direction == "cited" else env.sub.copy()
    np.fill_diagonal(profiles, 0)
    gram = profiles @ profiles.T  # exact int64 dot products
    norms = np.diag(gram).astype(np.float64)
    comparable = norms > 0
    edges = {}
    members = env.members
    for i in range(len(members)):
        if not comparable[i]:
            continue
        for j in range(i + 1, len(members)):
            if not comparable[j]:
                continue
            value = float(gram[i, j]) / math.sqrt(norms[i] * norms[j])
            value = max(-1.0, min(1.0, value))
            if value > threshold:
                edges[(members[i], members[j])] = value
    return edges, int((~comparable).sum())


def _analyse(oracle: MatrixOracle, env: Environment, threshold: float, basis: str):
    members = env.members
    edges, zero_profiles = _similarity(env, threshold)
    n = len(members)
    position = {m: i for i, m in enumerate(members)}
    adjacency = np.zeros((n, n))
    if basis == "sim":
        graph = nx.Graph()
        graph.add_nodes_from(members)
        for (u, v), w in edges.items():
            graph.add_edge(u, v, weight=w)
            adjacency[position[u], position[v]] += w
            adjacency[position[v], position[u]] += w
        outgoing = graph
    else:
        graph = nx.DiGraph()
        graph.add_nodes_from(members)
        for i, j in zip(*np.nonzero(env.sub)):
            if i != j:
                graph.add_edge(members[i], members[j], weight=float(env.sub[i, j]))
                adjacency[i, j] += env.sub[i, j]
                adjacency[j, i] += env.sub[i, j]
        # networkx measures closeness over incoming paths; citenet walks
        # outgoing ones, which are incoming paths of the reversed graph.
        outgoing = graph.reverse(copy=True)
    betweenness = (
        nx.betweenness_centrality(graph, normalized=True)
        if n >= 3
        else dict.fromkeys(members, 0.0)
    )
    closeness = {
        m: nx.closeness_centrality(outgoing, u=m, wf_improved=False) if n >= 2 else 0.0
        for m in members
    }
    degree_local = {}
    for m in members:
        if graph.is_directed():
            neighbours = set(graph.successors(m)) | set(graph.predecessors(m))
        else:
            neighbours = set(graph.neighbors(m))
        degree_local[m] = len(neighbours)
    degrees = {m: oracle.global_degrees(m) for m in members}
    top = float(np.linalg.eigvalsh(adjacency)[-1]) if adjacency.any() else 0.0
    return Analysis(
        env,
        members,
        edges,
        zero_profiles,
        {m: d[0] for m, d in degrees.items()},
        {m: d[1] for m, d in degrees.items()},
        degree_local,
        betweenness,
        closeness,
        top,
        adjacency,
    )


# --------------------------------------------------------------------------
# checks: each returns a list of mismatch messages


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _close_pair(a: tuple[float, float], b: tuple[float, float], tol: float) -> bool:
    return _close(a[0], b[0], tol) and _close(a[1], b[1], tol)


def check_eigenvector(analysis: Analysis, values: dict[str, float]) -> list[str]:
    """Unit norm, nonnegative, and an eigenvector of the top eigenvalue."""
    vector = np.array([values[m] for m in analysis.nodes])
    if not analysis.adjacency.any():
        return [] if not vector.any() else ["eigenvector nonzero on an edgeless graph"]
    errors = []
    if not _close(float(np.linalg.norm(vector)), 1.0, 1e-9):
        errors.append(f"eigenvector norm {np.linalg.norm(vector)!r}")
    if vector.min() < -1e-12:
        errors.append(f"negative eigenvector loading {vector.min()!r}")
    top = analysis.top_eigenvalue
    residual = np.linalg.norm(analysis.adjacency @ vector - top * vector)
    if residual > 1e-6 * (1.0 + top):
        errors.append(f"eigenvector residual {residual:.3e}")
    return errors


def check_rows(analysis: Analysis, rows: list[dict]) -> list[str]:
    """Full-precision centrality rows (``centrality --format json``, JSON export)."""
    errors = []
    if [row["journal"] for row in rows] != analysis.nodes:
        return [f"report rows {len(rows)} do not list the {len(analysis.nodes)} members"]
    for row in rows:
        m = row["journal"]
        expected = (analysis.degree_in[m], analysis.degree_out[m], analysis.degree_local[m])
        got = (row["degree_in"], row["degree_out"], row["degree_local"])
        if got != expected:
            errors.append(f"{m}: degrees (in, out, local) {got} != {expected}")
        for measure in ("betweenness", "closeness"):
            expected = getattr(analysis, measure)[m]
            if not _close(row[measure], expected, REPORT_TOL):
                errors.append(f"{m}: {measure} {row[measure]!r} != {expected!r}")
    eigenvector = {row["journal"]: row["eigenvector"] for row in rows}
    errors += check_eigenvector(analysis, eigenvector)
    return errors[:5]


def check_report_table(
    analysis: Analysis, text: str, impact: dict[str, float], year: int, journals: int
) -> list[str]:
    """The paper's table: rounded values, sort order and the basis lines."""
    lines = text.rstrip("\n").split("\n")
    errors = []
    expected_global = f"# global basis: citation matrix {year} ({journals} journals)"
    if len(lines) < 3 or lines[1] != expected_global:
        errors.append(f"global basis line {lines[1] if len(lines) > 1 else None!r}")
    if not lines[0].startswith("# local basis: ") or analysis.env.seed not in lines[0]:
        errors.append(f"local basis line {lines[0]!r}")
    body = lines[3:]
    if sorted(line.split()[0] for line in body) != sorted(analysis.nodes):
        return errors + ["table rows do not match the environment members"]
    previous = math.inf
    for line in body:
        fields = line.split()
        m = fields[0]
        percent = float(fields[1])
        expected = 100 * analysis.betweenness[m]
        if abs(percent - expected) > 0.005 + 1e-9:
            errors.append(f"{m}: betweenness {fields[1]}% vs {expected!r}")
        if percent > previous:
            errors.append(f"{m}: rows not sorted by betweenness")
        previous = percent
        got = tuple(int(f) for f in fields[2:5])
        expected = (analysis.degree_local[m], analysis.degree_in[m], analysis.degree_out[m])
        if got != expected:
            errors.append(f"{m}: degrees (local, in, out) {got} != {expected}")
        shown = fields[5] if len(fields) > 5 else ""
        wanted = f"{impact[m]:.2f}" if m in impact else ""
        if shown != wanted:
            errors.append(f"{m}: impact factor {shown!r} != {wanted!r}")
    return errors[:5]


def check_environment_json(env: Environment, text: str) -> list[str]:
    document = json.loads(text)
    errors = []
    listed = [entry["journal"] for entry in document["members"]]
    if listed != env.members:
        return [f"members {listed[:5]}... != {env.members[:5]}..."]
    for entry in document["members"]:
        m = entry["journal"]
        if not _close(entry["contribution"], env.contributions[m], WEIGHT_TOL):
            errors.append(f"{m}: contribution {entry['contribution']!r}")
        if (entry["gross"], entry["net_of_self"]) != (env.gross[m], env.net[m]):
            errors.append(f"{m}: gross/net {entry['gross']}/{entry['net_of_self']}")
    return errors[:5]


def check_edges(expected: dict, got: dict, tol: float) -> list[str]:
    if set(got) != set(expected):
        return [f"{len(got)} similarity edges, expected {len(expected)}"]
    return [
        f"edge {pair}: weight {got[pair]!r} != {w!r}"
        for pair, w in expected.items()
        if not _close(got[pair], w, tol)
    ][:5]


def check_sim_csv(analysis: Analysis, text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "source,target,weight":
        return [f"header {lines[0]!r}"]
    got = {}
    for line in lines[1:]:
        u, v, w = line.split(",")
        got[(u, v)] = float(w)
    return check_edges(analysis.edges, got, WEIGHT_TOL)


def _extents(env: Environment, m: str) -> tuple[float, float]:
    return math.log10(1 + env.net[m]), math.log10(1 + env.gross[m])


_PAJEK_VERTEX = re.compile(r'^(\d+) "([^"]*)" x_fact (\S+) y_fact (\S+)$')


def check_pajek(analysis: Analysis, text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    n = int(lines[0].split()[1])
    labels, errors = [], []
    for line in lines[1 : 1 + n]:
        number, label, x_fact, y_fact = _PAJEK_VERTEX.match(line).groups()
        labels.append(label)
        x, y = _extents(analysis.env, label)
        if not _close_pair((float(x_fact), float(y_fact)), (x, y), WEIGHT_TOL):
            errors.append(f"{label}: size factors {x_fact}, {y_fact}")
    if labels != analysis.nodes or lines[1 + n] != "*Edges":
        return errors + ["Pajek vertices do not list the members in order"]
    got = {}
    for line in lines[2 + n :]:
        i, j, w = line.split(" ")
        got[(labels[int(i) - 1], labels[int(j) - 1])] = float(w)
    rounded = {pair: round(w, 4) for pair, w in analysis.edges.items()}
    return (errors + check_edges(rounded, got, ROUNDED_TOL))[:5]


_DOT_NODE = re.compile(r'^  "([^"]*)" \[width=(\S+), height=(\S+)\];$')
_DOT_EDGE = re.compile(r'^  "([^"]*)" -- "([^"]*)" \[penwidth=(\S+), weight=(\S+)\];$')


def check_dot(analysis: Analysis, text: str) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "graph similarity {" or lines[-1] != "}":
        return ["DOT graph statement missing"]
    labels, got, errors = [], {}, []
    for line in lines[1:-1]:
        node, edge = _DOT_NODE.match(line), _DOT_EDGE.match(line)
        if node:
            label = node.group(1)
            labels.append(label)
            x, y = _extents(analysis.env, label)
            shown = (float(node.group(2)), float(node.group(3)))
            if not _close_pair(shown, (x, y), ROUNDED_TOL):
                errors.append(f"{label}: width/height {node.group(2)}/{node.group(3)}")
        elif edge:
            u, v, pen, w = edge.groups()
            got[(u, v)] = float(w)
            if abs(float(pen) - STROKE_SCALE * float(w)) > 5e-4:
                errors.append(f"edge {u}-{v}: penwidth {pen} for weight {w}")
    if labels != analysis.nodes:
        return errors + ["DOT nodes do not list the members in order"]
    rounded = {pair: round(w, 4) for pair, w in analysis.edges.items()}
    return (errors + check_edges(rounded, got, ROUNDED_TOL))[:5]


def check_export_json(analysis: Analysis, text: str, threshold: float) -> list[str]:
    document = json.loads(text)
    errors = []
    if document["threshold"] != threshold or document["basis"] != analysis.env.direction:
        errors.append(f"threshold/basis {document['threshold']}/{document['basis']}")
    if [node["id"] for node in document["nodes"]] != analysis.nodes:
        return errors + ["JSON nodes do not list the members in order"]
    for node in document["nodes"]:
        m = node["id"]
        x, y = _extents(analysis.env, m)
        env = analysis.env
        if (node["gross_cites"], node["net_of_self"]) != (env.gross[m], env.net[m]):
            errors.append(f"{m}: gross/net {node['gross_cites']}/{node['net_of_self']}")
        if not _close_pair((node["x_extent"], node["y_extent"]), (x, y), WEIGHT_TOL):
            errors.append(f"{m}: extents {node['x_extent']!r}, {node['y_extent']!r}")
    if len(document["warnings"]) != analysis.zero_profiles:
        warnings = len(document["warnings"])
        errors.append(f"{warnings} warnings, {analysis.zero_profiles} zero profiles")
    got = {(e["source"], e["target"]): e["weight"] for e in document["edges"]}
    errors += check_edges(analysis.edges, got, WEIGHT_TOL)
    errors += check_rows(analysis, document["report"]["rows"])
    return errors[:5]


# --------------------------------------------------------------------------
# persisted matrices (ingest and merge outputs)


def check_persisted(
    csv_text: str,
    sidecar_text: str,
    ids: list[str],
    matrix: csr_matrix,
    journals: dict[str, tuple[str, str]],
    year: int,
) -> list[str]:
    """A persisted matrix holds exactly the expected cells and registry.

    ``journals`` maps every expected journal id to (display_name, source).
    """
    errors = []
    lines = csv_text.rstrip("\n").split("\n")
    if lines[0] != "citing,cited,count":
        errors.append(f"CSV header {lines[0]!r}")
    index = {journal: k for k, journal in enumerate(ids)}
    n = len(lines) - 1
    citing = np.empty(n, dtype=np.int64)
    cited = np.empty(n, dtype=np.int64)
    count = np.empty(n, dtype=np.int64)
    try:
        for k, line in enumerate(lines[1:]):
            u, v, c = line.split(",")
            citing[k], cited[k], count[k] = index[u], index[v], int(c)
    except (KeyError, ValueError) as exc:
        return errors + [f"CSV row {k + 2}: {exc!r}"]
    got = csr_matrix((count, (citing, cited)), shape=matrix.shape)
    if n != matrix.nnz or (got != matrix).nnz:
        errors.append(f"{n} persisted cells differ from the {matrix.nnz} expected")
    meta = json.loads(sidecar_text)
    if meta.get("year") != year:
        errors.append(f"sidecar year {meta.get('year')!r}")
    listed = {e["id"]: (e["display_name"], e["source_index"]) for e in meta["journals"]}
    if listed != journals:
        missing = set(journals) ^ set(listed)
        wrong = [j for j in set(journals) & set(listed) if journals[j] != listed[j]]
        errors.append(
            f"sidecar registry: {len(missing)} journals missing or extra, "
            f"{len(wrong)} with the wrong name or source, e.g. {sorted(wrong)[:3]}"
        )
    return errors
