"""Full-precision ``centrality --format json`` outputs pinned to golden files.

The matrix is built here from a seeded generator: 60 journals in six
clusters that cite only within their own cluster, plus a seed that cites and
is cited across all of them with small counts.  Each local graph has several
components (strongly connected ones for the directed raw-link graph), so the
outputs exercise closeness over a reachable subset and betweenness with
disconnected pairs.

Run this module as a script to rewrite the golden files after an intended
output change.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from citenet import (
    CitationMatrix,
    Direction,
    Graph,
    Journal,
    extract_environment,
    similarity_graph,
    write_matrix,
)
from citenet.cli import main

DATA_DIR = Path(__file__).parent / "data"
SEED = "G00"
CASES = {
    "centrality_sim_cited.json": [],
    "centrality_raw_cited.json": ["--local-basis", "raw"],
    "centrality_sim_citing.json": ["--direction", "citing"],
}


def golden_matrix() -> CitationMatrix:
    rng = np.random.default_rng(2005)
    ids = [f"G{i:02d}" for i in range(60)]
    cluster = rng.integers(0, 6, size=len(ids))
    cells = {}
    for i, citing in enumerate(ids):
        for j, cited in enumerate(ids):
            if SEED in (citing, cited):
                if rng.random() < 0.6:
                    cells[(citing, cited)] = int(rng.integers(1, 4))
            elif cluster[i] == cluster[j] and rng.random() < 0.3:
                cells[(citing, cited)] = int(rng.integers(5, 60))
    return CitationMatrix(2005, [Journal(x, x) for x in ids], cells)


def centrality_json(extra: list[str]) -> str:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        write_matrix(golden_matrix(), path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["centrality", str(path), "--seed", SEED, "--format", "json", *extra])
    assert code == 0, err.getvalue()
    return out.getvalue()


def _components(g: Graph) -> int:
    """Strongly connected components (plain components when undirected)."""
    reach = {}
    for source in g.nodes:
        seen, stack = {source}, [source]
        while stack:
            for w in g.successors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach[source] = seen
    return len({frozenset(v for v in reach[u] if u in reach[v]) for u in g.nodes})


@pytest.mark.parametrize(
    "direction, basis",
    [(Direction.CITED, "sim"), (Direction.CITED, "raw"), (Direction.CITING, "sim")],
)
def test_fixture_graphs_have_several_components(direction, basis):
    env = extract_environment(golden_matrix(), SEED, direction, 0.01)
    if basis == "sim":
        g = Graph.from_similarity(similarity_graph(env, 0.2))
    else:
        g = Graph.from_citation_matrix(env.submatrix, nodes=env.members)
    assert len(g) >= 3 and g.edges
    assert _components(g) > 1


def _without_loadings(document: dict) -> tuple[dict, list[float]]:
    return document, [row.pop("eigenvector") for row in document["rows"]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_centrality_json_matches_golden(name):
    got, got_loadings = _without_loadings(json.loads(centrality_json(CASES[name])))
    want, want_loadings = _without_loadings(
        json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
    )
    # Every field but the loadings must be identical, type and all.
    assert json.dumps(got, indent=1) == json.dumps(want, indent=1)
    # The loadings are normalized with numpy's norm, which goes through BLAS,
    # so their last bits may depend on the BLAS build.
    assert len(got_loadings) == len(want_loadings)
    for a, b in zip(got_loadings, want_loadings):
        assert abs(a - b) <= 1e-12


if __name__ == "__main__":
    for name, extra in CASES.items():
        (DATA_DIR / name).write_text(centrality_json(extra), encoding="utf-8")
