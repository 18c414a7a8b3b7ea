"""Full-precision CLI outputs pinned to golden files.

The matrix is built here from a seeded generator: 60 journals in six
clusters that cite only within their own cluster, plus a seed that cites and
is cited across all of them with small counts.  Each local graph has several
components (strongly connected ones for the directed raw-link graph), so the
outputs exercise closeness over a reachable subset and betweenness with
disconnected pairs.  Besides ``centrality --format json`` the goldens pin the
``env`` and ``centrality`` tables, the ``sim`` edge list, every ``export``
format and both ``report`` formats.

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

import citenet.centrality
from citenet import (
    CitationMatrix,
    ConvergenceError,
    Direction,
    Graph,
    Journal,
    extract_environment,
    similarity_graph,
    write_matrix,
)
from citenet.cli import main
from oracles import neighbours

DATA_DIR = Path(__file__).parent / "data"
SEED = "G00"
IF_CSV = "if.csv"
# Impact factors for three members and one journal outside the environment.
IMPACT_FACTORS = "id,impact_factor\nG00,1.25\nG14,0.4\nG29,2\nG58,3.5\n"
# Golden file name -> subcommand and flags; the matrix path and --seed are
# added by :func:`cli_output`.
CASES = {
    "centrality_sim_cited.json": ["centrality", "--format", "json"],
    "centrality_raw_cited.json": ["centrality", "--format", "json", "--local-basis", "raw"],
    "centrality_sim_citing.json": ["centrality", "--format", "json", "--direction", "citing"],
    "cli_sim.csv": ["sim"],
    "cli_export.net": ["export", "--format", "pajek"],
    "cli_export.dot": ["export", "--format", "dot"],
    "cli_export_sim.json": ["export", "--format", "json"],
    "cli_export_raw.json": ["export", "--format", "json", "--local-basis", "raw"],
    "cli_report.txt": ["report"],
    "cli_report_if.json": ["report", "--format", "json", "--if-csv", IF_CSV],
    "cli_env.txt": ["env"],
    "cli_env_citing.txt": ["env", "--direction", "citing"],
    "cli_centrality_sim_cited.txt": ["centrality"],
    "cli_centrality_raw_cited.txt": ["centrality", "--local-basis", "raw"],
    "cli_centrality_sim_citing.txt": ["centrality", "--direction", "citing"],
}
JSON_CASES = sorted(name for name in CASES if name.endswith(".json"))
TEXT_CASES = sorted(name for name in CASES if not name.endswith(".json"))


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


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of one CLI call on the golden matrix."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.csv"
        write_matrix(golden_matrix(), path)
        (Path(directory) / IF_CSV).write_text(IMPACT_FACTORS, encoding="utf-8")
        command, *flags = args
        flags = [str(Path(directory) / flag) if flag == IF_CSV else flag for flag in flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--seed", SEED, *flags])
    return code, out.getvalue(), err.getvalue()


def cli_output(args: list[str]) -> str:
    code, out, err = run_cli(args)
    assert code == 0, err
    return out


def _components(g: Graph) -> int:
    """Strongly connected components (plain components when undirected)."""
    succ = neighbours(g)[0]
    reach = {}
    for source in g.nodes:
        seen, stack = {source}, [source]
        while stack:
            for w in succ[stack.pop()]:
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
        g = similarity_graph(env, 0.2)
    else:
        g = Graph.from_citation_matrix(env.matrix, nodes=env.members)
    assert len(g) >= 3 and g.edges
    assert _components(g) > 1


def _without_loadings(document: dict) -> tuple[dict, list[float]]:
    rows = document.get("report", document)["rows"]
    return document, [row.pop("eigenvector") for row in rows]


def _golden(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", JSON_CASES)
def test_centrality_json_matches_golden(name):
    got, got_loadings = _without_loadings(json.loads(cli_output(CASES[name])))
    want, want_loadings = _without_loadings(json.loads(_golden(name)))
    # Every field but the loadings must be identical, type and all.
    assert json.dumps(got, indent=1) == json.dumps(want, indent=1)
    # The loadings are normalized with numpy's norm, which goes through BLAS,
    # so their last bits may depend on the BLAS build.
    assert len(got_loadings) == len(want_loadings)
    for a, b in zip(got_loadings, want_loadings):
        assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("name", TEXT_CASES)
def test_text_output_matches_golden(name):
    # Text outputs print eigenvector loadings only to four decimals, and none
    # here lies within 1e-8 of a rounding boundary, so all match byte for byte.
    assert cli_output(CASES[name]) == _golden(name)


def _no_convergence(g):
    raise ConvergenceError(10_000, 1.0)


@pytest.mark.parametrize("name", ["cli_export.net", "cli_export.dot"])
def test_exports_without_centralities_do_not_compute_them(name, monkeypatch):
    monkeypatch.setattr(citenet.centrality, "eigenvector_centrality", _no_convergence)
    code, out, _ = run_cli(CASES[name])
    assert (code, out) == (0, _golden(name))


@pytest.mark.parametrize("name", ["cli_export_sim.json", "cli_report.txt"])
def test_outputs_with_centralities_fail_on_one_error_line(name, monkeypatch):
    monkeypatch.setattr(citenet.centrality, "eigenvector_centrality", _no_convergence)
    code, out, err = run_cli(CASES[name])
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
        "error: power iteration did not converge after 10000 iterations "
        "(last step size 1.000e+00)"
    ]


if __name__ == "__main__":
    for name, args in CASES.items():
        (DATA_DIR / name).write_text(cli_output(args), encoding="utf-8")
