"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citenet
from citenet.cli import main

EDGES = "citing,cited,count\nA,S,50\nB,S,30\nC,S,20\nA,B,5\nB,A,5\nS,A,2\nA,A,9\n"


@pytest.fixture()
def matrix_path(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text(EDGES, encoding="utf-8")
    out = tmp_path / "matrix.csv"
    code = main(["ingest", str(edges), "--year", "2005", "--out", str(out)])
    assert code == 0
    return out


def test_a_report_imports_no_scipy(matrix_path):
    script = (
        "import sys, citenet, citenet.cli\n"
        f"code = citenet.cli.main(['report', {str(matrix_path)!r}, '--seed', 'S'])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(citenet.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "0 []"


class TestIngestAndMerge:
    def test_ingest_writes_matrix_and_sidecar(self, matrix_path, capsys):
        assert matrix_path.exists()
        assert matrix_path.with_name(matrix_path.name + ".meta.json").exists()

    def test_ingest_reports_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B,-1\n", encoding="utf-8")
        code = main(["ingest", str(bad), "--year", "2005", "--out", str(tmp_path / "m.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_registry_field_over_the_csv_field_limit(self, tmp_path, capsys):
        edges, registry = tmp_path / "edges.csv", tmp_path / "registry.csv"
        edges.write_text(EDGES, encoding="utf-8")
        registry.write_text("A" * 200_000 + ",x,SCI\n", encoding="utf-8")
        argv = ["ingest", str(edges), "--year", "2005", "--registry", str(registry)]
        assert main(argv + ["--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: field larger") and err.count("\n") == 1

    def test_merge(self, tmp_path, matrix_path, capsys):
        other = tmp_path / "other_edges.csv"
        other.write_text("X,S,10\nA,S,5\n", encoding="utf-8")
        other_matrix = tmp_path / "other.csv"
        assert main(["ingest", str(other), "--year", "2005", "--source", "ssci",
                     "--out", str(other_matrix)]) == 0
        merged = tmp_path / "merged.csv"
        assert main(["merge", str(matrix_path), str(other_matrix),
                     "--out", str(merged)]) == 0
        meta = json.loads(
            merged.with_name(merged.name + ".meta.json").read_text(encoding="utf-8")
        )
        sources = {j["id"]: j["source_index"] for j in meta["journals"]}
        assert sources["A"] == "BOTH"
        assert sources["X"] == "SSCI"

    def test_ingest_accepts_byte_order_mark(self, tmp_path, capsys):
        edges = tmp_path / "bom.csv"
        edges.write_text("\ufeff" + EDGES, encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["ingest", str(edges), "--year", "2005", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 4 journals, 7 cells\n"

    def test_matrix_without_cells_merges_and_reloads(self, tmp_path, capsys):
        edges = tmp_path / "zero.csv"
        edges.write_text("A,B,0\n", encoding="utf-8")
        z = tmp_path / "z.csv"
        assert main(["ingest", str(edges), "--year", "2005", "--out", str(z)]) == 0
        merged = tmp_path / "zz.csv"
        assert main(["merge", str(z), str(z), "--out", str(merged)]) == 0
        assert capsys.readouterr().out.endswith(": 2 journals, 0 cells\n")
        assert main(["env", str(merged), "--seed", "A"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "isolated" in err

    def test_merge_year_mismatch_fails(self, tmp_path, matrix_path, capsys):
        other_edges = tmp_path / "e2.csv"
        other_edges.write_text("X,S,10\n", encoding="utf-8")
        other = tmp_path / "m2004.csv"
        assert main(["ingest", str(other_edges), "--year", "2004",
                     "--out", str(other)]) == 0
        code = main(["merge", str(matrix_path), str(other), "--out",
                     str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def _sidecar(path):
    return path.with_name(path.name + ".meta.json")


class TestSidecar:
    def _env_error(self, matrix_path, capsys):
        assert main(["env", str(matrix_path), "--seed", "S"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_stale_sidecar_names_both_files(self, matrix_path, capsys):
        matrix_path.write_text(EDGES.replace("A,S,50", "A,S,51"), encoding="utf-8")
        err = self._env_error(matrix_path, capsys)
        assert str(_sidecar(matrix_path)) in err
        assert f"{matrix_path}:" in err

    def test_sidecar_without_hash_loads(self, matrix_path, capsys):
        meta = json.loads(_sidecar(matrix_path).read_text(encoding="utf-8"))
        del meta["csv_sha256"]
        _sidecar(matrix_path).write_text(json.dumps(meta), encoding="utf-8")
        assert main(["env", str(matrix_path), "--seed", "S"]) == 0

    def test_sidecar_without_year(self, matrix_path, capsys):
        meta = json.loads(_sidecar(matrix_path).read_text(encoding="utf-8"))
        del meta["year"]
        _sidecar(matrix_path).write_text(json.dumps(meta), encoding="utf-8")
        assert "year" in self._env_error(matrix_path, capsys)

    @pytest.mark.parametrize(
        "entry",
        [
            {"id": "A", "display_name": "A"},
            {"id": "A", "display_name": "A", "source_index": "XXX"},
            {"id": 5, "display_name": "A", "source_index": "SCI"},
            "A",
        ],
    )
    def test_malformed_journals_entry(self, matrix_path, capsys, entry):
        meta = json.loads(_sidecar(matrix_path).read_text(encoding="utf-8"))
        meta["journals"][0] = entry
        _sidecar(matrix_path).write_text(json.dumps(meta), encoding="utf-8")
        assert "journals entry 0" in self._env_error(matrix_path, capsys)

    @pytest.mark.parametrize("cached", [True, False])
    def test_repeated_journal_id(self, matrix_path, capsys, cached):
        if not cached:
            matrix_path.with_name(matrix_path.name + ".csr.npz").unlink()
        meta = json.loads(_sidecar(matrix_path).read_text(encoding="utf-8"))
        meta["journals"].append({"id": "A", "display_name": "Other name", "source_index": "SSCI"})
        _sidecar(matrix_path).write_text(json.dumps(meta), encoding="utf-8")
        assert "journals entry 4: repeats the id 'A'" in self._env_error(matrix_path, capsys)

    def test_deeply_nested_sidecar(self, matrix_path, capsys):
        _sidecar(matrix_path).write_text("[" * 100_000, encoding="utf-8")
        assert "not a JSON document" in self._env_error(matrix_path, capsys)


class TestEnvCommand:
    def test_table_output(self, matrix_path, capsys):
        assert main(["env", str(matrix_path), "--seed", "S"]) == 0
        out = capsys.readouterr().out
        assert "journal" in out
        assert "A" in out and "B" in out and "C" in out

    def test_json_output(self, matrix_path, capsys):
        assert main(["env", str(matrix_path), "--seed", "S", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["seed"] == "S"
        assert [m["journal"] for m in document["members"]] == ["S", "A", "B", "C"]

    def test_unknown_seed_fails_with_diagnostic(self, matrix_path, capsys):
        assert main(["env", str(matrix_path), "--seed", "nope"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_seed_flag(self, matrix_path, capsys):
        assert main(["env", str(matrix_path)]) == 1
        assert "--seed" in capsys.readouterr().err


class TestSimCommand:
    def test_edge_list_csv(self, matrix_path, capsys):
        assert main(["sim", str(matrix_path), "--seed", "S",
                     "--cosine-threshold", "0.0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "source,target,weight"
        assert all(len(line.split(",")) == 3 for line in lines[1:])


class TestCentralityAndReport:
    def test_centrality_table(self, matrix_path, capsys):
        assert main(["centrality", str(matrix_path), "--seed", "S"]) == 0
        out = capsys.readouterr().out
        assert "# local basis:" in out
        assert "betweenness_%" in out

    def test_centrality_json(self, matrix_path, capsys):
        assert main(["centrality", str(matrix_path), "--seed", "S",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        journals = {row["journal"] for row in document["rows"]}
        assert journals == {"S", "A", "B", "C"}

    def test_centrality_json_rows_equal_export_json_rows(self, tmp_path, matrix_path, capsys):
        assert main(["centrality", str(matrix_path), "--seed", "S",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        json_path = tmp_path / "g.json"
        assert main(["export", str(matrix_path), "--seed", "S", "--format", "json",
                     "--out", str(json_path)]) == 0
        document = json.loads(json_path.read_text(encoding="utf-8"))
        assert rows == document["report"]["rows"]
        assert list(rows[0]) == [
            "journal", "degree_in", "degree_out", "degree_local",
            "closeness", "betweenness", "eigenvector",
        ]

    def test_raw_local_basis(self, matrix_path, capsys):
        assert main(["centrality", str(matrix_path), "--seed", "S",
                     "--local-basis", "raw", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "raw citation links" in document["local_basis"]
        by_journal = {row["journal"]: row for row in document["rows"]}
        # raw links among {S,A,B,C}: A<->B plus everyone citing S
        assert by_journal["A"]["degree_local"] == 2

    def test_report_with_impact_factors(self, tmp_path, matrix_path, capsys):
        if_csv = tmp_path / "if.csv"
        if_csv.write_text("id,impact_factor\nS,0.53\nA,1.44\n", encoding="utf-8")
        out_path = tmp_path / "report.txt"
        assert main(["report", str(matrix_path), "--seed", "S",
                     "--if-csv", str(if_csv), "--out", str(out_path)]) == 0
        text = out_path.read_text(encoding="utf-8")
        assert "impact_factor" in text
        assert "0.53" in text

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "high"])
    def test_report_rejects_non_finite_impact_factor(self, tmp_path, matrix_path, capsys, value):
        if_csv = tmp_path / "if.csv"
        if_csv.write_text(f"id,impact_factor\nA,1.5\nB,{value}\n", encoding="utf-8")
        code = main(["report", str(matrix_path), "--seed", "S", "--if-csv", str(if_csv)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {if_csv}:3: impact factor {value!r} is not a finite number\n"
        )


class TestMetricsCommand:
    def test_if_inputs(self, capsys):
        assert main(["metrics", "--if-inputs", "30,30,50,50,5,5"]) == 0
        out = capsys.readouterr().out
        assert "impact_factor = 0.6" in out
        assert "quasi_impact_factor = 0.5" in out

    def test_h_counts(self, capsys):
        assert main(["metrics", "--h-counts", "10,8,5,4,3"]) == 0
        assert "h_index = 4" in capsys.readouterr().out

    def test_self_citation_rate(self, matrix_path, capsys):
        assert main(["metrics", "--matrix", str(matrix_path), "--journal", "A",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        # A is cited by B (5) and S (2) and itself (9): 9/16
        assert document["self_citation_rate"] == pytest.approx(9 / 16)

    def test_nothing_to_compute(self, capsys):
        assert main(["metrics"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExportCommand:
    def test_pajek_default(self, matrix_path, capsys):
        assert main(["export", str(matrix_path), "--seed", "S"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("*Vertices ")
        assert "*Edges" in out

    def test_dot_and_json(self, tmp_path, matrix_path):
        dot_path = tmp_path / "g.dot"
        json_path = tmp_path / "g.json"
        assert main(["export", str(matrix_path), "--seed", "S", "--format", "dot",
                     "--out", str(dot_path)]) == 0
        assert dot_path.read_text(encoding="utf-8").startswith("graph similarity {")
        assert main(["export", str(matrix_path), "--seed", "S", "--format", "json",
                     "--out", str(json_path)]) == 0
        document = json.loads(json_path.read_text(encoding="utf-8"))
        assert document["report"] is not None


class TestConfigAndDataDir:
    def test_config_presets_flags(self, tmp_path, matrix_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "S", "min_contrib": 0.25}), encoding="utf-8")
        assert main(["env", str(matrix_path), "--config", str(config),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        # only A (50%) and B (30%) clear the preset 25% threshold
        assert [m["journal"] for m in document["members"]] == ["S", "A", "B"]

    def test_explicit_flag_overrides_config(self, tmp_path, matrix_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "S", "min_contrib": 0.25}), encoding="utf-8")
        assert main(["env", str(matrix_path), "--config", str(config),
                     "--min-contrib", "0.01", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document["members"]) == 4

    def test_unknown_config_key_rejected(self, tmp_path, matrix_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sede": "S"}), encoding="utf-8")
        assert main(["env", str(matrix_path), "--config", str(config)]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            (["seed"], "must be a JSON object"),
            ({"seed": "S", "min_contrib": None}, "'min_contrib' must be a number"),
            ({"seed": "S", "cosine_threshold": True}, "'cosine_threshold' must be a number"),
            ({"seed": ["S"]}, "'seed' must be a string"),
            ({"seed": "S", "data_dir": 5}, "'data_dir' must be a string"),
            ({"seed": "S", "min_contrib": 10**400}, "'min_contrib' is too large"),
        ],
    )
    def test_config_value_of_the_wrong_type(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["env", "missing.csv", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_deeply_nested_config(self, tmp_path, matrix_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000, encoding="utf-8")
        assert main(["env", str(matrix_path), "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a JSON document" in err

    def test_data_dir_resolves_bare_paths(self, tmp_path, matrix_path, monkeypatch, capsys):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)  # matrix is not reachable from cwd
        assert main(["env", matrix_path.name, "--seed", "S"]) == 1
        capsys.readouterr()
        monkeypatch.setenv("CITENET_DATA_DIR", str(matrix_path.parent))
        assert main(["env", matrix_path.name, "--seed", "S", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == "S"


def _no_load(*args, **kwargs):
    raise AssertionError("input loaded before the arguments were checked")


class TestBadArgumentsRejectedBeforeLoading:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ingest", "{edges}", "--year", "2005"], "ingest requires --out for the persisted matrix"),
            (["merge", "{matrix}", "{matrix}"], "merge requires --out for the persisted matrix"),
            (["env", "{matrix}", "--config", "{config}"],
             "env supports formats table|json, not 'csv'"),
            (["centrality", "{matrix}", "--config", "{config}"],
             "centrality supports formats table|json, not 'csv'"),
            (["export", "{matrix}", "--config", "{config}"],
             "export supports formats pajek|dot|json, not 'csv'"),
            (["report", "{matrix}", "--config", "{config}"],
             "report supports formats table|json, not 'csv'"),
            (["metrics", "--matrix", "{matrix}", "--journal", "S", "--config", "{config}"],
             "metrics supports formats table|json, not 'csv'"),
            (["export", "{matrix}", "--format", "dot", "--config", "{basis_config}"],
             "--local-basis must be sim or raw, not 'both'"),
        ],
    )
    def test_error_line_without_reading_input(
        self, tmp_path, matrix_path, monkeypatch, capsys, argv, message
    ):
        edges = tmp_path / "edges.csv"
        edges.write_text(EDGES, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "S", "format": "csv"}), encoding="utf-8")
        basis_config = tmp_path / "basis.json"
        basis_config.write_text(json.dumps({"seed": "S", "local_basis": "both"}),
                                encoding="utf-8")
        paths = {"edges": edges, "matrix": matrix_path, "config": config,
                 "basis_config": basis_config}
        monkeypatch.setattr("citenet.cli.read_matrix", _no_load)
        monkeypatch.setattr("citenet.cli.parse_citation_csv", _no_load)
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
