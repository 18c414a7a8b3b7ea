"""End-to-end tests for the command-line interface."""

import argparse
import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import citenet
from citenet.cli import build_parser, main

EDGES = "citing,cited,count\nA,S,50\nB,S,30\nC,S,20\nA,B,5\nB,A,5\nS,A,2\nA,A,9\n"


@pytest.fixture()
def matrix_path(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text(EDGES, encoding="utf-8")
    out = tmp_path / "matrix.csv"
    code = main(["ingest", str(edges), "--year", "2005", "--out", str(out)])
    assert code == 0
    return out


def _run_with_closed(fd, argv):
    """Run the CLI in a child process whose file descriptor *fd* is closed."""
    env = dict(os.environ, PYTHONPATH=str(Path(citenet.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "citenet.cli", *argv], env=env,
                          capture_output=True, preexec_fn=lambda: os.close(fd))


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


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
GOLDEN_SIM = ["sim", str(Path(__file__).parent / "data" / "matrix_golden.csv"), "--seed", "A"]


def _without_blas_thread_counts() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(citenet.__file__).parents[1]))
    for name in BLAS_THREADS:
        env.pop(name, None)
    return env


def test_calls_that_compute_nothing_with_numpy_do_not_import_it(tmp_path):
    calls = [
        ["--version"],
        ["--help"],
        ["metrics", "--h-counts", "3,2,1"],
        ["metrics", "--if-inputs", "30,30,50,50"],
        ["metrics", "--h-counts", "3", "--format", "csv"],
    ]
    # Every subcommand's arguments, a config file's too, are parsed before
    # numpy loads: the thread count main sets would come too late otherwise.
    config = tmp_path / "config.json"
    config.write_text('{"seed": "S", "min_contrib": 0.05, "format": "json"}', encoding="utf-8")
    parsed = {
        "ingest": ["edges.csv", "--year", "2005", "--out", "m.csv"],
        "merge": ["a.csv", "b.csv", "--out", "m.csv"],
        "env": ["m.csv", "--config", str(config)],
        "sim": ["m.csv", "--seed", "S", "--cosine-threshold", "0.1"],
        "centrality": ["m.csv", "--seed", "S", "--local-basis", "raw"],
        "metrics": ["--matrix", "m.csv", "--journal", "S"],
        "export": ["m.csv", "--config", str(config), "--format", "dot"],
        "report": ["m.csv", "--seed", "S", "--if-csv", "if.csv"],
    }
    script = (
        "import contextlib, io, os, sys, citenet\n"
        "import citenet.cli\n"
        "from citenet.cli import main\n"
        "citenet.__all__\n"
        "print('numpy' in sys.modules)\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code, 'numpy' in sys.modules)\n"
        "def handler(args):\n"
        "    threads = os.environ['OPENBLAS_NUM_THREADS']\n"
        "    return f'{args.command} {\"numpy\" in sys.modules} {threads}\\n'\n"
        f"for command, argv in {parsed!r}.items():\n"
        "    setattr(citenet.cli, '_cmd_' + command, handler)\n"
        "    main([command, *argv])\n"
        "print(sorted(name[5:] for name in dir(citenet.cli) if name.startswith('_cmd_')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_without_blas_thread_counts(),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        "False", "0 False", "0 False", "0 False", "0 False", "1 False",
        *(f"{command} False 1" for command in parsed),
        str(sorted(parsed)),
    ]


def _sim_in_a_child(env: dict[str, str], tmp_path, before: str = "") -> dict:
    """Run *before*, then ``main`` on ``sim`` in a child with environment
    *env*; return its exit code, thread count and changed variables."""
    script = (
        "import json, os, sys\n"
        f"{before}\n"
        "from citenet.cli import main\n"
        "start = dict(os.environ)\n"
        f"code = main({GOLDEN_SIM + ['--out', str(tmp_path / 'sim.csv')]!r})\n"
        "changed = {k: os.environ.get(k) for k in {*start, *os.environ}\n"
        "           if start.get(k) != os.environ.get(k)}\n"
        "threads = len(os.listdir('/proc/self/task'))\n"
        "print(json.dumps({'code': code, 'threads': threads, 'changed': changed}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


linux_only = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


@linux_only
def test_the_cli_runs_blas_on_one_thread(tmp_path):
    assert _sim_in_a_child(_without_blas_thread_counts(), tmp_path) == {
        "code": 0, "threads": 1, "changed": {"OPENBLAS_NUM_THREADS": "1"}
    }


@linux_only
@pytest.mark.parametrize("name", BLAS_THREADS)
def test_a_thread_count_the_user_set_is_kept(tmp_path, name):
    env = dict(_without_blas_thread_counts(), **{name: "2"})
    done = _sim_in_a_child(env, tmp_path)
    assert done["code"] == 0 and done["changed"] == {}


@linux_only
def test_a_process_that_loaded_numpy_keeps_its_environment(tmp_path):
    done = _sim_in_a_child(_without_blas_thread_counts(), tmp_path, before="import numpy")
    assert done["code"] == 0 and done["changed"] == {}


@pytest.mark.parametrize(
    "argument", ["x\ny", "x\ry", "x\r\ny", "x\x0by", "x\x85y", "x\u2028y"]
)
def test_an_argument_with_a_line_break_gives_one_error_line(capsys, argument):
    assert main(["metrics", argument]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: unrecognized arguments: x")


# Each subcommand's actions in order: option strings, dest, default, choices.
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None)
_COMMON = [(("--config",), "config", None, None), (("--out",), "out", None, None)]
_MATRIX_OUT = [(("--config",), "config", None, None), (("--out",), "matrix_out", None, None)]
_ENVIRONMENT = [
    ((), "matrix", None, None),
    (("--seed",), "seed", None, None),
    (("--direction",), "direction", "cited", ("citing", "cited")),
    (("--min-contrib",), "min_contrib", 0.01, None),
]
_SIMILARITY = [*_ENVIRONMENT, (("--cosine-threshold",), "cosine_threshold", 0.2, None)]
_CENTRALITY = [*_SIMILARITY, (("--local-basis",), "local_basis", "sim", ("sim", "raw"))]
_TABLE_OR_JSON = (("--format",), "format", "table", ("table", "json"))
_ACTIONS = {
    "ingest": [
        ((), "edges", None, None),
        (("--year",), "year", None, None),
        (("--source",), "source", "sci", ("sci", "ssci")),
        (("--registry",), "registry", None, None),
        *_MATRIX_OUT,
    ],
    "merge": [
        ((), "matrix_a", None, None),
        ((), "matrix_b", None, None),
        (("--year",), "year", None, None),
        *_MATRIX_OUT,
    ],
    "env": [*_ENVIRONMENT, _TABLE_OR_JSON, *_COMMON],
    "sim": [*_SIMILARITY, *_COMMON],
    "centrality": [*_CENTRALITY, _TABLE_OR_JSON, *_COMMON],
    "metrics": [
        (("--matrix",), "matrix", None, None),
        (("--journal",), "journal", None, None),
        (("--if-inputs",), "if_inputs", None, None),
        (("--h-counts",), "h_counts", None, None),
        _TABLE_OR_JSON,
        *_COMMON,
    ],
    "export": [
        *_CENTRALITY, (("--format",), "format", "pajek", ("pajek", "dot", "json")), *_COMMON
    ],
    "report": [*_CENTRALITY, (("--if-csv",), "if_csv", None, None), _TABLE_OR_JSON, *_COMMON],
}


@pytest.mark.parametrize("command", _ACTIONS)
def test_each_subcommand_takes_its_flags_in_order(command):
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(subparsers.choices) == list(_ACTIONS)
    assert [
        (tuple(action.option_strings), action.dest, action.default, action.choices)
        for action in subparsers.choices[command]._actions
    ] == [_HELP, *_ACTIONS[command]]


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

    def test_registry_with_a_repeated_id(self, tmp_path, capsys):
        edges, registry = tmp_path / "edges.csv", tmp_path / "registry.csv"
        edges.write_text(EDGES, encoding="utf-8")
        registry.write_text("id,display_name,source_index\nA,First,SCI\nA,Second,SSCI\n",
                            encoding="utf-8")
        argv = ["ingest", str(edges), "--year", "2005", "--registry", str(registry)]
        assert main(argv + ["--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err == "error: line 3: repeats the id 'A'\n"

    def test_ingest_from_stdin_reads_utf8_whatever_the_locale(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_bytes((EDGES + "\u00c4J,S,4\nS,\u00c4J,1\n").encode("utf-8"))
        env = dict(os.environ, PYTHONPATH=str(Path(citenet.__file__).parents[1]),
                   PYTHONIOENCODING="latin-1")
        ingest = [sys.executable, "-m", "citenet.cli", "ingest", "--year", "2005"]
        for name, source in (("path", str(edges)), ("stdin", "-")):
            (tmp_path / name).mkdir()
            with open(edges, "rb") as stdin:
                subprocess.run(ingest + [source, "--out", str(tmp_path / name / "m.csv")],
                               env=env, stdin=stdin, capture_output=True, check=True)
        # The sidecar holds the CSV's sha256, and the cache is keyed on both.
        for suffix in ("", ".meta.json"):
            path, stdin = (tmp_path / side / f"m.csv{suffix}" for side in ("path", "stdin"))
            assert stdin.read_bytes() == path.read_bytes()
        assert "\u00c4J,S,4" in (tmp_path / "stdin" / "m.csv").read_text(encoding="utf-8")

    def test_ingest_reads_a_stdin_without_a_buffer_as_text(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(EDGES))
        out = tmp_path / "m.csv"
        assert main(["ingest", "-", "--year", "2005", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 4 journals, 7 cells\n"

    def test_closed_stdin_gives_one_error_line(self, tmp_path):
        out = tmp_path / "m.csv"
        done = _run_with_closed(0, ["ingest", "-", "--year", "2005", "--out", str(out)])
        assert done.returncode == 1
        assert done.stderr.decode("utf-8").splitlines() == ["error: ingest -: stdin is closed"]
        assert not out.exists()

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

    def test_sidecar_without_hash_is_rejected(self, matrix_path, capsys):
        meta = json.loads(_sidecar(matrix_path).read_text(encoding="utf-8"))
        del meta["csv_sha256"]
        _sidecar(matrix_path).write_text(json.dumps(meta), encoding="utf-8")
        assert 'no string "csv_sha256"' in self._env_error(matrix_path, capsys)

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

    def test_lone_surrogate_journal_id(self, matrix_path, capsys):
        meta = json.loads(_sidecar(matrix_path).read_text(encoding="utf-8"))
        meta["journals"].append({"id": "\ud800", "display_name": "x", "source_index": "SCI"})
        _sidecar(matrix_path).write_text(json.dumps(meta), encoding="utf-8")
        err = self._env_error(matrix_path, capsys)
        assert "journals entry 4: journal id '\\ud800' must not contain a lone surrogate" in err

    def test_deeply_nested_sidecar(self, matrix_path, capsys):
        _sidecar(matrix_path).write_text("[" * 100_000, encoding="utf-8")
        assert "not a JSON document" in self._env_error(matrix_path, capsys)


class TestEnvCommand:
    def test_table_output(self, matrix_path, capsys):
        assert main(["env", str(matrix_path), "--seed", "S"]) == 0
        out = capsys.readouterr().out
        assert "journal" in out
        assert "A" in out and "B" in out and "C" in out

    def test_columns_stay_aligned_when_a_value_is_wider_than_its_header(
        self, tmp_path, capsys
    ):
        edges, matrix = tmp_path / "edges.csv", tmp_path / "wide.csv"
        edges.write_text("A,S,250000\nB,S,30\nA,A,7\n", encoding="utf-8")
        assert main(["ingest", str(edges), "--year", "2005", "--out", str(matrix)]) == 0
        capsys.readouterr()
        assert main(["env", str(matrix), "--seed", "S"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()[1:]
        assert "250000" in "".join(rows)

        def column_ends(line):
            return [m.end() for m in re.finditer(r"\S+", line)][1:]

        assert all(column_ends(row) == column_ends(header) for row in rows)

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

    def test_each_call_writes_its_warning_to_its_own_stderr(self, matrix_path):
        # C is cited by no other member, so its cited profile is all-zero.
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["sim", str(matrix_path), "--seed", "S"]) == 0
            assert err.getvalue() == (
                "warning: member 'C' has an all-zero cited profile; kept as isolated node\n"
            )

    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path):
        edges, matrix, out = tmp_path / "edges.csv", tmp_path / "\u0100m.csv", tmp_path / "sim.csv"
        edges.write_bytes((EDGES + "\u0100J,S,40\nA,\u0100J,3\n").encode("utf-8"))
        env = dict(os.environ, PYTHONPATH=str(Path(citenet.__file__).parents[1]),
                   PYTHONIOENCODING="latin-1")
        cli = [sys.executable, "-m", "citenet.cli"]
        merged = tmp_path / "\u0100merged.csv"
        for argv, target in ((["ingest", str(edges), "--year", "2005"], matrix),
                             (["merge", str(matrix), str(matrix)], merged)):
            done = subprocess.run(cli + argv + ["--out", str(target)], env=env, capture_output=True)
            assert (done.returncode, done.stderr) == (0, b"")
            assert done.stdout == f"wrote {target}: 5 journals, 9 cells\n".encode("utf-8")
        sim = cli + ["sim", str(matrix), "--seed", "S", "--cosine-threshold", "0.0"]
        done = subprocess.run(sim, env=env, capture_output=True)
        subprocess.run(sim + ["--out", str(out)], env=env, capture_output=True, check=True)
        assert (done.returncode, done.stderr.count(b"error")) == (0, 0)
        assert done.stdout == out.read_bytes()
        assert "\u0100J" in done.stdout.decode("utf-8")

    def test_closed_stdout_gives_one_error_line(self, tmp_path, matrix_path):
        # The check comes before any work: no stage runs, no file is written.
        out = tmp_path / "y.csv"
        edges = tmp_path / "edges.csv"
        for argv in (["sim", str(matrix_path), "--seed", "S"],
                     ["ingest", str(edges), "--year", "2005", "--out", str(out)],
                     ["merge", str(matrix_path), str(matrix_path), "--out", str(out)]):
            done = _run_with_closed(1, argv)
            assert done.returncode == 1
            assert done.stderr.decode("utf-8").splitlines() == ["error: stdout is closed"]
            for name in ("y.csv", "y.csv.meta.json", "y.csv.csr.npz"):
                assert not (tmp_path / name).exists()


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

    def test_report_rejects_a_repeated_impact_factor_id(self, tmp_path, matrix_path, capsys):
        if_csv = tmp_path / "if.csv"
        if_csv.write_text("id,impact_factor\nA,1.5\nA,2.5\n", encoding="utf-8")
        code = main(["report", str(matrix_path), "--seed", "S", "--if-csv", str(if_csv)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {if_csv}:3: repeats the id 'A'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["env"],
        ["sim"],
        ["centrality", "--local-basis", "raw"],
        ["report"],
        ["report", "--format", "json"],
        ["report", "--local-basis", "raw", "--format", "json"],
        ["export"],
        ["export", "--format", "dot"],
        ["export", "--format", "json"],
    ],
    ids=" ".join,
)
def test_each_pipeline_run_builds_the_raw_link_graph_once(matrix_path, monkeypatch, capsys, argv):
    build = citenet.Graph.from_citation_matrix.__func__
    calls = []

    def counted(cls, m, nodes):
        calls.append(tuple(nodes))
        return build(cls, m, nodes)

    monkeypatch.setattr(citenet.Graph, "from_citation_matrix", classmethod(counted))
    assert main([argv[0], str(matrix_path), "--seed", "S", *argv[1:]]) == 0
    assert calls == [("S", "A", "B", "C")]


@pytest.mark.parametrize(
    ("argv", "builds"),
    [
        (["env"], 0),
        (["centrality", "--local-basis", "raw"], 0),
        (["centrality", "--local-basis", "raw", "--format", "json"], 0),
        (["report", "--local-basis", "raw"], 0),
        (["sim"], 1),
        (["centrality"], 1),
        (["report"], 1),
        (["report", "--format", "json"], 1),
        (["report", "--local-basis", "raw", "--format", "json"], 1),
        (["export"], 1),
        (["export", "--format", "dot"], 1),
        (["export", "--format", "json"], 1),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"{value} builds",
)
def test_a_run_builds_the_similarity_graph_only_where_it_reads_it(
    matrix_path, monkeypatch, capsys, argv, builds
):
    from citenet import similarity

    build, calls = similarity.similarity_graph, []

    def counted(env, threshold):
        calls.append(env.members)
        return build(env, threshold)

    monkeypatch.setattr(similarity, "similarity_graph", counted)
    assert main([argv[0], str(matrix_path), "--seed", "S", *argv[1:]]) == 0
    assert len(calls) == builds


def _ingested(tmp_path, capsys, cells: str) -> str:
    edges, matrix = tmp_path / "edges.csv", tmp_path / "m.csv"
    edges.write_text("citing,cited,count\n" + cells, encoding="utf-8")
    assert main(["ingest", str(edges), "--year", "2005", "--out", str(matrix)]) == 0
    capsys.readouterr()
    return str(matrix)


def _table_rows(out: str) -> list[str]:
    """The journal column of a table's rows, below its comments and header."""
    return [line.split()[0] for line in out.splitlines() if not line.startswith("#")][1:]


def test_a_one_member_environment_has_a_raw_basis_report(tmp_path, capsys):
    # Only A cites A, so A's cited environment is A alone.
    matrix = _ingested(tmp_path, capsys, "A,A,5\nB,C,3\nC,B,2\n")
    for command in ("centrality", "report"):
        assert main([command, matrix, "--seed", "A", "--local-basis", "raw"]) == 0
        out, err = capsys.readouterr()
        assert (_table_rows(out), err) == (["A"], "")
    for command in ("sim", "centrality"):
        assert main([command, matrix, "--seed", "A"]) == 1
        assert capsys.readouterr().err == "error: environment must have at least 2 members\n"


def test_only_a_run_that_builds_the_similarity_graph_warns_of_a_zero_profile(tmp_path, capsys):
    # No member cites C, so its cited profile is all-zero.
    matrix = _ingested(tmp_path, capsys, "A,B,3\nB,A,2\nA,A,1\nC,A,4\n")
    for command in ("centrality", "report"):
        assert main([command, matrix, "--seed", "A", "--local-basis", "raw"]) == 0
        out, err = capsys.readouterr()
        assert (sorted(_table_rows(out)), err) == (["A", "B", "C"], "")
    assert main(["report", matrix, "--seed", "A"]) == 0
    assert capsys.readouterr().err == (
        "warning: member 'C' has an all-zero cited profile; kept as isolated node\n"
    )


def _stage_calls(source: str) -> dict[str, list[str]]:
    """Each function of *source* that calls a pipeline stage: the stages it calls."""
    stages = {"_environment", "extract_environment", "similarity_graph", "build_report"}
    found: dict[str, list[str]] = {}
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in stages:
                    found.setdefault(function.name, []).append(node.func.id)
    return found


def test_the_stage_guard_sees_a_handler_that_runs_a_stage_itself():
    source = (
        "def _cmd_x(args):\n"
        "    env = _environment(args)\n"
        "    return build_report(similarity_graph(env, 0.2), env.matrix)\n"
    )
    assert _stage_calls(source) == {
        "_cmd_x": ["_environment", "build_report", "similarity_graph"]
    }


def test_each_library_stage_runs_from_its_own_helper_and_each_handler_loads_once():
    calls = _stage_calls(Path(citenet.cli.__file__).read_text(encoding="utf-8"))
    helpers = {
        "_environment": ["extract_environment"],
        "_similarity": ["similarity_graph"],
        "_report": ["build_report"],
    }
    handlers = ["_cmd_centrality", "_cmd_env", "_cmd_export", "_cmd_report", "_cmd_sim"]
    assert calls == {**helpers, **{name: ["_environment"] for name in handlers}}


def test_the_raw_basis_report_reads_the_environments_links(matrix_path, monkeypatch):
    from citenet import centrality, cli

    build_report, local = centrality.build_report, []

    def recorded(graph, *args, **kwargs):
        local.append(graph)
        return build_report(graph, *args, **kwargs)

    monkeypatch.setattr(centrality, "build_report", recorded)
    args = build_parser().parse_args(
        ["report", str(matrix_path), "--seed", "S", "--local-basis", "raw"]
    )
    env = cli._environment(args)
    cli._report(args, env)
    assert len(local) == 1 and local[0] is env.links


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

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["--if-inputs", "30,30,50,50"], 0, "impact_factor = 0.6\n", ""),
            (["--if-inputs", "1,2,3"], 1, "",
             "error: --if-inputs expects cites_t1,cites_t2,citable_t1,citable_t2"
             "[,self_t1,self_t2]\n"),
            (["--h-counts", "1,x"], 1, "",
             "error: --h-counts expects comma-separated integers, got '1,x'\n"),
            (["--matrix", "m.csv"], 1, "",
             "error: --matrix and --journal must be given together\n"),
            (["--if-inputs", "9" * 400 + ",1,1,1"], 1, "",
             "error: impact factor overflows the float range\n"),
        ],
    )
    def test_inputs_and_their_errors(self, capsys, argv, code, out, err):
        assert main(["metrics", *argv]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

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

    @pytest.mark.parametrize(
        "key, value, other",
        [
            ("seed", "A", "S"),
            ("direction", "citing", "cited"),
            ("min_contrib", 0.25, "0.01"),
            ("cosine_threshold", 0.05, "0.2"),
            ("format", "json", "table"),
            ("local_basis", "raw", "sim"),
        ],
    )
    def test_config_key_gives_the_bytes_of_its_flag(
        self, tmp_path, matrix_path, capsys, key, value, other
    ):
        def run(*argv):
            code = main(["report", str(matrix_path), *argv])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "S", key: value}), encoding="utf-8")
        flag = "--" + key.replace("_", "-")
        seed = [] if key == "seed" else ["--seed", "S"]
        by_flag = run(*seed, flag, str(value))
        assert by_flag[0] == 0
        assert run("--config", str(config)) == by_flag
        # An explicit flag beats the preset, before or after --config.
        by_other = run(*seed, flag, other)
        assert by_other[0] == 0 and by_other != by_flag
        assert run("--config", str(config), flag, other) == by_other
        assert run(flag, other, "--config", str(config)) == by_other

    def test_unknown_config_key_rejected(self, tmp_path, matrix_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sede": "S"}), encoding="utf-8")
        assert main(["env", str(matrix_path), "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['sede']\n"

    @pytest.mark.parametrize(
        "config, message",
        [
            (["seed"], "must be a JSON object"),
            ({"seed": "S", "min_contrib": None}, "'min_contrib' must be a number"),
            ({"seed": "S", "cosine_threshold": True}, "'cosine_threshold' must be a number"),
            ({"seed": ["S"]}, "'seed' must be a string"),
            ({"seed": "S", "data_dir": 5}, "'data_dir' must be a string"),
            ({"seed": "S", "min_contrib": 10**400}, "'min_contrib' is too large"),
            ({"seed": "S", "format": 5}, "'format' must be a string"),
            ({"seed": "S", "local_basis": ["raw"]}, "'local_basis' must be a string"),
            ({"seed": "S", "direction": None}, "'direction' must be a string"),
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

    def test_config_data_dir_resolves_bare_paths(self, tmp_path, matrix_path, monkeypatch,
                                                 capsys):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        monkeypatch.delenv("CITENET_DATA_DIR", raising=False)
        config = elsewhere / "config.json"
        config.write_text(json.dumps({"seed": "S", "data_dir": str(matrix_path.parent)}),
                          encoding="utf-8")
        assert main(["env", matrix_path.name, "--config", str(config),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == "S"

    @pytest.mark.parametrize("env_value, members", [("", ["S", "A"]), ("env", ["S", "B"])])
    def test_a_non_empty_data_dir_variable_wins_over_config(
        self, tmp_path, monkeypatch, capsys, env_value, members
    ):
        # Two data directories hold a matrix of the same name; S's top citer differs.
        for name, citer in (("config", "A"), ("env", "B")):
            (tmp_path / name).mkdir()
            edges = tmp_path / name / "edges.csv"
            edges.write_text(f"{citer},S,10\n", encoding="utf-8")
            assert main(["ingest", str(edges), "--year", "2005",
                         "--out", str(tmp_path / name / "m.csv")]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CITENET_DATA_DIR", env_value and str(tmp_path / env_value))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": "S", "data_dir": str(tmp_path / "config")}),
                          encoding="utf-8")
        assert main(["env", "m.csv", "--config", str(config), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [m["journal"] for m in document["members"]] == members

    @pytest.mark.parametrize("command", ["env", "sim", "centrality", "export", "report"])
    def test_config_direction_outside_the_choices(
        self, tmp_path, matrix_path, monkeypatch, capsys, command
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": "S", "direction": "sideways"}), encoding="utf-8")
        monkeypatch.setattr("citenet.matrix.read_matrix", _no_load)
        assert main([command, str(matrix_path), "--config", str(path)]) == 1
        assert _error_line(capsys.readouterr().err) == (
            "error: argument --direction: invalid choice: 'sideways'"
        )

    @pytest.mark.parametrize("data_dir", [None, "empty"])
    def test_missing_matrix_file_is_named(self, tmp_path, monkeypatch, capsys, data_dir):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CITENET_DATA_DIR", raising=False)
        if data_dir is not None:
            (tmp_path / data_dir).mkdir()
            monkeypatch.setenv("CITENET_DATA_DIR", str(tmp_path / data_dir))
        assert main(["env", "missing.csv", "--seed", "S"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory: 'missing.csv'" in err and "sidecar" not in err

    @pytest.mark.parametrize(
        "command, config",
        [("sim", {"seed": "S", "format": "xml"}), ("env", {"seed": "S", "local_basis": "bogus"})],
    )
    def test_config_key_the_command_does_not_take_is_ignored(
        self, tmp_path, matrix_path, capsys, command, config
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([command, str(matrix_path), "--config", str(path)]) == 0
        assert "error" not in capsys.readouterr().err


def _no_load(*args, **kwargs):
    raise AssertionError("input loaded before the arguments were checked")


def _error_line(err: str) -> str:
    """*err*'s one line, less argparse's list of choices, whose quoting varies by Python version."""
    assert err.endswith("\n") and err.count("\n") == 1, err
    return re.sub(r" \(choose from .*\)$", "", err[:-1])


class TestBadArgumentsRejectedBeforeLoading:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ingest", "{edges}", "--year", "2005"], "ingest requires --out for the persisted matrix"),
            (["merge", "{matrix}", "{matrix}"], "merge requires --out for the persisted matrix"),
            pytest.param(["env", "{matrix}", "--config", "{config}"],
                         "argument --format: invalid choice: 'csv'",
                         id="argv2-env format from config"),
            pytest.param(["centrality", "{matrix}", "--config", "{config}"],
                         "argument --format: invalid choice: 'csv'",
                         id="argv3-centrality format from config"),
            pytest.param(["export", "{matrix}", "--config", "{config}"],
                         "argument --format: invalid choice: 'csv'",
                         id="argv4-export format from config"),
            pytest.param(["report", "{matrix}", "--config", "{config}"],
                         "argument --format: invalid choice: 'csv'",
                         id="argv5-report format from config"),
            pytest.param(["metrics", "--matrix", "{matrix}", "--journal", "S",
                          "--config", "{config}"],
                         "argument --format: invalid choice: 'csv'",
                         id="argv6-metrics format from config"),
            pytest.param(["export", "{matrix}", "--format", "dot", "--config", "{basis_config}"],
                         "argument --local-basis: invalid choice: 'both'",
                         id="argv7---local-basis from config"),
            pytest.param(["env", "{matrix}", "--seed", "S", "--min-contrib", "1"],
                         "argument --min-contrib: must be in (0, 1), got 1.0",
                         id="argv8---min-contrib 1"),
            pytest.param(["report", "{matrix}", "--seed", "S", "--min-contrib", "0"],
                         "argument --min-contrib: must be in (0, 1), got 0.0",
                         id="argv9---min-contrib 0"),
            pytest.param(["sim", "{matrix}", "--seed", "S", "--min-contrib", "nan"],
                         "argument --min-contrib: must be in (0, 1), got nan",
                         id="argv10---min-contrib nan"),
            pytest.param(["sim", "{matrix}", "--seed", "S", "--cosine-threshold", "1"],
                         "argument --cosine-threshold: must be in [0, 1), got 1.0",
                         id="argv11---cosine-threshold 1"),
            pytest.param(["export", "{matrix}", "--seed", "S", "--cosine-threshold", "-0.5"],
                         "argument --cosine-threshold: must be in [0, 1), got -0.5",
                         id="argv12---cosine-threshold -0.5"),
            pytest.param(["centrality", "{matrix}", "--seed", "S", "--cosine-threshold", "nan"],
                         "argument --cosine-threshold: must be in [0, 1), got nan",
                         id="argv13---cosine-threshold nan"),
            pytest.param(["env", "{matrix}", "--config", "{range_config}"],
                         "argument --min-contrib: must be in (0, 1), got 1.0",
                         id="argv14---min-contrib from config"),
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
        range_config = tmp_path / "range.json"
        range_config.write_text(json.dumps({"seed": "S", "min_contrib": 1}), encoding="utf-8")
        paths = {"edges": edges, "matrix": matrix_path, "config": config,
                 "basis_config": basis_config, "range_config": range_config}
        monkeypatch.setattr("citenet.matrix.read_matrix", _no_load)
        monkeypatch.setattr("citenet.matrix.parse_citation_csv", _no_load)
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert _error_line(capsys.readouterr().err) == f"error: {message}"

    @pytest.mark.parametrize("content", [None, "id,impact_factor\nS,nan\n"])
    def test_impact_factor_file_read_before_the_matrix(
        self, tmp_path, matrix_path, monkeypatch, capsys, content
    ):
        if_csv = tmp_path / "if.csv"
        if content is not None:
            if_csv.write_text(content, encoding="utf-8")
        monkeypatch.setattr("citenet.matrix.read_matrix", _no_load)
        argv = ["report", str(matrix_path), "--seed", "S", "--if-csv", str(if_csv)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(if_csv) in err
