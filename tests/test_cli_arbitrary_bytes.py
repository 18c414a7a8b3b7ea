"""Arbitrary bytes in any input file never give the CLI a traceback.

Each input a user hands the CLI (an edge list, a registry, a persisted CSV,
its sidecar, an impact-factor CSV, a config file) is replaced by arbitrary
bytes, near-valid text or arbitrary JSON, and so is the argument list.  The
call must either succeed or exit 1 with exactly one ``error:`` line and no
other line but warnings.
Arbitrary bytes in the ``.csr.npz`` cache must not change the call's output
at all.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from citenet.cli import main

EDGES = "citing,cited,count\nA,S,50\nB,S,30\nC,S,20\nA,B,5\nB,A,5\nS,A,2\nA,A,9\n"
REGISTRY = "id,display_name,source_index\nA,Journal A,SCI\nS,Seed,SSCI\n"

# Text close to the formats, so that examples get past the first check.
ALPHABET = "ABS,;0123456789-+.e_ \t\r\n\"'\\\x00﻿é٣²{}[]:"


def _near(text: str):
    """Arbitrary bytes, format-like text, or *text* with a piece replaced."""
    formatish = st.text(ALPHABET, max_size=80)
    spliced = st.tuples(
        st.integers(0, len(text)), st.integers(0, 20), st.text(ALPHABET, max_size=10)
    ).map(lambda t: text[: t[0]] + t[2] + text[t[0] + t[1]:])
    encodings = st.sampled_from(["utf-8", "utf-16", "latin-1"])
    as_bytes = st.tuples(st.one_of(formatish, spliced), encodings).map(
        lambda t: t[0].encode(t[1], errors="replace")
    )
    return st.one_of(st.binary(max_size=200), as_bytes)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _check_contract(code: int, err: str) -> None:
    # A failure's stderr, its warnings aside, is exactly one error line.
    lines = [line for line in err.splitlines() if not line.startswith("warning:")]
    assert "Traceback" not in err
    if code == 0:
        assert not any(line.startswith("error:") for line in lines)
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:"), err


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _put(path: Path, data: bytes) -> None:
    """Write *data* as a new file (truncating one in place can cost a flush)."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def _ingested(directory: Path) -> Path:
    edges = directory / "edges.csv"
    edges.write_text(EDGES, encoding="utf-8")
    matrix = directory / "m.csv"
    assert _run(["ingest", edges, "--year", "2005", "--out", matrix])[0] == 0
    return matrix


def _reader_calls(matrix: Path):
    """One call of every subcommand that loads a persisted matrix."""
    base = [matrix, "--seed", "S"]
    out = matrix.with_name("out.txt")
    return st.sampled_from(
        [
            ["env", *base],
            ["sim", *base],
            ["centrality", *base, "--format", "json"],
            ["report", *base],
            ["export", *base, "--format", "dot", "--out", out],
            ["metrics", "--matrix", matrix, "--journal", "S"],
            ["merge", matrix, matrix, "--out", matrix.with_name("merged.csv")],
        ]
    )


@given(data=_near(EDGES))
@settings(max_examples=150, deadline=None)
def test_ingest_edge_list(data):
    with tempfile.TemporaryDirectory() as directory:
        edges = Path(directory) / "edges.csv"
        edges.write_bytes(data)
        argv = ["ingest", edges, "--year", "2005", "--out", Path(directory) / "m.csv"]
        code, _, err = _run(argv)
        _check_contract(code, err)


@given(data=_near(REGISTRY))
@settings(max_examples=150, deadline=None)
def test_ingest_registry(data):
    with tempfile.TemporaryDirectory() as directory:
        edges, registry = Path(directory) / "edges.csv", Path(directory) / "registry.csv"
        edges.write_text(EDGES, encoding="utf-8")
        registry.write_bytes(data)
        argv = ["ingest", edges, "--year", "2005", "--registry", registry]
        code, _, err = _run(argv + ["--out", Path(directory) / "m.csv"])
        _check_contract(code, err)


@given(data=_near(EDGES), keep_hash=st.booleans(), pick=st.data())
@settings(max_examples=150, deadline=None)
def test_persisted_csv(data, keep_hash, pick):
    with tempfile.TemporaryDirectory() as directory:
        matrix = _ingested(Path(directory))
        written = matrix.read_bytes()
        _put(matrix, data)
        if not keep_hash:
            # A sidecar that records the new bytes' hash: the bytes are parsed.
            meta = json.loads(_sidecar(matrix).read_text(encoding="utf-8"))
            meta["csv_sha256"] = hashlib.sha256(data).hexdigest()
            _put(_sidecar(matrix), json.dumps(meta).encode("utf-8"))
        code, _, err = _run(pick.draw(_reader_calls(matrix)))
        _check_contract(code, err)
        if keep_hash and data != written:
            assert code == 1 and "does not belong" in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(ALPHABET, max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "display_name", "source_index", "x"]), children),
    max_leaves=8,
)


@given(
    data=st.one_of(
        _near('{"year": 2005, "journals": []}'),
        st.tuples(st.sampled_from(["year", "journals", "csv_sha256", "format"]), JSON_VALUES),
    ),
    pick=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_sidecar(data, pick):
    with tempfile.TemporaryDirectory() as directory:
        matrix = _ingested(Path(directory))
        if isinstance(data, tuple):
            # One field of the real sidecar replaced by an arbitrary JSON value.
            key, value = data
            meta = json.loads(_sidecar(matrix).read_text(encoding="utf-8"))
            meta[key] = value
            data = json.dumps(meta).encode("utf-8")
        _put(_sidecar(matrix), data)
        code, _, err = _run(pick.draw(_reader_calls(matrix)))
        _check_contract(code, err)


CONFIG_KEYS = ["seed", "direction", "min_contrib", "cosine_threshold", "format",
               "local_basis", "data_dir"]
CONFIG_WORDS = st.sampled_from(
    ["S", "A", "cited", "citing", "table", "json", "sim", "raw", ".", 0.05, 10**400]
)


@given(
    config=st.one_of(
        JSON_VALUES,
        st.dictionaries(
            st.sampled_from(CONFIG_KEYS + ["x"]), st.one_of(CONFIG_WORDS, JSON_VALUES)
        ),
    ),
    pick=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_config_file(config, pick):
    with tempfile.TemporaryDirectory() as directory:
        matrix = _ingested(Path(directory))
        path = Path(directory) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        # No --seed, so the config's seed is used; a missing matrix path makes
        # the call resolve it against the config's data_dir.
        argv = pick.draw(
            st.sampled_from(
                [
                    ["env", matrix],
                    ["env", "missing.csv"],
                    ["sim", matrix],
                    ["centrality", matrix],
                    ["report", matrix],
                    ["export", matrix, "--out", Path(directory) / "out.txt"],
                    ["metrics", "--matrix", matrix, "--journal", "S"],
                ]
            )
        )
        code, _, err = _run([*argv, "--config", path])
        _check_contract(code, err)


SUBCOMMANDS = ["ingest", "merge", "env", "sim", "centrality", "metrics", "export", "report"]
FLAGS = ["--year", "--source", "--registry", "--out", "--config", "--seed", "--direction",
         "--min-contrib", "--cosine-threshold", "--local-basis", "--format", "--if-csv",
         "--matrix", "--journal", "--if-inputs", "--h-counts"]
# ALPHABET holds neither "h" nor "v", so no token below can name or
# abbreviate -h, --help or --version: those exit 0 through argparse.
JUNK = st.text(ALPHABET + "=", max_size=8)
TOKENS = st.one_of(
    st.sampled_from(
        SUBCOMMANDS + FLAGS + ["-", "--", "sci", "cited", "raw", "json", "2005", "0.2", "1,2"]
    ),
    st.tuples(st.sampled_from(FLAGS), JUNK).map("=".join),
    JUNK,
)


@given(argv=st.tuples(st.sampled_from(SUBCOMMANDS) | TOKENS, st.lists(TOKENS, max_size=8)))
@settings(max_examples=300, deadline=None)
def test_argument_list(argv):
    # In a directory with no matrix, and with an empty stdin for `ingest -`,
    # no call can start a long computation.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            with mock.patch("sys.stdin", io.StringIO()):
                code, _, err = _run([argv[0], *argv[1]])
        finally:
            os.chdir(cwd)
    _check_contract(code, err)


@given(data=_near("id,impact_factor\nA,1.5\nS,2.25\n"))
@settings(max_examples=150, deadline=None)
def test_impact_factor_csv(data):
    with tempfile.TemporaryDirectory() as directory:
        matrix = _ingested(Path(directory))
        impact = Path(directory) / "impact.csv"
        impact.write_bytes(data)
        code, _, err = _run(["report", matrix, "--seed", "S", "--if-csv", impact])
        _check_contract(code, err)


def _outputs(directory: Path) -> dict[str, bytes]:
    """The CLI's output files (their caches aside), removed once read."""
    found = {}
    for name in ("out.txt", "merged.csv", "merged.csv.meta.json"):
        path = directory / name
        if path.exists():
            found[name] = path.read_bytes()
            path.unlink()
    (directory / "merged.csv.csr.npz").unlink(missing_ok=True)
    return found


@given(
    damage=st.one_of(
        st.binary(max_size=400).map(lambda data: lambda valid: data),
        st.tuples(st.integers(0, 2000), st.integers(0, 64), st.binary(max_size=64)).map(
            lambda t: lambda valid: valid[: t[0]] + t[2] + valid[t[0] + t[1]:]
        ),
    ),
    pick=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_cache_bytes_never_change_the_output(damage, pick):
    with tempfile.TemporaryDirectory() as directory:
        matrix = _ingested(Path(directory))
        cache = matrix.with_name(matrix.name + ".csr.npz")
        valid = cache.read_bytes()
        argv = pick.draw(_reader_calls(matrix))
        cache.unlink()
        expected = _run(argv), _outputs(Path(directory))
        _put(cache, damage(valid))
        got = _run(argv), _outputs(Path(directory))
        assert expected[0][0] == 0
        assert got == expected
