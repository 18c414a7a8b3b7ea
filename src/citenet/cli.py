"""Command-line interface: a thin shell over the library modules.

Subcommands mirror the pipeline stages: ``ingest`` and ``merge`` build
matrices, ``env`` extracts a seed environment, ``sim`` emits the cosine edge
list, ``centrality`` and ``report`` compute and render centrality tables,
``metrics`` evaluates bibliometric indicators, and ``export`` writes Pajek,
DOT, or JSON files.

A JSON config file (``--config``) may preset the common flags; explicit
flags win.  The ``CITENET_DATA_DIR`` environment variable (or the config key
``data_dir``) names a directory against which bare input paths are resolved.
Unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
is set, :func:`main` sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .errors import CitenetError

DATA_DIR_ENV = "CITENET_DATA_DIR"

DEFAULT_MIN_CONTRIB = 0.01
DEFAULT_COSINE_THRESHOLD = 0.2
DEFAULT_DIRECTION = "cited"

_CONFIG_STRINGS = ("seed", "direction", "format", "local_basis", "data_dir")
_CONFIG_NUMBERS = ("min_contrib", "cosine_threshold")

# The variables OpenBLAS reads for its thread count.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Each character str.splitlines breaks on, as its escape, so an error is one line.
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``error:`` line, as every failure's is."""

    def error(self, message: str):
        raise CitenetError(message)


def _apply_config(
    parser: argparse.ArgumentParser, argv: list[str], args: argparse.Namespace
) -> argparse.Namespace:
    """Parse *argv* again with the config's presets as flags before the given ones.

    Explicit flags come later and so win.  Config keys for flags the command
    does not take are ignored; ``data_dir`` is kept as ``args.data_dir`` for
    :func:`_resolve`.
    """
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise CitenetError(f"{args.config}: not a JSON document ({exc})") from None
        if not isinstance(config, dict):
            raise CitenetError(f"{args.config}: config must be a JSON object")
        unknown = set(config) - {*_CONFIG_STRINGS, *_CONFIG_NUMBERS}
        if unknown:
            raise CitenetError(f"unknown config keys: {sorted(unknown)}")
        for key, value in config.items():
            if key in _CONFIG_STRINGS:
                if not isinstance(value, str):
                    raise CitenetError(f"config key {key!r} must be a string")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CitenetError(f"config key {key!r} must be a number")
            elif isinstance(value, int) and abs(value) > sys.float_info.max:
                raise CitenetError(f"config key {key!r} is too large for a float")
            else:
                config[key] = float(value)
        presets = [
            f"--{key.replace('_', '-')}={value}"
            for key, value in config.items()
            if key != "data_dir" and hasattr(args, key)
        ]
        at = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:at], *presets, *argv[at:]])
    args.data_dir = config.get("data_dir")
    return args


def _resolve(args: argparse.Namespace, path: str) -> Path:
    """*path* as given, or under the data directory when only it has the file."""
    candidate = Path(path)
    if candidate.exists() or candidate.is_absolute():
        return candidate
    data_dir = os.environ.get(DATA_DIR_ENV) or args.data_dir
    if data_dir is not None and (Path(data_dir) / candidate).exists():
        return Path(data_dir) / candidate
    return candidate


def _add_common(
    parser: argparse.ArgumentParser, dest: str = "out", help: str = "output path (default: stdout)"
) -> None:
    parser.add_argument("--config", help="JSON file presetting flags")
    parser.add_argument("--out", dest=dest, metavar="OUT", help=help)


def _unit_fraction(closed_at_zero: bool):
    """A flag type: a float in [0, 1) if *closed_at_zero*, else in (0, 1); never NaN."""
    interval = "[0, 1)" if closed_at_zero else "(0, 1)"

    def parse(text: str) -> float:
        value = float(text)
        if not (0.0 <= value < 1.0 and (closed_at_zero or value > 0.0)):
            raise argparse.ArgumentTypeError(f"must be in {interval}, got {value}")
        return value

    parse.__name__ = "float"  # argparse's "invalid float value: ..." names the type
    return parse


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    elif hasattr(sys.stdout, "buffer"):
        # UTF-8, as --out writes, whatever the locale says.
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _environment(args: argparse.Namespace):
    from .environment import extract_environment
    from .matrix import read_matrix

    if not args.seed:
        raise CitenetError("--seed is required (flag or config)")
    matrix = read_matrix(_resolve(args, args.matrix))
    return extract_environment(matrix, args.seed, args.direction, args.min_contrib)


def _similarity(args: argparse.Namespace, env):
    from .similarity import similarity_graph

    graph = similarity_graph(env, args.cosine_threshold)
    for message in graph.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return graph


def _report(args: argparse.Namespace, env, graph=None):
    from .centrality import build_report

    if args.local_basis == "raw":
        local = env.links
        local_basis = f"raw citation links among members (seed {env.seed})"
    else:
        local = _similarity(args, env) if graph is None else graph
        local_basis = (
            f"similarity graph ({env.direction.value}, cosine > {local.threshold}, "
            f"seed {env.seed})"
        )
    return build_report(local, env.matrix, local_basis=local_basis)


def _cmd_ingest(args: argparse.Namespace) -> str:
    from .ingest import parse_citation_csv, read_registry, write_matrix
    from .matrix import SourceIndex

    if not args.matrix_out:
        raise CitenetError("ingest requires --out for the persisted matrix")
    registry = None
    if args.registry:
        with open(_resolve(args, args.registry), encoding="utf-8") as fh:
            registry = read_registry(fh)
    source = SourceIndex(args.source.upper())
    if args.edges != "-":
        with open(_resolve(args, args.edges), encoding="utf-8") as fh:
            matrix = parse_citation_csv(fh, args.year, source=source, registry=registry)
    elif sys.stdin is None:
        raise CitenetError("ingest -: stdin is closed")
    elif hasattr(sys.stdin, "buffer"):
        # Its bytes are UTF-8, as a path's are, whatever the locale says.
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        try:
            matrix = parse_citation_csv(stdin, args.year, source=source, registry=registry)
        finally:
            stdin.detach()
    else:
        matrix = parse_citation_csv(sys.stdin, args.year, source=source, registry=registry)
    cells = write_matrix(matrix, args.matrix_out)
    return f"wrote {args.matrix_out}: {len(matrix)} journals, {cells} cells\n"


def _cmd_merge(args: argparse.Namespace) -> str:
    from .ingest import merge_indices, write_matrix
    from .matrix import read_matrix

    if not args.matrix_out:
        raise CitenetError("merge requires --out for the persisted matrix")
    a = read_matrix(_resolve(args, args.matrix_a))
    b = read_matrix(_resolve(args, args.matrix_b))
    merged = merge_indices(a, b)
    cells = write_matrix(merged, args.matrix_out)
    return f"wrote {args.matrix_out}: {len(merged)} journals, {cells} cells\n"


def _cmd_env(args: argparse.Namespace) -> str:
    from .export import aligned_table, json_text

    env = _environment(args)
    rows = [(m, env.contributions[m], *t) for m, t in env.totals.items()]
    if args.format == "json":
        document = {
            "seed": env.seed,
            "direction": env.direction.value,
            "threshold": env.threshold,
            "members": [
                {"journal": m, "contribution": c, "gross": g, "net_of_self": n}
                for m, c, g, n in rows
            ],
        }
        return json_text(document)
    comments = [f"# seed {env.seed}, {env.direction.value}, threshold {env.threshold}"]
    header = ("journal", "contribution_%", "gross", "net_of_self")
    cells = ((m, f"{c * 100:.2f}", str(g), str(n)) for m, c, g, n in rows)
    return aligned_table(comments, header, cells)


def _cmd_sim(args: argparse.Namespace) -> str:
    graph = _similarity(args, _environment(args))
    lines = ["source,target,weight"]
    lines.extend(f"{u},{v},{weight!r}" for (u, v), weight in graph.edges.items())
    return "\n".join(lines) + "\n"


def _cmd_centrality(args: argparse.Namespace) -> str:
    from .export import _basis_comments, aligned_table, json_text, report_document

    report = _report(args, _environment(args))
    if args.format == "json":
        return json_text(report_document(report))
    header = (
        "journal", "deg_local", "deg_in", "deg_out", "closeness", "betweenness_%", "eigenvector"
    )
    cells = (
        (row.journal, str(row.degree_local), str(row.degree_in), str(row.degree_out),
         f"{row.closeness:.4f}", f"{row.betweenness * 100:.2f}", f"{row.eigenvector:.4f}")
        for row in report
    )
    return aligned_table(_basis_comments(report), header, cells)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CitenetError(
            f"{flag} expects comma-separated integers, got {text!r}"
        ) from None


def _cmd_metrics(args: argparse.Namespace) -> str:
    from .metrics import h_index, impact_factor, quasi_impact_factor, self_citation_rate

    results: dict[str, float | int] = {}
    if args.if_inputs:
        values = _parse_int_list(args.if_inputs, "--if-inputs")
        if len(values) == 4:
            results["impact_factor"] = impact_factor(*values)
        elif len(values) == 6:
            results["impact_factor"] = impact_factor(*values[:4])
            results["quasi_impact_factor"] = quasi_impact_factor(*values)
        else:
            raise CitenetError(
                "--if-inputs expects cites_t1,cites_t2,citable_t1,citable_t2"
                "[,self_t1,self_t2]"
            )
    if args.h_counts:
        results["h_index"] = h_index(_parse_int_list(args.h_counts, "--h-counts"))
    if args.matrix and args.journal:
        from .matrix import read_matrix

        matrix = read_matrix(_resolve(args, args.matrix))
        results["self_citation_rate"] = self_citation_rate(matrix, args.journal)
    elif args.matrix or args.journal:
        raise CitenetError("--matrix and --journal must be given together")
    if not results:
        raise CitenetError(
            "nothing to compute: pass --if-inputs, --h-counts, or --matrix/--journal"
        )
    if args.format == "json":
        # Not export.json_text: importing citenet.export would import numpy.
        return json.dumps(results, indent=2) + "\n"
    return "".join(f"{name} = {value}\n" for name, value in results.items())


def _cmd_export(args: argparse.Namespace) -> str:
    from .export import export_dot, export_json, export_pajek

    env = _environment(args)
    graph = _similarity(args, env)
    if args.format == "json":
        return export_json(graph, _report(args, env, graph))
    # Pajek and DOT print no centralities, so none are computed.
    exporter = export_pajek if args.format == "pajek" else export_dot
    return exporter(graph)


def _load_if_csv(path: Path) -> dict[str, float]:
    values: dict[str, float] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line_no == 1 and line.lower() == "id,impact_factor":
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise CitenetError(f"{path}:{line_no}: expected id,impact_factor")
            journal_id = fields[0].strip()
            if journal_id in values:
                raise CitenetError(f"{path}:{line_no}: repeats the id {journal_id!r}")
            try:
                value = float(fields[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CitenetError(
                    f"{path}:{line_no}: impact factor {fields[1].strip()!r} "
                    "is not a finite number"
                )
            values[journal_id] = value
    return values


def _cmd_report(args: argparse.Namespace) -> str:
    from .export import graph_document, json_text, report_table

    impact_factors = _load_if_csv(_resolve(args, args.if_csv)) if args.if_csv else {}
    env = _environment(args)
    if args.format == "json":
        graph = _similarity(args, env)
        document = graph_document(graph, _report(args, env, graph))
        if impact_factors:
            document["impact_factors"] = impact_factors
        return json_text(document)
    return report_table(_report(args, env), impact_factors)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citenet",
        description="Journal citation network toolkit",
    )
    parser.add_argument("--version", action="version", version=f"citenet {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_ingest = subparsers.add_parser("ingest", help="parse an edge-list CSV and persist it")
    p_ingest.add_argument("edges", help="edge-list CSV path, or - for stdin")
    p_ingest.add_argument("--year", type=int, required=True)
    p_ingest.add_argument("--source", choices=("sci", "ssci"), default="sci")
    p_ingest.add_argument("--registry", help="journal registry CSV")
    _add_common(p_ingest, "matrix_out", "path of the persisted matrix (required)")
    p_ingest.set_defaults(handler=_cmd_ingest)

    p_merge = subparsers.add_parser(
        "merge", help="merge two same-year matrices persisted by ingest or merge"
    )
    p_merge.add_argument("matrix_a")
    p_merge.add_argument("matrix_b")
    _add_common(p_merge, "matrix_out", "path of the persisted matrix (required)")
    p_merge.set_defaults(handler=_cmd_merge)

    # Chained as _environment -> _similarity -> _report, so a subcommand takes the
    # flags of every stage it may run, each stage's after those of the one before.
    environment = argparse.ArgumentParser(add_help=False)
    environment.add_argument(
        "matrix", help="persisted citation matrix (CSV + sidecar, with its .csr.npz cache)"
    )
    environment.add_argument("--seed", help="seed journal id")
    environment.add_argument(
        "--direction",
        choices=("citing", "cited"),
        default=DEFAULT_DIRECTION,
        help=f"environment direction (default: {DEFAULT_DIRECTION})",
    )
    environment.add_argument(
        "--min-contrib",
        type=_unit_fraction(closed_at_zero=False),
        default=DEFAULT_MIN_CONTRIB,
        help=f"contribution threshold fraction (default: {DEFAULT_MIN_CONTRIB})",
    )
    similarity = argparse.ArgumentParser(add_help=False, parents=[environment])
    similarity.add_argument(
        "--cosine-threshold",
        type=_unit_fraction(closed_at_zero=True),
        default=DEFAULT_COSINE_THRESHOLD,
        help=f"similarity edge threshold (default: {DEFAULT_COSINE_THRESHOLD})",
    )
    centrality = argparse.ArgumentParser(add_help=False, parents=[similarity])
    centrality.add_argument(
        "--local-basis",
        choices=("sim", "raw"),
        default="sim",
        help="graph for local centralities: thresholded similarity graph (sim)"
        " or raw citation links among members (raw); default sim",
    )

    p_env = subparsers.add_parser("env", parents=[environment], help="extract a seed environment")
    p_env.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p_env)
    p_env.set_defaults(handler=_cmd_env)

    p_sim = subparsers.add_parser(
        "sim", parents=[similarity], help="emit the cosine similarity edge list"
    )
    _add_common(p_sim)
    p_sim.set_defaults(handler=_cmd_sim)

    p_centrality = subparsers.add_parser(
        "centrality", parents=[centrality], help="centrality report"
    )
    p_centrality.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p_centrality)
    p_centrality.set_defaults(handler=_cmd_centrality)

    p_metrics = subparsers.add_parser("metrics", help="bibliometric indicators")
    p_metrics.add_argument("--matrix", help="persisted matrix for self-citation rate")
    p_metrics.add_argument("--journal", help="journal id for self-citation rate")
    p_metrics.add_argument(
        "--if-inputs", help="cites_t1,cites_t2,citable_t1,citable_t2[,self_t1,self_t2]"
    )
    p_metrics.add_argument("--h-counts", help="comma-separated counts")
    p_metrics.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p_metrics)
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_export = subparsers.add_parser(
        "export", parents=[centrality], help="write Pajek, DOT, or JSON"
    )
    p_export.add_argument("--format", choices=("pajek", "dot", "json"), default="pajek")
    _add_common(p_export)
    p_export.set_defaults(handler=_cmd_export)

    p_report = subparsers.add_parser(
        "report", parents=[centrality], help="tabular centrality report"
    )
    p_report.add_argument("--if-csv", help="CSV of id,impact_factor")
    p_report.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p_report)
    p_report.set_defaults(handler=_cmd_report)

    return parser


def _one_blas_thread() -> None:
    """Run BLAS on one thread, unless the user set a thread count.

    Only the eigenvector norms use BLAS.  OpenBLAS reads the count when numpy
    loads, so a process that has already loaded numpy is left as it is.
    Keep this even once no call uses BLAS: OpenBLAS starts its thread pool
    when numpy loads, and on a 2-CPU Linux container ``import numpy`` took a
    median of 50 ms on one thread against 99 ms threaded (7 fresh processes
    each; another such container read 104 against 170 ms).
    """
    if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREADS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv: Sequence[str] | None = None) -> int:
    _one_blas_thread()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _apply_config(parser, argv, parser.parse_args(argv))
        out = getattr(args, "out", None)
        if out is None and sys.stdout is None:
            raise CitenetError("stdout is closed")
        _emit(args.handler(args), out)
        return 0
    except (CitenetError, OSError, ValueError) as exc:
        print(f"error: {str(exc).translate(_ONE_LINE)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
