"""Command-line interface: a thin shell over the library modules.

Subcommands mirror the pipeline stages: ``ingest`` and ``merge`` build
matrices, ``env`` extracts a seed environment, ``sim`` emits the cosine edge
list, ``centrality`` and ``report`` compute and render centrality tables,
``metrics`` evaluates bibliometric indicators, and ``export`` writes Pajek,
DOT, or JSON files.

A JSON config file (``--config``) may preset the common flags; explicit
flags win.  The ``CITENET_DATA_DIR`` environment variable (or the config key
``data_dir``) names a directory against which bare input paths are resolved.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .centrality import Graph, build_report
from .environment import Direction, environment_totals, extract_environment
from .errors import CitenetError
from .export import (
    export_dot,
    export_json,
    export_pajek,
    graph_document,
    make_glyphs,
    report_document,
    report_table,
)
from .matrix import (
    SourceIndex,
    citation_degrees,
    merge_indices,
    parse_citation_csv,
    read_matrix,
    read_registry,
    write_matrix,
)
from .metrics import h_index, impact_factor, quasi_impact_factor, self_citation_rate
from .similarity import similarity_graph

DATA_DIR_ENV = "CITENET_DATA_DIR"

DEFAULT_MIN_CONTRIB = 0.01
DEFAULT_COSINE_THRESHOLD = 0.2
DEFAULT_DIRECTION = "cited"

_CONFIG_STRINGS = ("seed", "direction", "format", "local_basis", "data_dir")
_CONFIG_NUMBERS = ("min_contrib", "cosine_threshold")


class _Settings:
    """Flag values after merging CLI arguments with the config file."""

    def __init__(self, args: argparse.Namespace) -> None:
        config = {}
        if getattr(args, "config", None):
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
        self._args = args
        self._config = config

    def get(self, key: str, default=None):
        value = getattr(self._args, key, None)
        if value is not None:
            return value
        if key in self._config:
            return self._config[key]
        return default

    def format(self, formats: tuple[str, ...]) -> str:
        """The output format, one of the command's *formats* (default the first)."""
        fmt = self.get("format", formats[0])
        if fmt not in formats:
            raise CitenetError(
                f"{self._args.command} supports formats {'|'.join(formats)}, not {fmt!r}"
            )
        return fmt

    def local_basis(self) -> str:
        basis = self.get("local_basis", "sim")
        if basis not in ("sim", "raw"):
            raise CitenetError(f"--local-basis must be sim or raw, not {basis!r}")
        return basis

    def data_dir(self) -> Path | None:
        env_value = os.environ.get(DATA_DIR_ENV)
        if env_value:
            return Path(env_value)
        if "data_dir" in self._config:
            return Path(self._config["data_dir"])
        return None

    def resolve(self, path: str) -> Path:
        candidate = Path(path)
        if candidate.exists() or candidate.is_absolute():
            return candidate
        data_dir = self.data_dir()
        if data_dir is not None and (data_dir / candidate).exists():
            return data_dir / candidate
        return candidate


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file presetting flags")
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_environment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "matrix", help="persisted citation matrix (CSV + sidecar, with its .csr.npz cache)"
    )
    parser.add_argument("--seed", help="seed journal id")
    parser.add_argument(
        "--direction",
        choices=("citing", "cited"),
        help=f"environment direction (default: {DEFAULT_DIRECTION})",
    )
    parser.add_argument(
        "--min-contrib",
        type=float,
        dest="min_contrib",
        help=f"contribution threshold fraction (default: {DEFAULT_MIN_CONTRIB})",
    )


def _add_similarity_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cosine-threshold",
        type=float,
        dest="cosine_threshold",
        help=f"similarity edge threshold (default: {DEFAULT_COSINE_THRESHOLD})",
    )


def _add_basis_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--local-basis",
        choices=("sim", "raw"),
        dest="local_basis",
        help="graph for local centralities: thresholded similarity graph (sim)"
        " or raw citation links among members (raw); default sim",
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _environment(settings: _Settings, args: argparse.Namespace):
    seed = settings.get("seed")
    if not seed:
        raise CitenetError("--seed is required (flag or config)")
    direction = Direction(settings.get("direction", DEFAULT_DIRECTION))
    min_contrib = float(settings.get("min_contrib", DEFAULT_MIN_CONTRIB))
    matrix = read_matrix(settings.resolve(args.matrix))
    env = extract_environment(matrix, seed, direction, min_contrib)
    return matrix, env


def _similarity(settings: _Settings, args: argparse.Namespace):
    matrix, env = _environment(settings, args)
    threshold = float(settings.get("cosine_threshold", DEFAULT_COSINE_THRESHOLD))
    return matrix, env, similarity_graph(env, threshold)


def _report(settings: _Settings, args: argparse.Namespace, basis: str):
    matrix, env, graph = _similarity(settings, args)
    if basis == "sim":
        local = Graph.from_similarity(graph)
        local_basis = (
            f"similarity graph ({graph.basis.value}, cosine > {graph.threshold}, "
            f"seed {env.seed})"
        )
    else:
        local = Graph.from_citation_matrix(env.submatrix, nodes=env.members)
        local_basis = f"raw citation links among members (seed {env.seed})"
    report = build_report(
        local,
        citation_degrees(matrix),
        local_basis=local_basis,
        global_basis=f"citation matrix {matrix.year} ({len(matrix)} journals)",
    )
    return matrix, env, graph, report


def _cmd_ingest(settings: _Settings, args: argparse.Namespace) -> int:
    if not args.out:
        raise CitenetError("ingest requires --out for the persisted matrix")
    registry = None
    if args.registry:
        with open(settings.resolve(args.registry), encoding="utf-8") as fh:
            registry = read_registry(fh)
    source = SourceIndex(args.source.upper())
    if args.edges == "-":
        matrix = parse_citation_csv(sys.stdin, args.year, source=source, registry=registry)
    else:
        with open(settings.resolve(args.edges), encoding="utf-8") as fh:
            matrix = parse_citation_csv(fh, args.year, source=source, registry=registry)
    write_matrix(matrix, args.out)
    print(f"wrote {args.out}: {len(matrix)} journals, {len(matrix.cells)} cells")
    return 0


def _cmd_merge(settings: _Settings, args: argparse.Namespace) -> int:
    if not args.out:
        raise CitenetError("merge requires --out for the persisted matrix")
    a = read_matrix(settings.resolve(args.matrix_a), year=args.year)
    b = read_matrix(settings.resolve(args.matrix_b), year=args.year)
    merged = merge_indices(a, b)
    write_matrix(merged, args.out)
    print(f"wrote {args.out}: {len(merged)} journals, {len(merged.cells)} cells")
    return 0


def _cmd_env(settings: _Settings, args: argparse.Namespace) -> int:
    fmt = settings.format(("table", "json"))
    _, env = _environment(settings, args)
    rows = []
    for member in env.members:
        gross, net = environment_totals(env, member)
        rows.append((member, env.contributions[member], gross, net))
    if fmt == "json":
        document = {
            "seed": env.seed,
            "direction": env.direction.value,
            "threshold": env.threshold,
            "members": [
                {"journal": m, "contribution": c, "gross": g, "net_of_self": n}
                for m, c, g, n in rows
            ],
        }
        _emit(json.dumps(document, indent=2) + "\n", args.out)
        return 0
    width = max(len("journal"), max(len(m) for m, _, _, _ in rows))
    lines = [
        f"# seed {env.seed}, {env.direction.value}, threshold {env.threshold}",
        f"{'journal'.ljust(width)}  contribution_%  gross  net_of_self",
    ]
    for member, contribution, gross, net in rows:
        lines.append(
            f"{member.ljust(width)}  {contribution * 100:14.2f}  {gross:5d}  {net:11d}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sim(settings: _Settings, args: argparse.Namespace) -> int:
    _, _, graph = _similarity(settings, args)
    lines = ["source,target,weight"]
    lines.extend(f"{u},{v},{weight!r}" for (u, v), weight in graph.edges.items())
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_centrality(settings: _Settings, args: argparse.Namespace) -> int:
    fmt = settings.format(("table", "json"))
    _, _, _, report = _report(settings, args, settings.local_basis())
    if fmt == "json":
        _emit(json.dumps(report_document(report), indent=2) + "\n", args.out)
        return 0
    width = max(len("journal"), max(len(row.journal) for row in report))
    lines = [
        f"# local basis: {report.local_basis}",
        f"# global basis: {report.global_basis}",
        f"{'journal'.ljust(width)}  deg_local  deg_in  deg_out  closeness  "
        "betweenness_%  eigenvector",
    ]
    for row in report:
        lines.append(
            f"{row.journal.ljust(width)}  {row.degree_local:9d}  {row.degree_in:6d}  "
            f"{row.degree_out:7d}  {row.closeness:9.4f}  {row.betweenness * 100:13.2f}  "
            f"{row.eigenvector:11.4f}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CitenetError(
            f"{flag} expects comma-separated integers, got {text!r}"
        ) from None


def _cmd_metrics(settings: _Settings, args: argparse.Namespace) -> int:
    fmt = settings.format(("table", "json"))
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
        matrix = read_matrix(settings.resolve(args.matrix))
        results["self_citation_rate"] = self_citation_rate(matrix, args.journal)
    elif args.matrix or args.journal:
        raise CitenetError("--matrix and --journal must be given together")
    if not results:
        raise CitenetError(
            "nothing to compute: pass --if-inputs, --h-counts, or --matrix/--journal"
        )
    if fmt == "json":
        _emit(json.dumps(results, indent=2) + "\n", args.out)
    else:
        _emit("".join(f"{name} = {value}\n" for name, value in results.items()), args.out)
    return 0


def _cmd_export(settings: _Settings, args: argparse.Namespace) -> int:
    fmt = settings.format(("pajek", "dot", "json"))
    basis = settings.local_basis()
    if fmt == "json":
        _, env, graph, report = _report(settings, args, basis)
        text = export_json(graph, make_glyphs(env), report)
    else:
        # Pajek and DOT print no centralities, so none are computed.
        _, env, graph = _similarity(settings, args)
        exporter = export_pajek if fmt == "pajek" else export_dot
        text = exporter(graph, make_glyphs(env))
    _emit(text, args.out)
    return 0


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
            try:
                value = float(fields[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise CitenetError(
                    f"{path}:{line_no}: impact factor {fields[1].strip()!r} "
                    "is not a finite number"
                )
            values[fields[0].strip()] = value
    return values


def _cmd_report(settings: _Settings, args: argparse.Namespace) -> int:
    fmt = settings.format(("table", "json"))
    _, env, graph, report = _report(settings, args, settings.local_basis())
    impact_factors = {}
    if args.if_csv:
        impact_factors = _load_if_csv(settings.resolve(args.if_csv))
    if fmt == "json":
        document = graph_document(graph, make_glyphs(env), report)
        if impact_factors:
            document["impact_factors"] = impact_factors
        _emit(json.dumps(document, indent=2) + "\n", args.out)
        return 0
    _emit(report_table(env, report, impact_factors), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    _add_common(p_ingest)
    p_ingest.set_defaults(handler=_cmd_ingest)

    p_merge = subparsers.add_parser("merge", help="merge two same-year matrices")
    p_merge.add_argument("matrix_a")
    p_merge.add_argument("matrix_b")
    p_merge.add_argument("--year", type=int, help="year for sidecar-less inputs")
    _add_common(p_merge)
    p_merge.set_defaults(handler=_cmd_merge)

    p_env = subparsers.add_parser("env", help="extract a seed environment")
    _add_environment_flags(p_env)
    p_env.add_argument("--format", choices=("table", "json"))
    _add_common(p_env)
    p_env.set_defaults(handler=_cmd_env)

    p_sim = subparsers.add_parser("sim", help="emit the cosine similarity edge list")
    _add_environment_flags(p_sim)
    _add_similarity_flags(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(handler=_cmd_sim)

    p_centrality = subparsers.add_parser("centrality", help="centrality report")
    _add_environment_flags(p_centrality)
    _add_similarity_flags(p_centrality)
    _add_basis_flag(p_centrality)
    p_centrality.add_argument("--format", choices=("table", "json"))
    _add_common(p_centrality)
    p_centrality.set_defaults(handler=_cmd_centrality)

    p_metrics = subparsers.add_parser("metrics", help="bibliometric indicators")
    p_metrics.add_argument("--matrix", help="persisted matrix for self-citation rate")
    p_metrics.add_argument("--journal", help="journal id for self-citation rate")
    p_metrics.add_argument(
        "--if-inputs",
        dest="if_inputs",
        help="cites_t1,cites_t2,citable_t1,citable_t2[,self_t1,self_t2]",
    )
    p_metrics.add_argument("--h-counts", dest="h_counts", help="comma-separated counts")
    p_metrics.add_argument("--format", choices=("table", "json"))
    _add_common(p_metrics)
    p_metrics.set_defaults(handler=_cmd_metrics)

    p_export = subparsers.add_parser("export", help="write Pajek, DOT, or JSON")
    _add_environment_flags(p_export)
    _add_similarity_flags(p_export)
    _add_basis_flag(p_export)
    p_export.add_argument("--format", choices=("pajek", "dot", "json"))
    _add_common(p_export)
    p_export.set_defaults(handler=_cmd_export)

    p_report = subparsers.add_parser("report", help="tabular centrality report")
    _add_environment_flags(p_report)
    _add_similarity_flags(p_report)
    _add_basis_flag(p_report)
    p_report.add_argument("--if-csv", dest="if_csv", help="CSV of id,impact_factor")
    p_report.add_argument("--format", choices=("table", "json"))
    _add_common(p_report)
    p_report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="warning: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _Settings(args)
        return args.handler(settings, args)
    except (CitenetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
