"""The workloads: inputs, the CLI calls that ingest them, the pass, and checks.

A workload writes its generated inputs into a directory and lists two sets
of ``citenet`` calls, each call with a check that compares its output
against :mod:`oracle`: the set-up calls, which ``ingest`` (and ``merge``)
the generated edge lists into the persisted matrix, and the pass, which
reads that matrix.  Paths in the calls are relative to that directory,
where the calls run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import generate
import oracle

YEAR = str(generate.YEAR)


@dataclass
class Output:
    """What one call left behind."""

    stdout: str
    directory: Path

    def read(self, name: str) -> str:
        return (self.directory / name).read_text(encoding="utf-8")


@dataclass
class Call:
    kind: str  # the subcommand
    argv: list[str]
    check: Callable[[Output], list[str]]
    sizes: dict = field(default_factory=dict)  # printed with the call's latency


def _write(directory: Path, name: str, text: str) -> None:
    (directory / name).write_text(text, encoding="utf-8", newline="\n")


def _seen(edges: generate.EdgeList) -> list[str]:
    """Journals an edge list mentions, citing or cited."""
    present = np.unique(np.concatenate([edges.citing, edges.cited]))
    return [edges.ids[k] for k in present.tolist()]


def _persisted(argv: list[str], path: str, edges: generate.EdgeList, journals: dict) -> Call:
    """An ``ingest`` or ``merge`` call, checked cell by cell and journal by journal.

    ``journals`` maps every journal the persisted matrix must list to its
    (display name, source index).
    """
    matrix = edges.matrix()
    expected = f"wrote {path}: {len(journals)} journals, {matrix.nnz} cells\n"

    def check(out: Output) -> list[str]:
        errors = [] if out.stdout == expected else [f"stdout {out.stdout!r} != {expected!r}"]
        csv_text, sidecar = out.read(path), out.read(path + ".meta.json")
        return errors + oracle.check_persisted(
            csv_text, sidecar, edges.ids, matrix, journals, generate.YEAR
        )

    return Call(argv[0], argv, check, {"journals": len(journals), "cells": matrix.nnz})


class Workload:
    """A matrix to analyse: its inputs, its reference and its pass."""

    name = ""
    default_seed = 0
    memory_call = 0  # index of the pass call the tracemalloc pass replays

    def _data(self, seed: int):
        raise NotImplementedError

    def write_inputs(self, seed: int, directory: Path) -> None:
        raise NotImplementedError

    def calls(self, seed: int) -> tuple[list[Call], list[Call]]:
        """(the set-up calls that write the matrix, the pass's calls)."""
        raise NotImplementedError

    def _reference(self, seed: int):
        """(oracle, generated data, report-table check factory)."""
        data = self._data(seed)
        ref = oracle.MatrixOracle(data.edges.ids, data.edges.matrix())
        journals = len(data.edges.ids)

        def table(analysis: oracle.Analysis, impact: dict | None = None):
            return lambda out: oracle.check_report_table(
                analysis, out.stdout, impact or {}, generate.YEAR, journals
            )

        return ref, data, table

    @staticmethod
    def _sizes(analysis: oracle.Analysis) -> dict:
        return {"members": len(analysis.nodes), "sim_edges": len(analysis.edges)}


class Query(Workload):
    """Build the criterion-9 matrix from its two indices, then query it.

    The set-up runs the write path (parse, serialize, sidecar, registry,
    merge) at full scale.  Every call of the pass reloads the whole matrix
    for an environment of a few dozen members, so loading dominates.
    """

    name = "query"
    default_seed = 7534
    memory_call = 2  # centrality: a load plus the global graph
    # Two unplanted journals of the uniform background, fixed by index; their
    # environments change with the workload seed.
    background = ("J1000", "J2000")

    def _data(self, seed: int):
        return generate.criterion9(seed)

    def write_inputs(self, seed: int, directory: Path) -> None:
        data = self._data(seed)
        _write(directory, "sci_edges.csv", data.split.sci.csv_text())
        _write(directory, "ssci_edges.csv", data.split.ssci.csv_text())
        _write(directory, "ssci_registry.csv", data.split.registry_csv())
        _write(directory, "impact.csv", data.impact_factor_csv())

    @staticmethod
    def _write_path(split: generate.Split, merged: generate.EdgeList) -> list[Call]:
        sci = {j: (j, "SCI") for j in _seen(split.sci)}
        ssci = {j: (j, "SSCI") for j in _seen(split.ssci)}
        ssci.update((j, (name, "SSCI")) for j, name in split.registry.items())
        both = dict(sci)
        for j, (name, source) in ssci.items():
            # merge keeps the registry's display name of a journal in both
            both[j] = (name, "BOTH") if j in sci else (name, source)
        return [
            _persisted(
                ["ingest", "sci_edges.csv", "--year", YEAR, "--source", "sci", "--out", "sci.csv"],
                "sci.csv",
                split.sci,
                sci,
            ),
            _persisted(
                ["ingest", "ssci_edges.csv", "--year", YEAR, "--source", "ssci"]
                + ["--registry", "ssci_registry.csv", "--out", "ssci.csv"],
                "ssci.csv",
                split.ssci,
                ssci,
            ),
            _persisted(
                ["merge", "sci.csv", "ssci.csv", "--out", "matrix.csv"], "matrix.csv", merged, both
            ),
        ]

    def calls(self, seed: int) -> tuple[list[Call], list[Call]]:
        ref, data, table = self._reference(seed)
        seed_id = data.seed
        cited_id, citing_id = self.background
        main = ref.analysis(seed_id)
        cited = ref.analysis(cited_id)
        citing = ref.analysis(citing_id, direction="citing")
        base = ["matrix.csv", "--seed", seed_id]
        sizes = self._sizes(main)

        def centrality(out: Output) -> list[str]:
            return oracle.check_rows(main, json.loads(out.stdout)["rows"])

        def metrics(out: Output) -> list[str]:
            expected = ref.self_citation_rate(seed_id)
            name, _, value = out.stdout.strip().partition(" = ")
            if name != "self_citation_rate" or abs(float(value) - expected) > 1e-12:
                return [f"metrics output {out.stdout!r}, expected {expected!r}"]
            return []

        return self._write_path(data.split, data.edges), [
            Call(
                "env",
                ["env", *base, "--format", "json"],
                lambda out: oracle.check_environment_json(main.env, out.stdout),
                {"members": len(main.nodes)},
            ),
            Call("sim", ["sim", *base], lambda out: oracle.check_sim_csv(main, out.stdout), sizes),
            Call("centrality", ["centrality", *base, "--format", "json"], centrality, sizes),
            Call(
                "report",
                ["report", *base, "--if-csv", "impact.csv"],
                table(main, data.impact_factors),
                sizes,
            ),
            Call(
                "export",
                ["export", *base, "--format", "pajek", "--out", "seed.net"],
                lambda out: oracle.check_pajek(main, out.read("seed.net")),
                sizes,
            ),
            Call("metrics", ["metrics", "--matrix", "matrix.csv", "--journal", seed_id], metrics),
            Call(
                "report",
                ["report", "matrix.csv", "--seed", cited_id],
                table(cited),
                self._sizes(cited),
            ),
            Call(
                "report",
                ["report", "matrix.csv", "--seed", citing_id, "--direction", "citing"],
                table(citing),
                self._sizes(citing),
            ),
        ]


class Sweep(Workload):
    """Threshold sensitivity on a specialty matrix: large environments."""

    name = "sweep"
    default_seed = 600
    memory_call = 0  # the first report

    def _data(self, seed: int):
        return generate.specialty(seed)

    def write_inputs(self, seed: int, directory: Path) -> None:
        _write(directory, "edges.csv", self._data(seed).edges.csv_text())

    def calls(self, seed: int) -> tuple[list[Call], list[Call]]:
        ref, data, table = self._reference(seed)
        seed_id = data.seed
        journals = {j: (j, "SCI") for j in data.edges.ids}
        argv = ["ingest", "edges.csv", "--year", YEAR, "--out", "matrix.csv"]
        ingest = [_persisted(argv, "matrix.csv", data.edges, journals)]
        calls = []
        for min_contrib in ("0.001", "0.0005"):
            for threshold in ("0.2", "0.05"):
                analysis = ref.analysis(
                    seed_id, min_contrib=float(min_contrib), cosine_threshold=float(threshold)
                )
                argv = ["report", "matrix.csv", "--seed", seed_id, "--min-contrib", min_contrib]
                argv += ["--cosine-threshold", threshold]
                calls.append(Call("report", argv, table(analysis), self._sizes(analysis)))
        base = ["matrix.csv", "--seed", seed_id, "--min-contrib", "0.0005"]
        raw = ref.analysis(seed_id, min_contrib=0.0005, basis="raw")
        wide = ref.analysis(seed_id, min_contrib=0.0005)
        links = np.count_nonzero(raw.env.sub) - np.count_nonzero(np.diag(raw.env.sub))
        return ingest, calls + [
            Call(
                "report",
                ["report", *base, "--local-basis", "raw", "--format", "json"],
                lambda out: oracle.check_rows(raw, json.loads(out.stdout)["report"]["rows"]),
                {"members": len(raw.nodes), "raw_links": int(links)},
            ),
            Call(
                "export",
                ["export", *base, "--format", "json", "--out", "field.json"],
                lambda out: oracle.check_export_json(wide, out.read("field.json"), 0.2),
                self._sizes(wide),
            ),
            Call(
                "export",
                ["export", *base, "--format", "dot", "--out", "field.dot"],
                lambda out: oracle.check_dot(wide, out.read("field.dot")),
                self._sizes(wide),
            ),
        ]


WORKLOADS = {w.name: w for w in (Query(), Sweep())}
