"""Benchmark of the ``citenet`` command line, end to end and layer by layer.

    python3 bench/run.py --workload query --seed 7534 --seconds 30 --trace 0
    python3 bench/run.py                     # every workload, timed then traced

One client runs a closed loop: each CLI call is a fresh process, started
only when the previous one has finished.  A run sets up, then runs one pass.
The set-up generates the workload's inputs from ``--seed`` and ingests them
with the CLI (``ingest``, and ``merge`` on query); ``setup_s`` is the
generation time plus the latencies of those calls.  The pass is the
workload's fixed list of CLI calls on the matrix the set-up wrote; it takes
about as long as ``run_seconds`` in BENCHMARK.json, and ``--seconds`` does
not change it.  Every call's output, set-up calls included, is checked
against references recomputed from the generated inputs (see ``oracle.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` generates the
inputs, replays the set-up calls and the pass through ``trace_boot.py``,
which times the calls into each library layer from outside the program,
replays one call under tracemalloc, and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Children are started by
``launcher.py``.

Everything a run writes goes under ``.bench_work/`` in the checkout and is
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BOOT = BENCH / "trace_boot.py"
CLI = [sys.executable, "-m", "citenet.cli"]
STARTUPS = 5  # interpreter starts per traced run; cli.startup_s is their median

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from workloads import Call, Output  # noqa: E402


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("CITENET_DATA_DIR", None)
    return env


CHILD_ENV = _child_env()


@dataclass
class Result:
    call: Call
    seconds: float
    rss_mb: float
    errors: list[str]


class Launcher:
    """The small process that starts every child and reports its cost.

    See ``launcher.py`` for why children are not started from here.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, float, int, str, str]:
        """Run one process to completion: (seconds, peak RSS MB, exit, stdout, stderr)."""
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        request = {
            "argv": argv,
            "cwd": str(cwd),
            "env": CHILD_ENV,
            "stdout": str(out_path),
            "stderr": str(err_path),
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        answer = json.loads(line)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return answer["seconds"], answer["rss_mb"], answer["code"], stdout, stderr

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def run_call(launcher: Launcher, call: Call, cwd: Path, prefix: list[str] = CLI) -> Result:
    """One CLI call, then its output check (outside the timed interval)."""
    seconds, rss_mb, code, stdout, stderr = launcher.spawn(prefix + call.argv, cwd)
    errors = []
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        errors.append(f"exit {code}: {last[0]}")
    if "Traceback (most recent call last)" in stderr:
        errors.append("traceback on stderr")
    if not errors:
        try:
            errors += call.check(Output(stdout, cwd))
        except Exception as exc:  # a malformed output is a failed call
            errors.append(f"output check raised {exc!r}")
    return Result(call, seconds, rss_mb, errors)


def setup(
    launcher: Launcher, workload, seed: int, calls: list[Call], directory: Path
) -> tuple[float, list[Result]]:
    """Generate the inputs into a new directory and ingest them.

    Returns the seconds spent generating plus the ingest calls' latencies,
    and the ingest calls' results.
    """
    directory.mkdir(parents=True)
    start = time.perf_counter()
    workload.write_inputs(seed, directory)
    seconds = time.perf_counter() - start
    results = [run_call(launcher, call, directory) for call in calls]
    return seconds + sum(r.seconds for r in results), results


def _report_failures(results: list[Result]) -> None:
    for result in results:
        for error in result.errors:
            print(f"  FAILED {' '.join(result.call.argv)}: {error}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _result(failed: int, attempted: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def timed_run(launcher: Launcher, workload, seed: int, work: Path) -> dict:
    ingest, calls = workload.calls(seed)
    setup_s, ingested = setup(launcher, workload, seed, ingest, work / "inputs")
    results = [run_call(launcher, call, work / "inputs") for call in calls]
    everything = ingested + results

    def median_of(kind: str) -> float | None:
        values = [r.seconds for r in results if r.call.kind == kind]
        return statistics.median(values) if values else None

    def sum_of(kind: str) -> float | None:
        values = [r.seconds for r in ingested if r.call.kind == kind]
        return sum(values) if values else None

    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(sum(r.seconds for r in results), "s"),
        "peak_rss_mb": _metric(max(r.rss_mb for r in results), "MB"),
    }
    attempted = len(everything)
    failed = sum(1 for r in everything if r.errors)
    extra = {
        "cmd_p50_s": statistics.median(r.seconds for r in results),
        "ingest_s": sum_of("ingest"),
        "merge_s": sum_of("merge"),
        "report_s": median_of("report"),
        "export_s": median_of("export"),
    }
    print(
        f"{workload.name} seed {seed}: {len(ingested)} set-up and {len(results)} pass calls;"
        f" {failed} of {attempted} calls failed"
    )
    _report_failures(everything)
    for name, value in metrics.items():
        print(f"  {name:<14} {value['value']:12.4f} {value['unit']}")
    for name, value in extra.items():
        if value is not None:
            print(f"  {name:<14} {value:12.4f} s")
    print(f"  {'failed_ratio':<14} {failed / attempted:12.4f}")
    for result in everything:
        sizes = " ".join(f"{k}={v}" for k, v in result.call.sizes.items())
        argv = " ".join(result.call.argv)
        print(f"    {result.seconds:7.3f} s {result.rss_mb:6.0f} MB  {argv}  [{sizes}]")
    return _result(failed, attempted, metrics)


# --------------------------------------------------------------------------
# per-layer metrics from the traced pass

LAYERS = ("cli", "matrix", "environment", "similarity", "centrality", "export", "metrics")


class Spans:
    """Span totals over the traced pass (every call's spans, summed)."""

    def __init__(self, documents: list[dict]) -> None:
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.errors = defaultdict(set)
        self.items = defaultdict(list)  # name -> [(attrs, seconds, parent name)]
        self.wrapped: set[str] = set()
        self.per_call = []
        for k, document in enumerate(documents):
            self.wrapped |= set(document["wrapped"])
            spans = document["spans"]
            children = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    children[parent] += end - start
            call_layer_self = defaultdict(float)
            call_total = defaultdict(float)
            for i, (name, start, end, parent, error) in enumerate(spans):
                seconds = end - start
                layer = name.split(".")[0]
                self.total[name] += seconds
                call_total[name] += seconds
                self.self_time[name] += seconds - children[i]
                self.layer_self[layer] += seconds - children[i]
                call_layer_self[layer] += seconds - children[i]
                self.count[name] += 1
                if error:
                    self.errors[layer].add((k, error))
                attrs = document["attrs"].get(str(i))
                if attrs is not None:
                    parent_name = spans[parent][0] if parent >= 0 else None
                    self.items[name].append((attrs, seconds, parent_name))
            self.per_call.append((document, call_layer_self, call_total))

    def attr(self, name: str, key: str) -> list:
        return [a[key] for a, _, _ in self.items[name] if key in a]


def _graph_time(spans: Spans, global_graph: bool) -> float:
    return sum(
        seconds
        for attrs, seconds, _ in spans.items["centrality.Graph.from_citation_matrix"]
        if attrs.get("global") == global_graph
    )


def _pairs(spans: Spans) -> int:
    total = 0
    for attrs, _, _ in spans.items["similarity.similarity_graph"]:
        comparable = attrs["nodes"] - attrs["zero_profiles"]
        total += comparable * (comparable - 1) // 2
    return total


def _bytes_read(spans: Spans) -> int:
    total = sum(spans.attr("matrix.read_matrix", "bytes_read"))
    total += sum(spans.attr("matrix.read_registry", "bytes_read"))
    total += sum(
        attrs.get("bytes_read", 0)
        for attrs, _, parent in spans.items["matrix.parse_citation_csv"]
        if parent != "matrix.read_matrix"
    )
    return total


def _memory(kind: str, key: str):
    def value(spans: Spans, records: list[dict]) -> float:
        return max((r[key] for r in records if r["kind"] == kind), default=0) / 2**20

    return value


def _total(name: str):
    return lambda s, m: s.total[name]


def _self(name: str):
    return lambda s, m: s.self_time[name]


def _count(name: str):
    return lambda s, m: s.count[name]


def _sum(name: str, key: str):
    return lambda s, m: sum(s.attr(name, key))


def _most(name: str, key: str):
    return lambda s, m: max(s.attr(name, key), default=0)


PARSE, READ = "matrix.parse_citation_csv", "matrix.read_matrix"
WRITE, REGISTRY = "matrix.write_matrix", "matrix.read_registry"
EXTRACT, SIM = "environment.extract_environment", "similarity.similarity_graph"
FROM_MATRIX = "centrality.Graph.from_citation_matrix"
BETWEENNESS = "centrality.betweenness_centrality"
CLOSENESS = "centrality.closeness_centrality"
REPORT = "centrality.build_report"
EXPORTS = tuple(
    f"export.{name}" for name in ("export_pajek", "export_dot", "export_json", "report_table")
)
MEMORY = (f"memory:{READ}", f"memory:{PARSE}")

# name, unit, the wrapped functions it needs (absent when none was found), value;
# ``None`` marks a value computed in ``traced_run``.
LAYER_METRICS = [
    ("cli.startup_s", "s", ("cli.main",), None),
    ("cli.self_s", "s", ("cli.main",), _self("cli.main")),
    ("matrix.parse_s", "s", (PARSE,), _total(PARSE)),
    ("matrix.read_s", "s", (READ,), _self(READ)),
    ("matrix.loads", "count", (READ,), _count(READ)),
    ("matrix.rows_parsed", "count", (PARSE,), _sum(PARSE, "rows")),
    ("matrix.cells", "count", (PARSE,), _most(PARSE, "cells")),
    ("matrix.journals", "count", (PARSE,), _most(PARSE, "journals")),
    ("matrix.bytes_read", "bytes", (READ, PARSE), lambda s, m: _bytes_read(s)),
    ("matrix.write_s", "s", (WRITE,), _total(WRITE)),
    ("matrix.bytes_written", "bytes", (WRITE,), _sum(WRITE, "bytes_written")),
    ("matrix.merge_s", "s", ("matrix.merge_indices",), _total("matrix.merge_indices")),
    ("matrix.registry_s", "s", (REGISTRY,), _total(REGISTRY)),
    ("matrix.retained_mb", "MB", MEMORY, _memory("load", "retained")),
    ("matrix.parse_peak_mb", "MB", MEMORY, _memory("load", "peak")),
    ("environment.extract_s", "s", (EXTRACT,), _total(EXTRACT)),
    (
        "environment.totals_s",
        "s",
        ("environment.environment_totals",),
        _total("environment.environment_totals"),
    ),
    ("environment.members", "count", (EXTRACT,), _most(EXTRACT, "members")),
    ("environment.submatrix_cells", "count", (EXTRACT,), _most(EXTRACT, "submatrix_cells")),
    ("similarity.graph_s", "s", (SIM,), _total(SIM)),
    ("similarity.pairs", "count", (SIM,), lambda s, m: _pairs(s)),
    ("similarity.axis_len", "count", (SIM,), _most(SIM, "axis_len")),
    ("similarity.edges", "count", (SIM,), _sum(SIM, "edges")),
    (
        "similarity.edge_yield",
        "ratio",
        (SIM,),
        lambda s, m: sum(s.attr(SIM, "edges")) / max(_pairs(s), 1),
    ),
    ("similarity.zero_profiles", "count", (SIM,), _sum(SIM, "zero_profiles")),
    ("centrality.global_graph_s", "s", (FROM_MATRIX,), lambda s, m: _graph_time(s, True)),
    (
        "centrality.global_graph_mb",
        "MB",
        (f"memory:{FROM_MATRIX}",),
        _memory("global_graph", "retained"),
    ),
    (
        "centrality.local_graph_s",
        "s",
        ("centrality.Graph.from_similarity", FROM_MATRIX),
        lambda s, m: s.total["centrality.Graph.from_similarity"] + _graph_time(s, False),
    ),
    ("centrality.betweenness_s", "s", (BETWEENNESS,), _total(BETWEENNESS)),
    ("centrality.closeness_s", "s", (CLOSENESS,), _total(CLOSENESS)),
    ("centrality.closeness_calls", "count", (CLOSENESS,), _count(CLOSENESS)),
    (
        "centrality.eigenvector_s",
        "s",
        ("centrality.eigenvector_centrality",),
        _total("centrality.eigenvector_centrality"),
    ),
    ("centrality.build_report_self_s", "s", (REPORT,), _self(REPORT)),
    ("centrality.local_nodes", "count", (REPORT,), _most(REPORT, "nodes")),
    ("centrality.local_edges", "count", (REPORT,), _most(REPORT, "edges")),
    (
        "centrality.bfs_sources",
        "count",
        (BETWEENNESS, CLOSENESS),
        lambda s, m: sum(n for n in s.attr(BETWEENNESS, "nodes") if n >= 3)
        + s.count[CLOSENESS],
    ),
    ("export.glyphs_s", "s", ("export.make_glyphs",), _total("export.make_glyphs")),
    ("export.pajek_s", "s", (EXPORTS[0],), _total(EXPORTS[0])),
    ("export.dot_s", "s", (EXPORTS[1],), _total(EXPORTS[1])),
    ("export.json_s", "s", (EXPORTS[2],), _total(EXPORTS[2])),
    ("export.table_s", "s", (EXPORTS[3],), _total(EXPORTS[3])),
    (
        "export.bytes_out",
        "bytes",
        EXPORTS,
        lambda s, m: sum(sum(s.attr(name, "chars")) for name in EXPORTS),
    ),
    (
        "metrics.indicator_s",
        "s",
        ("metrics.self_citation_rate",),
        lambda s, m: sum(t for name, t in s.total.items() if name.startswith("metrics.")),
    ),
]
LAYER_METRICS += [
    (f"{layer}.self_s", "s", (), lambda s, m, layer=layer: s.layer_self[layer])
    for layer in LAYERS[1:]
]
LAYER_METRICS += [
    (f"{layer}.errors", "count", (), lambda s, m, layer=layer: len(s.errors[layer]))
    for layer in LAYERS
]
LAYER_METRICS += [
    ("trace.main_s", "s", (), None),
    ("trace.overhead_s", "s", (), None),
    ("trace.overhead_pct", "%", (), None),
    ("trace.absent", "count", (), None),
]


def traced_run(launcher: Launcher, workload, seed: int, work: Path) -> dict:
    directory = work / "inputs"
    directory.mkdir(parents=True)
    workload.write_inputs(seed, directory)
    ingest, calls = workload.calls(seed)
    startups = []
    for _ in range(STARTUPS):
        argv = [sys.executable, "-c", "import citenet.cli"]
        seconds, _, code, _, stderr = launcher.spawn(argv, directory)
        if code != 0:
            raise RuntimeError(f"cannot import citenet.cli: {stderr.strip()}")
        startups.append(seconds)

    results, traced, documents = [], [], []
    for k, call in enumerate(ingest + calls):
        spans_path = work / f"spans{k}.json"
        flags = ["--traced-first"] if k % 2 else []
        prefix = [sys.executable, str(BOOT), "--spans", str(spans_path), *flags, "--"]
        results.append(run_call(launcher, call, directory, prefix))
        if spans_path.exists():
            traced.append(call)
            documents.append(json.loads(spans_path.read_text(encoding="utf-8")))
    memory_path = work / "memory.json"
    prefix = [sys.executable, str(BOOT), "--memory", str(memory_path), "--"]
    results.append(run_call(launcher, calls[workload.memory_call], directory, prefix))
    memory = (
        json.loads(memory_path.read_text(encoding="utf-8"))
        if memory_path.exists()
        else {"wrapped": [], "records": []}
    )

    spans = Spans(documents)
    available = spans.wrapped | {f"memory:{name}" for name in memory["wrapped"]}
    plain = sum(d["main_plain_s"] for d in documents)
    overhead = sum(d["main_traced_s"] for d in documents) - plain
    metrics, absent = {}, []
    for name, unit, needs, value in LAYER_METRICS:
        if needs and not any(n in available for n in needs):
            absent.append(name)
            metrics[name] = _metric(0, unit)
        elif value is not None:
            metrics[name] = _metric(value(spans, memory["records"]), unit)
    metrics["cli.startup_s"] = _metric(statistics.median(startups), "s")
    metrics["trace.main_s"] = _metric(plain, "s")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_pct"] = _metric(100 * overhead / plain if plain else 0.0, "%")
    metrics["trace.absent"] = _metric(len(absent), "count")
    failed = sum(1 for r in results if r.errors)

    print(
        f"{workload.name} seed {seed} traced: {len(ingest + calls)} calls;"
        f" {failed} of {len(results)} failed"
    )
    _report_failures(results)
    if absent:
        print(f"  absent (function not found): {', '.join(absent)}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value['value']:14.4f} {value['unit']}")
    _print_attribution(spans, traced, metrics["cli.startup_s"]["value"])
    return _result(failed, len(results), metrics)


ANALYSIS_LAYERS = ("environment", "similarity", "centrality", "export", "metrics")


def _print_attribution(spans: Spans, calls: list[Call], startup: float) -> None:
    """Where each call's latency goes, and the largest self times."""
    print("  shares of each call's latency (interpreter start + main):")
    for call, (document, layer_self, total) in zip(calls, spans.per_call):
        latency = startup + document["main_traced_s"]
        load = total.get(READ) or total.get(PARSE, 0.0)
        global_graph = sum(
            end - start
            for i, (name, start, end, _, _) in enumerate(document["spans"])
            if document["attrs"].get(str(i), {}).get("global")
        )
        analysis = sum(layer_self[layer] for layer in ANALYSIS_LAYERS) - global_graph
        print(
            f"    {call.kind:<10} {latency:7.3f} s: start {startup / latency:6.1%}"
            f"  load {load / latency:6.1%}  global graph {global_graph / latency:6.1%}"
            f"  analysis layers {analysis / latency:6.1%}"
        )
    ranked = sorted(spans.self_time.items(), key=lambda item: -item[1])[:6]
    print("  largest self times: " + ", ".join(f"{n} {t:.3f} s" for n, t in ranked))
    layers = sorted(spans.layer_self.items(), key=lambda item: -item[1])
    print("  layer self times:   " + ", ".join(f"{n} {t:.3f} s" for n, t in layers))


# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, help="workload seed (default: per workload)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="accepted for the benchmark interface: a run is always one pass",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0: end to end, 1: per layer (default: both)"
    )
    args = parser.parse_args()
    if not (SRC / "citenet" / "cli.py").is_file():
        print(f"error: no citenet sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        for mode in modes:
            work = WORK / f"{name}-{mode}-{os.getpid()}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            launcher = Launcher()
            try:
                if mode == 0:
                    result = timed_run(launcher, workload, seed, work)
                else:
                    result = traced_run(launcher, workload, seed, work)
            finally:
                launcher.close()
                shutil.rmtree(work, ignore_errors=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            # BENCHMARK.json names the metrics the result line carries
            for entry in declared["end_to_end" if mode == 0 else "per_layer"]:
                metric = entry["name"]
                combined["metrics"][prefix + metric] = result["metrics"][metric]
    try:
        WORK.rmdir()
    except OSError:
        pass
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
