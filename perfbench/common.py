"""Shared pieces of the benchmark: spec, statistics, host record,
the paper's query mix, and the timed schema-building steps.

Every timing here is taken from outside the program: the benchmark
calls the public functions of each layer and reads a monotonic clock
around the call.  Nothing under ``src/`` is instrumented for it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Queries per dataset in one pass of the paper's mix (Figure 12 uses
#: a 15-query workload per dataset).
MIX_SIZE = 15

clock = time.perf_counter


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict) -> dict[str, str]:
    units = {}
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            units[metric["name"]] = metric["unit"]
    return units


def sub_seed(seed: int, tag: str) -> int:
    """A seed for one input stream, derived from the run's seed."""
    return random.Random(f"{seed}/{tag}").randrange(1 << 30)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Percentile of its samples that a timing reports (see README.md,
#: Metrics): the 5th for a lower-is-better quantity, the 95th for a
#: higher-is-better one.  Nearest rank, so of 20 samples the best.
FAVOURABLE = 5


def favourable(values: list[float], better: str = "lower") -> float:
    """The favourable value of ``values``: their ``FAVOURABLE``-th
    percentile, or the ``100 - FAVOURABLE``-th if higher is better.

    The 2-vCPU host this was written on alternates between a fast state
    and one about 1.6x slower (a busy neighbour on the core), switching
    every quarter second to minute; process CPU time slows with it, so
    it is not steal.  A median depends on how much of the run fell in
    the slow state, which changes from run to run; the favourable value
    is the program's cost in the fast state.
    """
    q = FAVOURABLE if better == "lower" else 100 - FAVOURABLE
    return percentile(values, q)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------
def git_commit() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def host_record(repro_parallel: str | None) -> dict:
    """Host fingerprint; ``repro_parallel`` is the ``REPRO_PARALLEL``
    value the run found (and removed: runs are serial)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "repro_parallel_ignored": repro_parallel,
    }


# ----------------------------------------------------------------------
# The paper's query mix
# ----------------------------------------------------------------------
def zipf_counts(qids: list[str], size: int = MIX_SIZE) -> dict[str, int]:
    """How often each query appears in one pass of the Zipf mix.

    Ranks follow ``repro.workload.generator.mixed_workload`` (templates
    sorted by id, weight ``1/rank``), but the counts are the exact
    expected shares, apportioned by largest remainder, instead of a
    random draw: a draw of 15 would change the mix's cost from seed to
    seed by more than the effects the benchmark has to resolve.  The
    seed still orders each pass.
    """
    ordered = sorted(qids)
    weights = [1.0 / (rank + 1) for rank in range(len(ordered))]
    total = sum(weights)
    shares = [size * w / total for w in weights]
    counts = [int(s) for s in shares]
    leftover = size - sum(counts)
    by_remainder = sorted(
        range(len(ordered)), key=lambda i: shares[i] - counts[i],
        reverse=True,
    )
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return dict(zip(ordered, counts))


def qid_order(qid: str) -> int:
    return int(qid.lstrip("Q"))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def flattened(rows: list[list]) -> list:
    """Every scalar value of ``rows``, lists expanded, in sorted order.

    The optimized schema may change a query's shape (MED Q6 returns one
    list of descriptions per drug instead of one row per description),
    so DIR and OPT are compared on the multiset of values they return.
    """
    values = []
    for row in rows:
        for value in row:
            if isinstance(value, list):
                values.extend(value)
            else:
                values.append(value)
    return sorted(values, key=repr)


def has_entities(rows: list[list]) -> bool:
    from repro.graphdb.query.executor import EdgeBinding, VertexBinding

    return any(
        isinstance(value, (VertexBinding, EdgeBinding))
        for row in rows for value in row
    )


def same_answer(dir_rows: list[list], opt_rows: list[list]) -> bool:
    """DIR and OPT agree: equal flattened multisets, or - for entity
    columns, whose vertex ids differ between graphs - equal row counts."""
    if has_entities(dir_rows) or has_entities(opt_rows):
        return len(dir_rows) == len(opt_rows)
    return flattened(dir_rows) == flattened(opt_rows)


# ----------------------------------------------------------------------
# Timed schema building: build_pipeline's steps, one call at a time
# ----------------------------------------------------------------------
@dataclass
class Schemas:
    """One dataset's optimized mapping, graphs and rewritten queries."""

    dataset: object
    result: object
    opt_graph: object
    rewritten: dict
    dir_graph: object = None
    timings: dict[str, float] = field(default_factory=dict)


def optimize_dataset(dataset) -> object:
    """The optimizer call ``build_pipeline`` makes for ``dataset``."""
    from repro.bench.harness import (
        MICROBENCH_BUDGET_FRACTION,
        MICROBENCH_THRESHOLDS,
    )
    from repro.optimizer.costmodel import CostBenefitModel
    from repro.optimizer.pgsg import optimize

    workload = dataset.query_workload()
    model = CostBenefitModel(
        dataset.ontology, dataset.stats, workload, MICROBENCH_THRESHOLDS
    )
    budget = model.budget_for_fraction(MICROBENCH_BUDGET_FRACTION)
    return optimize(
        dataset.ontology, dataset.stats, budget, workload,
        MICROBENCH_THRESHOLDS,
    )


def build_schemas(builder, scale: float, with_dir: bool = True) -> Schemas:
    """Ontology -> optimize -> generate -> load DIR/OPT -> freeze -> stats.

    The same steps as ``repro.bench.harness.build_pipeline`` with the
    snapshot cache bypassed, each timed on its own.  The instance data
    comes from the dataset's own generation seed, as in the pipeline:
    other seeds change the graphs' fan-outs, and with them the cost of
    the mix, by up to a third.
    """
    from repro.data.loader import load_direct, load_optimized
    from repro.workload.rewriter import QueryRewriter

    timings: dict[str, float] = {}

    def timed(step: str, fn):
        started = clock()
        value = fn()
        timings[step] = timings.get(step, 0.0) + clock() - started
        return value

    dataset = timed("ontology", builder)
    result = timed("optimize", lambda: optimize_dataset(dataset))
    logical = timed("generate", lambda: dataset.logical(scale=scale))
    dir_graph = None
    if with_dir:
        dir_graph = timed(
            "load_dir",
            lambda: load_direct(logical, name=f"{dataset.name}-DIR"),
        )
    opt_graph = timed(
        "load_opt",
        lambda: load_optimized(
            logical, result.mapping, name=f"{dataset.name}-OPT"
        ),
    )
    del logical
    graphs = [g for g in (dir_graph, opt_graph) if g is not None]
    timed("freeze", lambda: [g.freeze() for g in graphs])
    timed("stats", lambda: [g.statistics() for g in graphs])
    rewriter = QueryRewriter(dataset.ontology, result.mapping)
    rewritten = timed(
        "rewrite",
        lambda: {
            qid: rewriter.rewrite(text)
            for qid, text in dataset.queries.items()
        },
    )
    return Schemas(
        dataset=dataset, result=result, opt_graph=opt_graph,
        rewritten=rewritten, dir_graph=dir_graph, timings=timings,
    )


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Metric name -> measured value (units come from the spec).
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: ``(check name, passed, detail)`` for every output check made.
    checks: list[tuple[str, bool, str]]
    #: Scales, rates, connection counts: what the run was asked to do.
    config: dict
    #: Graph name -> ``{"vertices": n, "edges": m}``.
    graphs: dict
    #: The issue's metric names for this workload's streams, mapped
    #: onto the benchmark-wide metric each one is reported as.
    aliases: dict[str, str] = field(default_factory=dict)
    #: Extra human-readable report lines (the paper table).
    lines: list[str] = field(default_factory=list)
    #: Known program gaps the run observed; reported, not gated.
    findings: list[str] = field(default_factory=list)


def run_inproc(session, query, params=None, trace: bool = False):
    """One closed-loop request through the in-process driver.

    Returns ``(seconds, rows, summary)``; the rows are read through the
    cursor as a client would, then the cursor is consumed for its
    summary.
    """
    started = clock()
    result = session.run(query, params, trace=trace)
    rows = [record.values() for record in result]
    summary = result.consume()
    return clock() - started, rows, summary


#: The work counters of ``ExecutionMetrics`` the benchmark reports.
COUNTERS = (
    "edge_traversals", "vertex_reads", "property_reads",
    "index_lookups", "page_misses",
)


def span_metrics(cold: list, traced: list) -> dict:
    """Phase means and path ratios from runs made with ``trace=True``.

    Both lists hold ``(wall seconds, summary)`` pairs.  ``cold`` runs
    met an empty plan cache and give the parse and plan cost per query;
    ``traced`` runs are the measured loop's and give execute time, the
    path and cache ratios, and the in-process driver overhead: the wall
    time the trace's root span does not cover.
    """

    def phase_ms(runs, phase):
        return mean([
            sum(
                span.duration_ms for span in summary.trace.root.children
                if span.name == phase
            )
            for _, summary in runs
        ])

    cached = vectorized = 0
    overhead = []
    for seconds, summary in traced:
        root = summary.trace.root
        cached += any(
            span.name == "plan" and span.attrs.get("cached")
            for span in root.children
        )
        vectorized += summary.mode == "vectorized"
        overhead.append(seconds * 1e3 - root.duration_ms)
    runs = len(traced)
    return {
        "query.parse_ms": phase_ms(cold, "parse"),
        "query.plan_ms": phase_ms(cold, "plan"),
        "query.execute_ms": phase_ms(traced, "execute"),
        "query.vectorized_ratio": vectorized / runs,
        "query.plan_cache_hit_ratio": cached / runs,
        "api.inproc_overhead_ms": mean(overhead),
    }
