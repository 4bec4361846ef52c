"""``paper_inproc``: the paper's DIR-vs-OPT experiment, in-process.

Setup builds MED at scale 10 and FIN at scale 2 from scratch (no
snapshot cache), both schemas each, ``SETUP_REPEATS`` times; the
reported ``setup_s`` is the median.  Each build is followed by an equal
share of the measured loop.

The loop is closed with one client: passes of the Figure 12 Zipf mix
(15 MED + 15 FIN queries, order drawn from the seed) alternate between
the DIR graphs, which run the original query text, and the OPT graphs,
which run the rewritten query.  Every query goes through
``connect(graph).session().run()``.  A warm-up runs every query on both
schemas first, filling the plan and array caches and collecting the
rows the DIR-vs-OPT check compares.

Stream mapping: ``read_*`` is the OPT schema (the issue's ``opt_qps``),
``side_*`` the DIR schema (``dir_qps``).  Each query's latency is the
favourable value of its samples over the run (``common.favourable``);
one pass of the mix, each query at that latency, gives the stream's
metrics: throughput is the pass size over the sum, and the latency
percentiles are taken over the pass's 30 requests (so its p99 is the
slowest query's latency).
"""

from __future__ import annotations

import gc
import random
import sys
import traceback

from common import (
    COUNTERS,
    Outcome,
    build_schemas,
    clock,
    favourable,
    median,
    peak_rss_mb_self,
    percentile,
    qid_order,
    run_inproc,
    same_answer,
    span_metrics,
    sub_seed,
    zipf_counts,
)

SCALES = {"MED": 10.0, "FIN": 2.0}
SMOKE_SCALES = {"MED": 0.25, "FIN": 0.25}
SETUP_REPEATS = 3
WARMUP_ROUNDS = 2


def _builders() -> dict:
    from repro.datasets import build_fin, build_med

    return {"MED": build_med, "FIN": build_fin}


class _Mix:
    """The four sessions and the query text/AST per (dataset, schema)."""

    def __init__(self, built: dict):
        from repro.graphdb.api import connect

        self.built = built
        self.sessions = {}
        self.queries = {}
        for name, schemas in built.items():
            for schema, graph in (
                ("dir", schemas.dir_graph), ("opt", schemas.opt_graph)
            ):
                self.sessions[name, schema] = connect(graph).session()
            for qid, text in schemas.dataset.queries.items():
                self.queries[name, "dir", qid] = text
                # OPT runs the rewriter's AST, as build_pipeline hands it.
                self.queries[name, "opt", qid] = schemas.rewritten[qid]
        self.entries = []
        for name, schemas in built.items():
            for qid, count in zipf_counts(
                list(schemas.dataset.queries)
            ).items():
                self.entries.extend([(name, qid)] * count)

    def run(self, name, schema, qid, trace=False):
        return run_inproc(
            self.sessions[name, schema],
            self.queries[name, schema, qid],
            trace=trace,
        )

    def close(self) -> None:
        for session in self.sessions.values():
            session.close()


def _build(scales: dict):
    """Both datasets' schemas, built from scratch; ``(built, seconds)``."""
    builders = _builders()
    started = clock()
    built = {
        name: build_schemas(builders[name], scales[name])
        for name in ("MED", "FIN")
    }
    return built, clock() - started


def _warm_up(mix: _Mix, checks: list, cold: list, trace: bool) -> dict:
    """Run every query on both schemas; check DIR vs OPT; return the
    simulated latency of each (dataset, schema, qid) on a warm cache.

    The first round meets an empty plan cache; with ``trace`` its
    ``(seconds, summary)`` pairs go to ``cold`` for the parse and plan
    spans, which a warm cache skips."""
    sim = {}
    keys = sorted(
        {(name, qid) for name, qid in mix.entries},
        key=lambda k: qid_order(k[1]),
    )
    for round_no in range(WARMUP_ROUNDS):
        for name, qid in keys:
            rows = {}
            first = round_no == 0
            for schema in ("dir", "opt"):
                seconds, rows[schema], summary = mix.run(
                    name, schema, qid, trace=trace and first
                )
                sim[name, schema, qid] = summary.latency_ms
                if trace and first:
                    cold.append((seconds, summary))
            if first:
                ok = same_answer(rows["dir"], rows["opt"])
                checks.append((
                    f"dir_vs_opt.{name}.{qid}", ok,
                    f"{len(rows['dir'])} DIR rows, "
                    f"{len(rows['opt'])} OPT rows",
                ))
    return sim


def _closed_loop(mix: _Mix, loop, rng, seconds: float, trace: bool):
    """Alternate DIR and OPT passes (plus traced ones) for ``seconds``."""
    deadline = clock() + seconds
    i = 0
    while clock() < deadline or i < 2:
        order = list(mix.entries)
        rng.shuffle(order)
        schemas = ("dir", "opt") if i % 2 == 0 else ("opt", "dir")
        for schema in schemas:
            loop.run_pass(mix, order, schema, traced=False)
        if trace:
            for schema in reversed(schemas):
                loop.run_pass(mix, order, schema, traced=True)
        i += 1


class _Loop:
    """Latencies and pass times collected by the closed loop."""

    def __init__(self):
        self.latency = {"dir": [], "opt": [], "dir_traced": [],
                        "opt_traced": []}
        self.per_query = {}
        self.passes = {"dir": [], "opt": [], "dir_traced": [],
                       "opt_traced": []}
        self.summaries = {"dir_traced": [], "opt_traced": []}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, mix: _Mix, order, schema: str, traced: bool):
        key = f"{schema}_traced" if traced else schema
        started = clock()
        for name, qid in order:
            self.attempted += 1
            try:
                seconds, _, summary = mix.run(name, schema, qid, traced)
            except Exception:  # a failing paper query: count, go on
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            self.latency[key].append(seconds)
            if traced:
                self.summaries[key].append((seconds, summary))
            else:
                self.per_query.setdefault((schema, qid), []).append(
                    seconds
                )
        self.passes[key].append(clock() - started)

    def query_latency(self, schema: str, qid: str) -> float:
        """One query's latency in seconds: the favourable value of its
        untraced samples."""
        return favourable(self.per_query[schema, qid])

    def stream(self, schema: str, entries) -> tuple[float, float, float]:
        """qps, p50 ms and p99 ms of one schema: one pass of the mix
        ``entries``, each query at its :meth:`query_latency`."""
        latencies = [self.query_latency(schema, qid) for _, qid in entries]
        return (
            len(latencies) / sum(latencies),
            percentile(latencies, 50) * 1e3,
            percentile(latencies, 99) * 1e3,
        )


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> Outcome:
    scales = SMOKE_SCALES if smoke else SCALES
    repeats = 1 if trace else SETUP_REPEATS
    rng = random.Random(sub_seed(seed, "order"))
    loop = _Loop()
    checks: list = []
    cold: list = []
    setup_times = []
    # Each build is followed by its share of the loop, so the measured
    # passes are spread over the whole run instead of its last seconds
    # (see README.md, Metrics).  The previous build is dropped first.
    for segment in range(repeats):
        built = mix = None
        gc.collect()
        built, seconds_built = _build(scales)
        setup_times.append(seconds_built)
        mix = _Mix(built)
        try:
            sim = _warm_up(
                mix, checks if segment == 0 else [], cold, trace
            )
            _closed_loop(mix, loop, rng, seconds / repeats, trace)
        finally:
            mix.close()

    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb_self(),
    }
    for prefix, schema in (("read", "opt"), ("side", "dir")):
        qps, p50, p99 = loop.stream(schema, mix.entries)
        metrics[f"{prefix}_qps"] = qps
        metrics[f"{prefix}_p50_ms"] = p50
        metrics[f"{prefix}_p99_ms"] = p99
    table, speedups = _paper_table(mix, loop, sim)
    if trace:
        metrics.update(_layer_metrics(built, loop, cold, mix, speedups))
    outcome = Outcome(
        metrics=metrics,
        attempted=loop.attempted,
        failed=loop.failed,
        checks=checks,
        config={
            "scales": scales,
            "setup_repeats": repeats,
            "setup_s_samples": setup_times,
            "mix_per_pass": {
                name: zipf_counts(list(s.dataset.queries))
                for name, s in built.items()
            },
            "loop": "closed, 1 client, DIR and OPT passes alternating",
            "clients": 1,
            "connections": 0,
            "passes": {k: len(v) for k, v in loop.passes.items() if v},
            "samples": {k: len(v) for k, v in loop.latency.items() if v},
        },
        graphs={
            graph.name: {
                "vertices": graph.num_vertices, "edges": graph.num_edges,
            }
            for s in built.values()
            for graph in (s.dir_graph, s.opt_graph)
        },
        aliases={"opt_qps": "read_qps", "dir_qps": "side_qps"},
        lines=table,
    )
    return outcome


def _paper_table(mix: _Mix, loop: _Loop, sim: dict):
    """Per query: DIR/OPT wall latency, simulated ms, both speedups."""
    lines = [
        "paper table (wall = ms, favourable value over the loop, sim = "
        "BackendProfile ms on a warm cache):",
        f"  {'query':<10}{'DIR wall':>10}{'OPT wall':>10}{'DIR sim':>10}"
        f"{'OPT sim':>10}{'wall x':>9}{'sim x':>9}",
    ]
    speedups = {}
    keys = sorted(
        {(name, qid) for name, qid in mix.entries},
        key=lambda k: qid_order(k[1]),
    )
    for name, qid in keys:
        dir_wall = loop.query_latency("dir", qid) * 1e3
        opt_wall = loop.query_latency("opt", qid) * 1e3
        dir_sim = sim[name, "dir", qid]
        opt_sim = sim[name, "opt", qid]
        wall_x = dir_wall / opt_wall
        sim_x = dir_sim / opt_sim
        speedups[qid] = (wall_x, sim_x)
        lines.append(
            f"  {qid + '(' + name + ')':<10}{dir_wall:>10.3f}"
            f"{opt_wall:>10.3f}{dir_sim:>10.3f}{opt_sim:>10.3f}"
            f"{wall_x:>9.2f}{sim_x:>9.2f}"
        )
    mix_wall = (
        sum(loop.query_latency("dir", qid) for _, qid in mix.entries)
        / sum(loop.query_latency("opt", qid) for _, qid in mix.entries)
    )
    mix_sim = (
        sum(sim[name, "dir", qid] for name, qid in mix.entries)
        / sum(sim[name, "opt", qid] for name, qid in mix.entries)
    )
    speedups["mix"] = (mix_wall, mix_sim)
    lines.append(
        f"  {'whole mix':<50}{mix_wall:>9.2f}{mix_sim:>9.2f}"
    )
    return lines, speedups


def _layer_metrics(built, loop: _Loop, cold, mix, speedups) -> dict:
    timings = {}
    for schemas in built.values():
        for step, seconds in schemas.timings.items():
            timings[step] = timings.get(step, 0.0) + seconds
    out = {
        "optimizer.optimize_ms": timings["optimize"] * 1e3,
        "optimizer.benefit_ratio.MED": built["MED"].result.benefit_ratio,
        "optimizer.benefit_ratio.FIN": built["FIN"].result.benefit_ratio,
        "data.generate_s": timings["generate"],
        "data.load_dir_s": timings["load_dir"],
        "data.load_opt_s": timings["load_opt"],
        "graph.freeze_s": timings["freeze"],
        "graph.stats_build_s": timings["stats"],
    }
    traced = loop.summaries["dir_traced"] + loop.summaries["opt_traced"]
    out.update(span_metrics(cold, traced))
    # Exact work counts for one pass of the mix: the first traced pass
    # of each schema runs the seeded order on warm caches.
    n = len(mix.entries)
    for schema in ("dir", "opt"):
        first_pass = loop.summaries[f"{schema}_traced"][:n]
        for counter in COUNTERS:
            out[f"query.{schema}.{counter}"] = float(sum(
                getattr(summary.metrics, counter)
                for _, summary in first_pass
            ))
        out[f"query.{schema}.sim_ms"] = sum(
            summary.latency_ms for _, summary in first_pass
        )
    for qid, (wall_x, sim_x) in speedups.items():
        prefix = "schema" if qid == "mix" else f"schema.{qid}"
        out[f"{prefix}.wall_speedup"] = wall_x
        out[f"{prefix}.sim_speedup"] = sim_x
    out["observe.trace_overhead_pct"] = (
        favourable(loop.passes["opt_traced"])
        / favourable(loop.passes["opt"])
        - 1.0
    ) * 100.0
    return out
