"""``remote_mixed`` and ``remote_isolation``: ``repro serve`` under load.

Both workloads prepare, untimed, a data directory holding MED-OPT at
scale 10 with an index on ``Patient.patientId``, then cold-start a
``repro serve`` subprocess on it ``COLD_STARTS`` times (``setup_s`` is
the median time from spawn to the first answered query; the last
server stays up).  Load comes from this one process: at most two
threads, one connection each.  Queries go over the wire as text: the
remote driver's ``RemoteSession.run`` takes no ``Query`` AST (the
in-process ``Session.run`` does), so rewritten queries are rendered
with ``query_text``.

* ``remote_mixed``: a closed-loop reader (90% point lookups, 10%
  rewritten MED paper queries) beside an open-loop writer committing
  one vertex plus one edge per transaction at ``WRITE_RATE``.  Every
  commit advances the graph epoch, so read-path caches churn.
* ``remote_isolation``: open-loop point reads at ``READ_RATE`` beside
  grouped 3-hop analytic queries at ``ANALYTIC_RATE``.  The server runs
  RUN on its event loop, so reads that arrive during an analytic query
  wait for it.

Open-loop latencies run from each request's due time, so a stall also
charges the requests queued behind it.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    COUNTERS,
    ROOT,
    SRC,
    Outcome,
    build_schemas,
    clock,
    favourable,
    median,
    optimize_dataset,
    peak_rss_mb_of,
    percentile,
    run_inproc,
    span_metrics,
    sub_seed,
    zipf_counts,
)

SCALE = 10.0
SMOKE_SCALE = 0.25
COLD_STARTS = 5
#: remote_mixed writer: commits per second (open loop).
WRITE_RATE = 100.0
#: remote_mixed reader: every PAPER_EVERY-th read is a MED paper query
#: (a fixed interleave, so every seed sends the same share).
PAPER_EVERY = 10
#: remote_isolation: point reads and analytic queries per second.  Two
#: analytic queries a second, not one, so that a 20-second run holds 40
#: of them (see README.md, Metrics); each takes 0.12-0.2 s, so the
#: event loop is still free for most reads and the read p50 is an
#: undelayed read.
READ_RATE = 100.0
ANALYTIC_RATE = 2.0
#: GIL switch interval while the two client threads run: short, so
#: neither thread's latency includes waiting out the other's time slice
#: (the default is 5 ms).
SWITCH_INTERVAL = 0.0005
#: Connect/handshake samples taken for ``api.connect_ms``.
CONNECT_SAMPLES = 20
#: Seconds of in-process replay in a traced run.
REPLAY_SECONDS = 2.0
#: Seconds per window of the end-to-end metrics (see README.md,
#: Metrics): one analytic period, so every remote_isolation window holds
#: one analytic query and the reads it delays.
WINDOW = 0.5
STARTUP_TIMEOUT = 120.0
STOP_TIMEOUT = 15.0

POINT_QUERY = "MATCH (p:Patient {patientId: $id}) RETURN p.patientId, p.age"
ANALYTIC_QUERY = (
    "MATCH (p:Patient)-[:takes]->(d:Drug)<-[:takes]-(q:Patient)"
    "-[:takes]->(e:Drug) RETURN d.name, count(*) AS n"
)
DURABLE_QUERY = (
    "MATCH (p:Patient {patientId: $id})-[:takes]->(d:Drug) RETURN d.name"
)

WORK_DIR = ROOT / "perfbench" / ".work"


# ----------------------------------------------------------------------
# The server subprocess
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` child on ephemeral ports.

    Its output goes to a log file, never to a pipe this process holds,
    so a child that outlives a failed run cannot keep the benchmark's
    own output open.  :meth:`stop` always reaps the child.
    """

    def __init__(self, data_dir: Path, log_path: Path):
        self.data_dir = data_dir
        self.log_path = log_path
        self.url: str | None = None
        self.http: str | None = None
        self._proc: subprocess.Popen | None = None

    def start(self) -> "ServerProcess":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    str(self.data_dir), "--port", "0", "--http-port", "0",
                ],
                stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, env=env, cwd=str(ROOT),
            )
        return self

    def wait_ready(self) -> None:
        deadline = clock() + STARTUP_TIMEOUT
        while clock() < deadline:
            text = self.log_path.read_text(errors="replace")
            url = re.search(r"on (repro://\S+)", text)
            http = re.search(r"(http://\S+)", text)
            if url and http:
                self.url, self.http = url.group(1), http.group(1)
                return
            if self._proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("repro serve did not start in time")

    @property
    def pid(self) -> int:
        return self._proc.pid

    def metrics(self) -> dict[str, float]:
        """The ``/metrics`` exposition as ``{series: value}``."""
        with urllib.request.urlopen(self.http + "/metrics", timeout=30) as r:
            body = r.read().decode()
        out = {}
        for line in body.splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                out[series] = float(value)
        return out

    def stop(self) -> None:
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _delta(before: dict, after: dict, series: str) -> float:
    return after.get(series, 0.0) - before.get(series, 0.0)


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """Samples of one request stream (all times in seconds)."""

    #: ``(due, done)`` per completed request; latency is the difference.
    events: list[tuple[float, float]] = field(default_factory=list)
    #: Latency minus the server's execution time: the round trip's
    #: wait, plus, in an open loop, the wait for the connection to free.
    queue_wait: list[float] = field(default_factory=list)
    first_record: list[float] = field(default_factory=list)
    pull: list[float] = field(default_factory=list)
    #: Open loop: how long after it could have been sent a request
    #: went out (due, or the previous response if that came later).
    late: list[float] = field(default_factory=list)
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    started: float = 0.0

    def windowed(self, seconds: float, closed: bool, single: bool):
        """qps, p50 ms and p99 ms per window, reduced across windows
        (see README.md, Metrics).  Latencies are binned by due time.

        A window's p50 over many requests is steady, so the run reports
        the median window.  A window's p99 is one request - for a read,
        the one queued longest behind an analytic query - and so is
        every latency of a ``single`` stream (one request per window):
        those follow the host's speed, and the run reports the
        favourable window.  A closed loop's rate is taken per window
        from its completions (favourable window); an open loop completes
        what it was offered, so its rate is the whole run's: requests
        over first due to last completion.
        """
        n = max(1, int(seconds // WINDOW))
        latency = [[] for _ in range(n)]
        finished = [[] for _ in range(n)]
        for due, end in self.events:
            i = int((due - self.started) // WINDOW)
            if 0 <= i < n:
                latency[i].append(end - due)
                finished[i].append(end)
        latency = [lat for lat in latency if lat]
        if closed:
            qps = favourable([
                (len(ends) - 1) / (max(ends) - min(ends))
                for ends in finished if len(ends) > 1
            ], "higher")
        else:
            last = max(end for _, end in self.events)
            qps = len(self.events) / (last - self.started)
        across = favourable if single else median
        return (
            qps,
            across([percentile(x, 50) * 1e3 for x in latency]),
            favourable([percentile(x, 99) * 1e3 for x in latency]),
        )


def _read(session, stream: Stream, text: str, params: dict, due: float):
    """One remote query; records its spans and returns its rows."""
    sent = clock()
    result = session.run(text, params)
    cursor = iter(result)
    first = next(cursor, None)
    got_first = clock()
    rows = [] if first is None else [first.values()]
    rows.extend(record.values() for record in cursor)
    summary = result.consume()
    done = clock()
    stream.events.append((due, done))
    stream.first_record.append(got_first - sent)
    stream.pull.append(done - got_first)
    stream.queue_wait.append(done - due - summary.elapsed_ms / 1e3)
    stream.rows += len(rows)
    return rows


def _guarded(stream: Stream, fn) -> None:
    """Run one request; a failed or refused request counts as failed."""
    stream.attempted += 1
    try:
        fn()
    except Exception:
        stream.failed += 1
        traceback.print_exc(file=sys.stderr)


def _open_loop(stream: Stream, rate: float, count: int, start: float, fn,
               stop: threading.Event):
    """Send ``count`` requests at ``rate``/s from ``start``, each timed
    from its due time; ``fn(i, due)`` issues request ``i``.  Ends early
    once ``stop`` is set."""
    stream.started = start
    free = start
    for i in range(count):
        due = start + i / rate
        if stop.wait(max(0.0, due - clock())):
            return
        stream.late.append(max(0.0, clock() - max(due, free)))
        _guarded(stream, lambda: fn(i, due))
        free = clock()


class _SideThread(threading.Thread):
    """The second client thread; :meth:`finish` re-raises its error."""

    def __init__(self, target):
        super().__init__(name="perfbench-side")
        self._body = target
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self._body()
        except BaseException as exc:  # re-raised by finish()
            self.error = exc

    def finish(self, timeout: float) -> None:
        self.join(timeout)
        if self.is_alive():
            raise RuntimeError("side stream did not finish in time")
        if self.error is not None:
            raise self.error


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    schemas: object
    data_dir: Path
    patients: list
    drugs: list
    paper: dict  # qid -> rewritten query text
    prepare_s: float


def _prepare(scale: float, work: Path) -> Prepared:
    from repro.datasets import build_med
    from repro.graphdb.query.ast import query_text
    from repro.graphdb.storage import GraphStore

    started = clock()
    schemas = build_schemas(build_med, scale, with_dir=False)
    graph = schemas.opt_graph
    graph.create_property_index("Patient", "patientId")
    data_dir = work / "data"
    GraphStore.create(data_dir, graph).close()
    patients = [
        graph.get_property(v, "patientId")
        for v in graph.vertices_with_label("Patient")
    ]
    drugs = [
        (v, graph.get_property(v, "name"))
        for v in graph.vertices_with_label("Drug")
    ]
    paper = {
        qid: query_text(ast) for qid, ast in schemas.rewritten.items()
    }
    return Prepared(schemas, data_dir, patients, drugs, paper,
                    clock() - started)


def _cold_start(prepared: Prepared, work: Path, n: int, probe_id: str):
    """Spawn a server; seconds until it answers its first query."""
    from repro.graphdb.api import connect

    started = clock()
    server = ServerProcess(prepared.data_dir, work / f"serve-{n}.log")
    try:
        server.start().wait_ready()
        db = connect(server.url)
        try:
            with db.session() as session:
                rows = session.run(POINT_QUERY, id=probe_id).values()
        finally:
            db.close()
        elapsed = clock() - started
        if len(rows) != 1 or rows[0][0] != probe_id:
            raise RuntimeError(f"cold-start probe returned {rows!r}")
        return server, elapsed
    except BaseException:
        server.stop()
        raise


def _canonical(rows) -> list:
    return sorted(repr(row) for row in rows)


def _compare_paper(url: str, prepared: Prepared, checks: list,
                   findings: list) -> None:
    """Remote rows equal in-process rows for every MED query.

    Both sides run the same text, so the check covers the wire path.
    Where that text answers differently from the rewritten AST the
    in-process driver runs, the text form itself is lossy; that is
    reported as a finding (see README: remote query text).
    """
    from repro.graphdb.api import connect

    graph = prepared.schemas.opt_graph
    db = connect(url)
    try:
        with db.session() as remote, connect(graph).session() as local:
            for qid in sorted(prepared.paper, key=lambda q: int(q[1:])):
                text = prepared.paper[qid]
                got = _canonical(remote.run(text).values())
                want = _canonical(local.run(text).values())
                checks.append((
                    f"remote_vs_inproc.MED.{qid}", got == want,
                    f"{len(got)} remote rows, {len(want)} in-process rows",
                ))
                ast = prepared.schemas.rewritten[qid]
                if _canonical(local.run(ast).values()) != want:
                    findings.append(
                        f"MED {qid}: query_text() of the rewritten query "
                        "answers differently from the rewritten AST "
                        "(the text form has no syntax for a flattened "
                        "aggregate); the remote reader sends the text"
                    )
    finally:
        db.close()


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> Outcome:
    scale = SMOKE_SCALE if smoke else SCALE
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    server = None
    try:
        prepared = _prepare(scale, work)
        rng = random.Random(sub_seed(seed, workload))
        setup_times = []
        recover_s = []
        for n in range(COLD_STARTS):
            if server is not None:
                server.stop()
            server, elapsed = _cold_start(
                prepared, work, n, rng.choice(prepared.patients)
            )
            setup_times.append(elapsed)
            recover_s.append(
                server.metrics().get("repro_recovery_seconds_sum", 0.0)
            )
        checks: list = []
        findings: list = []
        _compare_paper(server.url, prepared, checks, findings)
        load = _Load(workload, server, prepared, rng, seconds, seed)
        connect_ms = load.connect_samples() if trace else []
        before = server.metrics()
        load.run()
        after = server.metrics()
        peak_rss = peak_rss_mb_of(server.pid)
        server.stop()
        server = None
        load.check(checks)
        metrics = load.end_to_end(setup_times, peak_rss)
        if trace:
            metrics = load.layers(before, after, connect_ms, recover_s)
        return Outcome(
            metrics=metrics,
            attempted=load.attempted,
            failed=load.failed,
            checks=checks,
            config=load.config(scale, prepared, setup_times),
            graphs={
                "MED-OPT": {
                    "vertices": prepared.schemas.opt_graph.num_vertices,
                    "edges": prepared.schemas.opt_graph.num_edges,
                }
            },
            aliases=load.aliases(),
            findings=findings,
        )
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run's directory is still there


class _Load:
    """The two client streams of one remote workload."""

    def __init__(self, workload, server, prepared, rng, seconds, seed):
        self.workload = workload
        self.server = server
        self.prepared = prepared
        self.rng = rng
        self.seconds = seconds
        self.seed = seed
        self.read = Stream()
        self.side = Stream()
        self.acked: list[tuple[str, str]] = []
        self.paper_qids = sorted(prepared.paper)
        self._requests = self._read_requests()
        self.expected_analytic = None
        if workload == "remote_isolation":
            from repro.graphdb.api import connect

            with connect(prepared.schemas.opt_graph).session() as s:
                self.expected_analytic = _canonical(
                    s.run(ANALYTIC_QUERY).values()
                )

    @property
    def attempted(self) -> int:
        return self.read.attempted + self.side.attempted

    @property
    def failed(self) -> int:
        return self.read.failed + self.side.failed

    def _read_requests(self):
        """The mixed reader's requests: point lookups of seeded patients,
        with every ``PAPER_EVERY``-th one a rewritten MED paper query,
        cycling through the Zipf mix in a seeded order."""
        mix = []
        for qid, count in zipf_counts(self.paper_qids).items():
            mix.extend([qid] * count)
        while True:
            cycle = list(mix)
            self.rng.shuffle(cycle)
            for qid in cycle:
                for _ in range(PAPER_EVERY - 1):
                    pid = self.rng.choice(self.prepared.patients)
                    yield POINT_QUERY, {"id": pid}, pid
                yield self.prepared.paper[qid], {}, None

    def _replay_request(self):
        if self.workload == "remote_mixed":
            return next(self._requests)[:2]
        return POINT_QUERY, {"id": self.rng.choice(self.prepared.patients)}

    def _point(self, session, pid, due):
        rows = _read(session, self.read, POINT_QUERY, {"id": pid}, due)
        if len(rows) != 1 or rows[0][0] != pid:
            self.read.wrong += 1

    def connect_samples(self) -> list[float]:
        from repro.graphdb.api import connect

        samples = []
        for _ in range(CONNECT_SAMPLES):
            started = clock()
            db = connect(self.server.url)
            session = db.session()
            samples.append(clock() - started)
            session.close()
            db.close()
        return samples

    def run(self) -> None:
        from repro.graphdb.api import connect

        read_db = connect(self.server.url)
        side_db = connect(self.server.url)
        read_session = read_db.session()
        side_session = side_db.session()
        # The side thread draws from its own generator; the reader's
        # stays on this thread.
        side_rng = random.Random(sub_seed(self.seed, "side"))
        stop = threading.Event()
        side = None
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL)
        try:
            self._warm(read_session)
            start = clock() + 0.05
            if self.workload == "remote_mixed":
                side = _SideThread(lambda: self._writer(
                    side_session, side_rng, start, stop
                ))
                side.start()
                self._closed_reader(read_session, start)
            else:
                side = _SideThread(lambda: _open_loop(
                    self.side, ANALYTIC_RATE,
                    max(1, int(ANALYTIC_RATE * self.seconds)), start,
                    lambda i, due: self._analytic(side_session, due),
                    stop,
                ))
                side.start()
                reads = [
                    self.rng.choice(self.prepared.patients)
                    for _ in range(int(READ_RATE * self.seconds))
                ]
                _open_loop(
                    self.read, READ_RATE, len(reads), start,
                    lambda i, due: self._point(read_session, reads[i], due),
                    stop,
                )
            side.finish(self.seconds + 120.0)
        finally:
            # On an error or interrupt the side stream stops at its next
            # request instead of running out its schedule.
            stop.set()
            if side is not None and side.is_alive():
                side.join(STOP_TIMEOUT)
            sys.setswitchinterval(switch_interval)
            for handle in (read_session, side_session, read_db, side_db):
                try:
                    handle.close()
                except Exception:
                    traceback.print_exc(file=sys.stderr)

    def _warm(self, session) -> None:
        for pid in self.prepared.patients[:20]:
            session.run(POINT_QUERY, id=pid).consume()
        for text in self.prepared.paper.values():
            session.run(text).consume()
        if self.workload == "remote_isolation":
            session.run(ANALYTIC_QUERY).consume()

    def _closed_reader(self, session, start: float) -> None:
        time.sleep(max(0.0, start - clock()))
        stream = self.read
        stream.started = clock()
        deadline = stream.started + self.seconds
        while clock() < deadline:
            text, params, pid = next(self._requests)

            def request():
                rows = _read(session, stream, text, params, clock())
                if pid is not None and (
                    len(rows) != 1 or rows[0][0] != pid
                ):
                    stream.wrong += 1

            _guarded(stream, request)

    def _writer(self, session, rng, start: float, stop) -> None:
        drugs = self.prepared.drugs

        def commit(i, due):
            pid = f"perfbench-{self.seed}-{i}"
            drug_vid, drug_name = drugs[rng.randrange(len(drugs))]
            with session.begin_tx() as tx:
                vid = tx.add_vertex(
                    "Patient", {"patientId": pid, "age": rng.randrange(90)}
                )
                tx.add_edge(vid, drug_vid, "takes")
                tx.commit()
            self.side.events.append((due, clock()))
            self.acked.append((pid, drug_name))

        _open_loop(
            self.side, WRITE_RATE, int(WRITE_RATE * self.seconds), start,
            commit, stop,
        )

    def _analytic(self, session, due: float) -> None:
        rows = _read(session, self.side, ANALYTIC_QUERY, {}, due)
        if _canonical(rows) != self.expected_analytic:
            self.side.wrong += 1

    # -- results -------------------------------------------------------
    def check(self, checks: list) -> None:
        checks.append((
            "read_rows", self.read.wrong == 0,
            f"{self.read.wrong} wrong of {len(self.read.events)} reads",
        ))
        if self.workload == "remote_isolation":
            checks.append((
                "analytic_rows", self.side.wrong == 0,
                f"{self.side.wrong} wrong of "
                f"{len(self.side.events)} analytic queries",
            ))
            return
        from repro.graphdb.api import connect
        from repro.graphdb.storage import recover_graph

        graph = recover_graph(self.prepared.data_dir)
        lost = 0
        with connect(graph).session() as session:
            for pid, drug_name in self.acked:
                rows = session.run(DURABLE_QUERY, id=pid).values()
                lost += rows != [[drug_name]]
        checks.append((
            "durability", lost == 0 and bool(self.acked),
            f"{len(self.acked) - lost} of {len(self.acked)} acknowledged "
            "commits readable after restart",
        ))

    def end_to_end(self, setup_times, peak_rss) -> dict:
        metrics = {"setup_s": median(setup_times), "peak_rss_mb": peak_rss}
        closed = self.workload == "remote_mixed"
        # remote_isolation's side stream sends one analytic query a window.
        single = self.workload == "remote_isolation"
        for prefix, stream, loop, one in (
            ("read", self.read, closed, False),
            ("side", self.side, False, single),
        ):
            qps, p50, p99 = stream.windowed(self.seconds, loop, one)
            metrics[f"{prefix}_qps"] = qps
            metrics[f"{prefix}_p50_ms"] = p50
            metrics[f"{prefix}_p99_ms"] = p99
        return metrics

    def aliases(self) -> dict:
        if self.workload == "remote_mixed":
            return {"commit_p50_ms": "side_p50_ms",
                    "commit_p99_ms": "side_p99_ms"}
        return {"analytic_p50_ms": "side_p50_ms"}

    def config(self, scale, prepared, setup_times) -> dict:
        if self.workload == "remote_mixed":
            streams = {
                "read": "closed loop, 1 connection, "
                        f"every {PAPER_EVERY}th read a MED paper query",
                "side": f"open loop, 1 connection, {WRITE_RATE:g} "
                        "commits/s (1 vertex + 1 edge each)",
            }
        else:
            streams = {
                "read": f"open loop, 1 connection, {READ_RATE:g} "
                        "point reads/s",
                "side": f"open loop, 1 connection, {ANALYTIC_RATE:g} "
                        "analytic queries/s",
            }
        return {
            "scale": scale,
            "graph": "MED-OPT",
            "streams": streams,
            "client_threads": 2,
            "connections": 2,
            "cold_starts": COLD_STARTS,
            "setup_s_samples": setup_times,
            "prepare_s": prepared.prepare_s,
            "samples": {
                "read": len(self.read.events),
                "side": len(self.side.events),
            },
        }

    def layers(self, before, after, connect_ms, recover_s) -> dict:
        """Per-layer metrics of a traced run."""
        from repro.datasets import build_fin

        timings = self.prepared.schemas.timings
        d = lambda series: _delta(before, after, series)  # noqa: E731
        commits = len(self.acked)
        fsyncs = d("repro_wal_fsync_seconds_count")
        runs = d('repro_server_requests_total{type="run"}')
        fetches = runs + d('repro_server_requests_total{type="pull"}') + d(
            'repro_server_requests_total{type="discard"}'
        )
        requests = d("repro_server_request_seconds_count")
        rows = self.read.rows + self.side.rows
        read = self.read
        out = {
            "optimizer.optimize_ms": timings["optimize"] * 1e3,
            "optimizer.benefit_ratio.MED":
                self.prepared.schemas.result.benefit_ratio,
            "optimizer.benefit_ratio.FIN":
                optimize_dataset(build_fin()).benefit_ratio,
            "data.generate_s": timings["generate"],
            "data.load_opt_s": timings["load_opt"],
            "graph.freeze_s": timings["freeze"],
            "graph.stats_build_s": timings["stats"],
            "storage.recover_s": median(recover_s),
            "api.connect_ms": median(connect_ms) * 1e3,
            "api.first_record_ms": median(read.first_record) * 1e3,
            "api.pull_ms": median(read.pull) * 1e3,
            "server.request_ms":
                d("repro_server_request_seconds_sum") / requests * 1e3,
            "server.bytes_out_per_row":
                d("repro_server_bytes_written_total") / max(1, rows),
            "server.requests_per_query": fetches / runs,
            "server.queue_wait_ms": percentile(read.queue_wait, 99) * 1e3,
            "bench.generator_late_ms":
                percentile(read.late + self.side.late, 99) * 1e3,
        }
        if commits:
            out["storage.fsync_ms"] = (
                d("repro_wal_fsync_seconds_sum") / fsyncs * 1e3
            )
            out["storage.fsyncs_per_commit"] = fsyncs / commits
            out["storage.wal_bytes_per_commit"] = (
                d("repro_wal_flushed_bytes_total") / commits
            )
        out.update(self._replay())
        return out

    def _replay(self) -> dict:
        """The read stream's queries replayed in-process with tracing:
        parse/plan/execute spans, work counts for one pass of the MED
        paper mix, and the tracing overhead (traced vs untraced)."""
        from repro.graphdb.api import connect

        schemas = self.prepared.schemas
        rng = random.Random(sub_seed(self.seed, "replay"))
        session = connect(schemas.opt_graph).session()
        try:
            cold = [
                _timed_summary(session, ast, None)
                for ast in schemas.rewritten.values()
            ]
            cold.append(_timed_summary(
                session, POINT_QUERY,
                {"id": rng.choice(self.prepared.patients)},
            ))
            mix = []
            for qid, count in zipf_counts(self.paper_qids).items():
                mix.extend([qid] * count)
            rng.shuffle(mix)
            first_pass = [
                run_inproc(session, schemas.rewritten[qid])[2]
                for qid in mix
            ]
            out = {}
            for counter in COUNTERS:
                out[f"query.opt.{counter}"] = float(sum(
                    getattr(s.metrics, counter) for s in first_pass
                ))
            out["query.opt.sim_ms"] = sum(s.latency_ms for s in first_pass)
            plain, traced_passes, traced = [], [], []
            deadline = clock() + REPLAY_SECONDS
            while clock() < deadline or not traced:
                batch = [self._replay_request() for _ in range(20)]
                for sink in (plain, traced_passes):
                    trace = sink is traced_passes
                    started = clock()
                    for text, params in batch:
                        pair = _timed_summary(session, text, params, trace)
                        if trace:
                            traced.append(pair)
                    sink.append(clock() - started)
            out.update(span_metrics(cold, traced))
            out["observe.trace_overhead_pct"] = (
                median(traced_passes) / median(plain) - 1.0
            ) * 100.0
            return out
        finally:
            session.close()



def _timed_summary(session, query, params, trace=True):
    """``(seconds, summary)`` of one in-process run, for span_metrics."""
    seconds, _, summary = run_inproc(session, query, params, trace)
    return seconds, summary
