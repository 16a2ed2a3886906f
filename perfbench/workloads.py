"""The two workloads and one measured iteration of each.

Everything is built from the public ``repro`` API: the web from
``WebGraphConfig`` / ``scale_web_config``, the crawl from
``BingoConfig`` + ``BingoEngine``, the portal from ``LivingPortal``,
checkpoints from ``Checkpointer`` and the query load through
``QueryServer.handle``.  Every iteration generates its own
``SyntheticWeb``: the web's server keeps per-URL fetch-attempt state
that survives a crawl, so a reused web would feed the next crawl
different inputs.

One iteration is: set-up (web, engine), a learning + harvest crawl,
``LivingPortal.open()``, then ``cycles`` rounds of evolve-to-the-next-
hour + ``recrawl`` each followed by a closed-loop Zipfian query burst.
The correctness checks run between the timed regions.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import pathlib
import random
import shutil
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import repro.core.engine as engine_module
import repro.portal.runtime as portal_runtime
from repro.core import BingoConfig, BingoEngine
from repro.portal import EvolutionConfig, LivingPortal
from repro.robust.checkpoint import Checkpointer
from repro.search.engine import LocalSearchEngine
from repro.search.serving import QueryRequest, QueryServer, build_query_pool
from repro.storage.persistence import load_database
from repro.web import SyntheticWeb, WebGraphConfig, scale_web_config
from repro.web.clock import SimulatedClock

from tracing import SpanRecorder

DEFAULT_SEED = 7
#: the web and crawl configuration seed, fixed per workload: ``--seed``
#: drives the evolution schedule and the query stream (see README.md)
CRAWL_SEED = 7
STAGES = ("admit", "fetch", "convert", "analyze", "classify", "persist",
          "expand")
LEARNING_BUDGET = 80
RECRAWL_BUDGET = 200
QUERY_POOL_SIZE = 200
ZIPF_S = 1.1
REPLAY_FRACTION = 0.05
#: requests per cycle re-ranked by brute force
BRUTE_SAMPLES = 10
#: pool queries compared against a from-scratch rebuild at the end
REBUILD_SAMPLE = 40


def portal_web_config(seed: int) -> WebGraphConfig:
    """The small portal web (981 pages at seed 7)."""
    return WebGraphConfig(
        seed=seed,
        target_researchers=40,
        other_researchers=12,
        universities=10,
        hubs_per_topic=3,
        background_hosts_per_category=3,
        pages_per_background_host=3,
        directory_pages_per_category=4,
    )


@dataclass(frozen=True)
class Workload:
    web_config: Callable[[int], WebGraphConfig]
    crawl_workers: int
    crawler_threads: int
    batch_size: int
    harvest: int
    checkpoints: bool
    cycles: int
    queries_per_cycle: int
    iteration_s: float
    """Nominal wall time of one iteration on a 2-core x86 VM; a run of
    ``--seconds`` makes ``round(seconds / iteration_s)`` iterations (at
    least two), so the iteration count is fixed per workload."""

    def crawl_config(self, seed: int) -> BingoConfig:
        return BingoConfig(
            seed=seed,
            crawl_workers=self.crawl_workers,
            crawler_threads=self.crawler_threads,
            pipeline_batch_size=self.batch_size,
            learning_fetch_budget=LEARNING_BUDGET,
            retrain_interval=50,
            negative_examples=15,
            selected_features=300,
            tf_preselection=1000,
        )


WORKLOADS = {
    "scale-crawl": Workload(
        web_config=scale_web_config,
        crawl_workers=8,
        crawler_threads=4,
        batch_size=1,
        harvest=2000,
        checkpoints=False,
        cycles=3,
        queries_per_cycle=400,
        iteration_s=25.0,
    ),
    "portal-live": Workload(
        web_config=portal_web_config,
        crawl_workers=1,
        crawler_threads=15,
        batch_size=16,
        harvest=400,
        checkpoints=True,
        cycles=6,
        queries_per_cycle=200,
        iteration_s=12.0,
    ),
}


def evolution_seed(seed: int) -> int:
    """The evolution seed for workload seed ``seed`` (11 at seed 7)."""
    return seed + 4


@dataclass
class IterationResult:
    """What one iteration measured, counted and checked."""

    setup_s: float = 0.0
    crawl_s: float = 0.0
    visited: int = 0
    simulated_s: float = 0.0
    cycle_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    """Peak resident memory while the program ran, the checks excluded
    (see :func:`_unmetered`)."""
    signature: dict = field(default_factory=dict)
    """Deterministic outputs: under ``crawl`` the Table-1 rows,
    simulated seconds, decision fingerprint and simulated web faults;
    under ``recrawl`` the per-cycle recrawl counters."""
    counts: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    trace: SpanRecorder | None = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}" if detail else name)


def _peak_rss_mb() -> float:
    """The process's resident-memory high-water mark (Linux ``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _reset_peak_rss() -> None:
    """Lower the high-water mark to the current resident memory."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")


@contextlib.contextmanager
def _unmetered(out: IterationResult):
    """Keep a check's memory out of ``out.peak_rss_mb``: take the peak
    so far before the check, and restart the high-water mark after it,
    once the check's objects are gone."""
    out.peak_rss_mb = max(out.peak_rss_mb, _peak_rss_mb())
    try:
        yield
    finally:
        _reset_peak_rss()


class _RecordingCheckpointer(Checkpointer):
    """A ``Checkpointer`` that remembers the live row counts of its
    last save, so the reloaded checkpoint can be compared with them."""

    def __init__(self, directory, database) -> None:
        super().__init__(directory)
        self.database = database
        self.saved_rows: dict[str, int] = {}

    def save(self, crawler, stats) -> None:
        super().save(crawler, stats)
        self.saved_rows = _row_counts(self.database)


def _row_counts(database) -> dict[str, int]:
    return {name: len(rel) for name, rel in database.relations.items()}


def query_plan(pool: list[str], workload: Workload,
               seed: int) -> list[list[QueryRequest]]:
    """Per cycle, the closed-loop request sequence of one client.

    Query popularity is Zipfian over the pool; a ``REPLAY_FRACTION``
    of requests re-sends an earlier request id (idempotent replay).
    """
    rng = random.Random(seed)
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))
    ))
    issued: list[QueryRequest] = []
    plan = []
    for _cycle in range(workload.cycles):
        requests = []
        for _ in range(workload.queries_per_cycle):
            if issued and rng.random() < REPLAY_FRACTION:
                requests.append(rng.choice(issued))
                continue
            request = QueryRequest(
                client_id="client-0",
                request_id=f"req-{len(issued)}",
                query=rng.choices(pool, cum_weights=cumulative)[0],
            )
            issued.append(request)
            requests.append(request)
        plan.append(requests)
    return plan


def _hits(hits) -> list[tuple[int, float]]:
    return [(hit.document.doc_id, hit.score) for hit in hits]


def _instrument(trace: SpanRecorder, engine: BingoEngine) -> None:
    """Wrap the crawl's layer entry points (traced iterations only)."""
    ctx = engine.ctx
    counts = trace.counts

    def on_stage(event) -> None:
        end = perf_counter()
        trace.closed(f"pipeline.{event.stage}", end - event.elapsed, end)
        if event.stage == "classify":
            counts["pipeline.classify.items"] += event.in_size
            counts["pipeline.classify.accepted"] += event.extras.get(
                "accepted", 0
            )

    def on_hits(result) -> None:
        counts["analysis.hits.iterations"] += result.iterations

    engine.crawler.pipeline.add_hook(on_stage)
    trace.wrap(engine, "bootstrap", "engine.bootstrap")
    trace.wrap(ctx, "on_retrain", "engine.retrain")
    trace.wrap(engine.classifier, "train", "classifier.train")
    trace.wrap(engine_module, "bharat_henzinger", "analysis.hits",
               on_result=on_hits)
    trace.wrap(ctx.frontier, "pop", "frontier.pop")
    trace.wrap(ctx, "shard_barrier", "shard.barrier")


def _instrument_portal(trace: SpanRecorder, portal: LivingPortal,
                       server: QueryServer) -> None:
    trace.wrap(portal.scheduler, "run", "portal.scheduler")
    trace.wrap(portal.search, "apply_delta", "portal.apply_delta")
    trace.wrap(portal_runtime, "fold_into_classifier",
               "portal.fold_classifier")
    trace.wrap(portal.search, "search", "search.query")
    trace.wrap(server, "handle", "serving.handle")


class _Region:
    """Times a region and, when traced, records it as a span."""

    def __init__(self, trace: SpanRecorder | None, name: str) -> None:
        self.trace = trace
        self.name = name
        self.seconds = 0.0

    def __enter__(self):
        self.index = (self.trace.start(self.name)
                      if self.trace is not None else None)
        self.started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self.started
        if self.index is not None:
            self.trace.finish(self.index)


def run_iteration(workload: Workload, seed: int, workdir: pathlib.Path,
                  trace: SpanRecorder | None = None) -> IterationResult:
    """One full iteration; the correctness checks run untimed."""
    out = IterationResult(trace=trace)
    timed = functools.partial(_Region, trace)
    _reset_peak_rss()
    try:
        _run(workload, seed, workdir, trace, timed, out)
    finally:
        if trace is not None:
            trace.unwrap_all()
    return out


def _run(workload, seed, workdir, trace, timed, out) -> None:
    # -- set-up ---------------------------------------------------------------
    with timed("setup.web") as region:
        web = SyntheticWeb.generate(workload.web_config(CRAWL_SEED))
    out.setup_s += region.seconds
    with timed("setup.engine") as region:
        engine = BingoEngine.for_portal(
            web, config=workload.crawl_config(CRAWL_SEED)
        )
    out.setup_s += region.seconds

    decisions = hashlib.sha256()

    def on_document(document, classification) -> None:
        decisions.update(
            f"{document.final_url}\t{classification.topic}\t"
            f"{int(classification.accepted)}\n".encode()
        )

    engine.ctx.on_document = on_document
    if trace is not None:
        _instrument(trace, engine)
    checkpointer = None
    checkpoint_dir = workdir / "checkpoint"
    if workload.checkpoints:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        checkpointer = _RecordingCheckpointer(checkpoint_dir,
                                              engine.database)
        if trace is not None:
            trace.wrap(checkpointer, "save", "checkpoint.save")

    # -- crawl ---------------------------------------------------------------
    batches_before = engine.crawler.pipeline.batch_index
    with timed("crawl.learning") as learning_region:
        engine.bootstrap()
        learning = engine.run_learning_phase(
            fetch_budget=LEARNING_BUDGET
        )
    out.attempted += 1
    with timed("crawl.harvest") as harvest_region:
        harvest = engine.run_harvesting_phase(
            fetch_budget=workload.harvest, checkpointer=checkpointer
        )
    out.attempted += 1
    out.crawl_s = learning_region.seconds + harvest_region.seconds
    phases = (learning.stats, harvest.stats)
    out.visited = sum(stats.visited_urls for stats in phases)
    out.simulated_s = sum(stats.simulated_seconds for stats in phases)
    ctx = engine.ctx
    workers = ctx.workers
    database = engine.database
    counts = out.counts
    counts.update({
        "pipeline.batches": engine.crawler.pipeline.batch_index
        - batches_before,
        "frontier.deferred": ctx.frontier.stats()["deferred_total"],
        "shard.barriers": workers.barriers if workers else 0,
        "shard.cross_shard_links": (
            workers.cross_shard_links if workers else 0
        ),
        "storage.rows": database.total_rows,
        "storage.statements": database.total_statements,
    })
    counts["storage.statements_per_page"] = (
        counts["storage.statements"] / out.visited
    )
    web_faults = {
        name: sum(getattr(stats, name) for stats in phases)
        for name in ("fetch_errors", "dns_failures", "retries",
                     "redirect_loops")
    }
    for name, value in web_faults.items():
        counts[f"web.{name}"] = value
    counts["crawl.sim_pages_per_s"] = out.visited / out.simulated_s
    out.signature["crawl"] = {
        "table1": [stats.table1_row() for stats in phases],
        "simulated_seconds": out.simulated_s,
        "web_faults": web_faults,
        "decisions": decisions.hexdigest(),
    }

    if checkpointer is not None:
        with _unmetered(out):
            _check_checkpoint(checkpointer, checkpoint_dir, out)

    # -- portal ----------------------------------------------------------------
    with timed("portal.open") as region:
        portal = LivingPortal(
            engine,
            evolution_config=EvolutionConfig(seed=evolution_seed(seed)),
            workers=workload.crawl_workers,
        ).open()
    out.setup_s += region.seconds
    pool = build_query_pool(portal.search.documents,
                            size=QUERY_POOL_SIZE, seed=seed)
    plan = query_plan(pool, workload, seed)
    total_requests = workload.cycles * workload.queries_per_cycle
    # a closed loop of one client never outruns this bucket
    server = QueryServer(portal.search, clock=SimulatedClock(),
                         rate=10.0 * total_requests,
                         burst=float(total_requests))
    if trace is not None:
        _instrument_portal(trace, portal, server)

    recrawl = []
    sample_every = workload.queries_per_cycle // BRUTE_SAMPLES
    for cycle, requests in enumerate(plan):
        with timed("portal.cycle") as region:
            now = portal.clock.now
            next_hour = (math.floor(now / 3600.0) + 1) * 3600.0
            with timed("portal.evolve"):
                portal.evolve(next_hour - now)
            with timed("portal.recrawl"):
                report = portal.recrawl(RECRAWL_BUDGET)
        out.cycle_s.append(region.seconds)
        out.attempted += 1
        stats = report.recrawl
        recrawl.append({
            "scheduled": stats.scheduled,
            "fetched": stats.fetched,
            "changed": stats.changed,
            "unchanged": stats.unchanged,
            "discovered": stats.discovered,
            "dead": stats.dead,
            "errors": stats.errors,
            "models_retrained": report.models_retrained,
        })
        sampled = []
        for position, request in enumerate(requests):
            started = perf_counter()
            response = server.handle(request)
            out.latencies.append(perf_counter() - started)
            # closed loop: the next request leaves when this one is done
            server.clock.advance_to(response.served_at)
            out.attempted += 1
            if not response.ok:
                out.failed += 1
                out.problems.append(
                    f"query {request.request_id}: {response.status}"
                )
            elif (position % sample_every == 0
                  and response.epoch == portal.search.epoch):
                sampled.append((request.query, _hits(response.hits)))
        with _unmetered(out):
            _check_brute_force(portal, sampled, cycle, out)

    if trace is not None:
        trace.unwrap_all()
    out.signature["recrawl"] = recrawl
    cache = server.cache.stats()
    lookups = cache["query_cache_hits"] + cache["query_cache_misses"]
    counts["search.cache.hit_rate"] = (
        cache["query_cache_hits"] / lookups if lookups else 0.0
    )
    counts["search.index.postings"] = (
        portal.search.index().stats()["index_postings"]
    )
    counts["portal.scheduler.fetched"] = sum(r["fetched"] for r in recrawl)
    counts["portal.scheduler.changed"] = sum(r["changed"] for r in recrawl)
    counts["portal.models_retrained"] = sum(
        r["models_retrained"] for r in recrawl
    )
    with _unmetered(out):
        _check_rebuild(portal, pool, out)


def _check_checkpoint(checkpointer, directory, out) -> None:
    """The last checkpoint reloads with the row counts it was saved at."""
    out.counts["checkpoint.saves"] = checkpointer.saves
    out.counts["checkpoint.bytes"] = sum(
        path.stat().st_size for path in directory.rglob("*")
        if path.is_file()
    )
    started = perf_counter()
    reloaded = load_database(directory / "database", validate=False)
    out.counts["checkpoint.load_s"] = perf_counter() - started
    ok = checkpointer.saves > 0 and (
        _row_counts(reloaded) == checkpointer.saved_rows
    )
    out.check("checkpoint rows", ok,
              f"{_row_counts(reloaded)} != {checkpointer.saved_rows}")


def _check_brute_force(portal, sampled, cycle, out) -> None:
    """Served (indexed, cached) results equal brute-force ranking."""
    brute = LocalSearchEngine(portal.search.documents, indexed=False)
    for query, served in sampled:
        expected = _hits(brute.search(query, top_k=10))
        out.check("indexed == brute force", served == expected,
                  f"cycle {cycle} query {query!r}")


def _check_rebuild(portal, pool, out) -> None:
    """The incrementally maintained search state equals a rebuild."""
    live = portal.search
    rebuilt = LocalSearchEngine(live.documents)
    ours = live.vectorizer.statistics
    theirs = rebuilt.vectorizer.statistics
    same_df = (
        ours.document_count == theirs.document_count
        and +ours.document_frequency == +theirs.document_frequency
        and all(ours.idf(term) == theirs.idf(term)
                for term in theirs.document_frequency)
    )
    out.check("rebuild df/idf", same_df)
    step = max(1, len(pool) // REBUILD_SAMPLE)
    for query in pool[::step]:
        out.check(
            "rebuild ranking",
            _hits(live.search(query, top_k=10))
            == _hits(rebuilt.search(query, top_k=10)),
            f"query {query!r}",
        )
