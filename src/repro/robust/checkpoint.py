"""Crawl checkpoint/resume through :mod:`repro.storage.persistence`.

A crawl that dies mid-phase used to lose the frontier, the dedup
fingerprint tables and every host state.  The checkpoint captures the
complete crawl runtime -- frontier (including deferred retries), dedup
tables, host circuit breakers, domain politeness slots, the simulated
clock and worker pool, the DNS cache (with its RNG), the server's
per-URL attempt counters, the document store and the phase counters --
so a crawl restored into the same Web resumes to the *same Table-1
counters* as an uninterrupted run.

Since the staged-pipeline refactor the runtime state lives on a
:class:`~repro.pipeline.context.CrawlContext`; the snapshot/restore
primitives operate on the context, and every entry point accepts either
a context or a :class:`~repro.core.crawler.FocusedCrawler` facade (whose
``ctx`` attribute is then used).

What the checkpoint deliberately does **not** capture is the trained
classifier: models are reconstructed deterministically by re-running the
same training procedure (the repo is seed-deterministic end to end), so
serializing SVM internals would only duplicate state.  Resume therefore
requires the caller to rebuild the crawler with an identically trained
classifier before calling :func:`restore_crawler`.  If retraining
happened mid-phase, checkpoint at retraining points (the engine flushes
its loader there) so the training set is reproducible from the stored
archetypes.

On-disk layout::

    <directory>/crawl.json              # versioned runtime state blob,
                                        # carrying the database manifest
    <directory>/database/<rel>.jsonl    # relational rows (when a loader
                                        # is set), one file per relation
                                        # (<rel>.<n>.jsonl after a rewrite)
    <directory>/database/manifest.json  # the same manifest, so
                                        # load_database(<directory>/database)
                                        # works on its own

A :class:`Checkpointer` saves incrementally through one
:class:`~repro.storage.persistence.DumpWriter`: each save appends the
rows added since the previous save and rewrites, into a new file, only a
relation that was updated or had rows replaced or deleted.  The atomic
temp + rename of ``crawl.json`` is a save's single commit point, and
:func:`restore_context` reads the relation files through the manifest in
``crawl.json``; files and byte ranges that manifest references are not
touched until a newer save has committed.  A crash at any point of a
save therefore restores either the previous checkpoint or the new one.
"""

from __future__ import annotations

import pathlib
from collections import Counter

from repro.storage.persistence import (
    DumpWriter,
    dump_state,
    load_database,
    load_state,
)

__all__ = [
    "snapshot_context",
    "snapshot_crawler",
    "save_checkpoint",
    "load_checkpoint",
    "restore_context",
    "restore_crawler",
    "Checkpointer",
]

_KIND = "crawl"
_DB_SUBDIR = "database"


def _context_of(obj):
    """The :class:`CrawlContext` of a crawler facade, or ``obj`` itself
    when it already is a context."""
    return getattr(obj, "ctx", obj)


# ----------------------------------------------------------------------
# stats / document (de)serialization
# ----------------------------------------------------------------------

def _stats_to_dict(stats) -> dict:
    data = {
        field: getattr(stats, field)
        for field in stats.__dataclass_fields__
        if field != "hosts_visited"
    }
    data["hosts_visited"] = sorted(stats.hosts_visited)
    return data


def _stats_from_dict(data: dict):
    from repro.core.crawler import CrawlStats

    data = dict(data)
    hosts = set(data.pop("hosts_visited"))
    stats = CrawlStats(**data)
    stats.hosts_visited = hosts
    return stats


def _document_to_dict(doc) -> dict:
    data = {
        field: getattr(doc, field)
        for field in doc.__dataclass_fields__
        if field != "counts"
    }
    data["counts"] = {
        space: dict(counter) for space, counter in doc.counts.items()
    }
    return data


def _document_from_dict(data: dict):
    from repro.core.crawler import CrawledDocument

    data = dict(data)
    data["counts"] = {
        space: Counter(counts) for space, counts in data["counts"].items()
    }
    return CrawledDocument(**data)


# ----------------------------------------------------------------------
# whole-context snapshot
# ----------------------------------------------------------------------

def snapshot_context(ctx, stats) -> dict:
    """The complete serializable runtime state of one crawl context.

    For sharded crawls (``crawl_workers > 1``) the frontier and host
    snapshots are composites with one slice per worker, and a
    ``workers`` section captures each worker pool plus the worker-set
    counters; an N=1 context keeps the historical format untouched.
    """
    ctx = _context_of(ctx)
    server = ctx.web.server
    state = {
        "clock_now": ctx.clock.now,
        "pool_free_at": list(ctx.pool._free_at),
        "resolver": ctx.resolver.snapshot(),
        "server": {
            "attempts": dict(server._attempts),
            "fetch_counts": dict(server.fetch_counts),
        },
        "frontier": ctx.frontier.snapshot(),
        "dedup": ctx.dedup.snapshot(),
        "hosts": ctx.hosts.to_dict(),
        "domains": {
            domain: list(state.busy_until)
            for domain, state in ctx.domains.items()
        },
        "stats": _stats_to_dict(stats),
        "documents": [_document_to_dict(doc) for doc in ctx.documents],
        "docs_since_retrain": ctx.docs_since_retrain,
        "log_sequence": ctx.log_sequence,
        "converted_formats": dict(ctx.converted_formats),
        "retry_log": list(ctx.retry_log),
    }
    workers = getattr(ctx, "workers", None)
    if workers is not None:
        state["workers"] = {
            "count": workers.count,
            "pool_free_at": [
                list(pool._free_at) for pool in workers.pools
            ],
            "commits": workers.commits,
            "barriers": workers.barriers,
            "cross_shard_links": workers.cross_shard_links,
            "local_links": workers.local_links,
        }
    return state


def snapshot_crawler(crawler, stats) -> dict:
    """Facade-level alias of :func:`snapshot_context`."""
    return snapshot_context(crawler, stats)


def save_checkpoint(crawler, stats, directory) -> pathlib.Path:
    """Persist the crawl state (and database rows, if a loader is set).

    ``crawler`` may be a :class:`FocusedCrawler` or its context.  This
    is the first save of a fresh :class:`Checkpointer`.
    """
    return Checkpointer(directory).save(crawler, stats)


def load_checkpoint(directory) -> dict:
    """Read a checkpoint's state blob (without applying it)."""
    return load_state(directory, kind=_KIND)


def restore_context(ctx, source, restore_database: bool = True):
    """Apply a checkpoint to a freshly constructed crawl context.

    ``source`` is a checkpoint directory or a state dict from
    :func:`load_checkpoint`.  The context must be bound to the same Web
    (same generator config and seed) and an identically trained
    classifier.  Returns the restored :class:`CrawlStats` to pass back
    into ``crawl(phase, resume=...)``.
    """
    import heapq

    from repro.pipeline.context import DomainState

    ctx = _context_of(ctx)
    directory: pathlib.Path | None = None
    if isinstance(source, (str, pathlib.Path)):
        directory = pathlib.Path(source)
        state = load_checkpoint(directory)
    else:
        state = source

    # validate the sharding shape before mutating anything: a mismatch
    # would re-route hosts onto different shards and silently break the
    # determinism contract
    workers = getattr(ctx, "workers", None)
    worker_state = state.get("workers")
    if (workers is None) != (worker_state is None):
        raise ValueError(
            "checkpoint and context disagree on sharding -- resume with "
            "the same crawl_workers the checkpoint was saved with"
        )
    if workers is not None and worker_state["count"] != workers.count:
        raise ValueError(
            f"checkpoint has {worker_state['count']} workers, this "
            f"context has {workers.count} -- resume with the same "
            "crawl_workers"
        )

    ctx.clock.now = state["clock_now"]
    ctx.pool._free_at = list(state["pool_free_at"])
    heapq.heapify(ctx.pool._free_at)
    ctx.resolver.restore(state["resolver"])

    server = ctx.web.server
    server._attempts = Counter(state["server"]["attempts"])
    server.fetch_counts = Counter(state["server"]["fetch_counts"])

    ctx.frontier.restore(state["frontier"])
    ctx.dedup.restore(state["dedup"])
    ctx.hosts.restore(state["hosts"])
    ctx.domains = {
        domain: DomainState(busy_until=list(busy))
        for domain, busy in state["domains"].items()
    }
    ctx.documents = [_document_from_dict(d) for d in state["documents"]]
    ctx.url_to_doc = {
        doc.final_url: doc.doc_id for doc in ctx.documents
    }
    ctx.docs_since_retrain = state["docs_since_retrain"]
    ctx.log_sequence = state["log_sequence"]
    ctx.converted_formats = Counter(state["converted_formats"])
    ctx.retry_log = list(state["retry_log"])

    if workers is not None and worker_state is not None:
        for pool, free_at in zip(
            workers.pools, worker_state["pool_free_at"]
        ):
            pool._free_at = list(free_at)
            heapq.heapify(pool._free_at)
        workers.commits = worker_state["commits"]
        workers.barriers = worker_state["barriers"]
        workers.cross_shard_links = worker_state["cross_shard_links"]
        workers.local_links = worker_state["local_links"]

    # the rows are read through the manifest the commit made current; a
    # checkpoint without one but with a database dump predates that and
    # is rejected by load_database's format check
    manifest = state.get("database")
    if (
        restore_database
        and directory is not None
        and ctx.loader is not None
        and (
            manifest is not None
            or (directory / _DB_SUBDIR / "manifest.json").exists()
        )
    ):
        dumped = load_database(
            directory / _DB_SUBDIR, validate=False, manifest=manifest
        )
        for name, relation in dumped.relations.items():
            rows = relation.scan()
            if rows:
                ctx.loader.database.table(name).bulk_insert(rows)

    obs = getattr(ctx, "obs", None)
    if obs is not None:
        obs.registry.counter("robust_checkpoint_restores_total").inc()
    return _stats_from_dict(state["stats"])


def restore_crawler(crawler, source, restore_database: bool = True):
    """Facade-level alias of :func:`restore_context`."""
    return restore_context(crawler, source, restore_database)


class Checkpointer:
    """Periodic checkpoint hook for :meth:`FocusedCrawler.crawl`.

    Saves every ``every`` visits into ``directory``.  Each save writes
    only the database rows added since the previous one, and is atomic:
    a kill at any point of a save leaves the previous checkpoint intact
    and restorable.
    """

    def __init__(self, directory, every: int = 50) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.directory = pathlib.Path(directory)
        self.every = every
        self.saves = 0
        self._since_save = 0
        self._writer = DumpWriter(self.directory / _DB_SUBDIR)

    def on_visit(self, crawler, stats) -> bool:
        """Called by the crawl loop after each visit; True if it saved."""
        self._since_save += 1
        if self._since_save < self.every:
            return False
        self.save(crawler, stats)
        return True

    def save(self, crawler, stats) -> pathlib.Path:
        """Checkpoint ``crawler`` (a facade or a context) now."""
        ctx = _context_of(crawler)
        staged = None
        if ctx.loader is not None:
            ctx.loader.flush_all()
            staged = self._writer.stage(ctx.loader.database)
        state = snapshot_context(ctx, stats)
        if staged is not None:
            state["database"] = staged.manifest
        path = dump_state(state, self.directory, kind=_KIND)  # commit
        if staged is not None:
            self._writer.commit(staged)
        self.saves += 1
        self._since_save = 0
        obs = getattr(ctx, "obs", None)
        if obs is not None:
            registry = obs.registry
            registry.counter("robust_checkpoint_saves_total").inc()
            if staged is not None:
                registry.counter("robust_checkpoint_rows_written_total").inc(
                    staged.rows_written
                )
                registry.counter(
                    "robust_checkpoint_bytes_written_total"
                ).inc(staged.bytes_written)
        return path
