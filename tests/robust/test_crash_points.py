"""Crash-point torture test for checkpoint saves.

A multi-save crawl runs with a :class:`Checkpointer`.  At every save, the
save is first re-run many times in forked children, each made to crash
at one more file-system boundary of the checkpoint write path: an open
that truncates or creates a file, a write (torn halfway), a truncate, a
rename or an unlink.  A child dies with the save half done, exactly as a
killed crawler would, and then checks what a restarted one would find:

* restoring the checkpoint directory into a fresh context yields
  exactly the previous save or the new one -- the whole ``crawl.json``
  state and every database row, never a mix;
* for the last crash before the commit point and the first one after
  it, resuming from the directory (with a fresh ``Checkpointer`` saving
  into it) finishes the phase on the uninterrupted run's Table-1 row.

The parent then performs the real save and the crawl goes on.  Every
save after the first also has to rewrite a relation (one stored page is
upserted again), so crashes hit both the append and the rewrite path.
Both an N=1 and a sharded (``crawl_workers=3``) context are covered.

The children are forked because a crash point is only reachable with
the crawl's in-memory state at that save, which a fresh process cannot
rebuild; the crawl itself runs on one OS thread.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import pathlib
import shutil
import traceback
import warnings

import pytest

from repro.core import FocusedCrawler
from repro.core.crawler import SOFT, PhaseSettings
from repro.errors import StorageError
from repro.robust.checkpoint import (
    Checkpointer,
    load_checkpoint,
    restore_context,
    snapshot_context,
)
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.storage.persistence import load_database
from repro.storage.schema import BINGO_SCHEMA
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash points run in forked children"
)

BUDGET = 40
EVERY = 12

# child exit codes
OLD, NEW, NO_CRASH, FAILED = 10, 11, 12, 13


class InjectedCrash(Exception):
    """The simulated death of the process at one I/O boundary."""


class CrashInjector:
    """Counts the write-path boundaries under ``root`` and raises
    :class:`InjectedCrash` at boundary number ``crash_at``.

    Patches ``open`` (builtin and ``io``), ``os.replace``/``rename`` and
    ``os.unlink``/``remove``, so it sees any implementation of the write
    path, ``pathlib`` included.  A crash at a write first lands half of
    the data, as a torn write would.
    """

    def __init__(self, root: pathlib.Path, crash_at: int) -> None:
        self.root = str(root.resolve())
        self.crash_at = crash_at
        self.count = 0

    def _ours(self, path) -> bool:
        if isinstance(path, int):
            return False
        return os.path.abspath(os.fspath(path)).startswith(self.root)

    def boundary(self, before_crash=None) -> None:
        self.count += 1
        if self.count == self.crash_at:
            if before_crash is not None:
                before_crash()
            raise InjectedCrash(f"crash at boundary {self.count}")

    @contextlib.contextmanager
    def installed(self):
        real_open, real_replace, real_rename = io.open, os.replace, os.rename
        real_unlink, real_remove = os.unlink, os.remove
        injector = self

        def fake_open(file, mode="r", *args, **kwargs):
            if not injector._ours(file):
                return real_open(file, mode, *args, **kwargs)
            if "w" in mode or "x" in mode:
                injector.boundary()
            return _Handle(real_open(file, mode, *args, **kwargs), injector)

        def renamer(real):
            def fake(src, dst, *args, **kwargs):
                if injector._ours(dst):
                    injector.boundary()
                return real(src, dst, *args, **kwargs)
            return fake

        def remover(real):
            def fake(path, *args, **kwargs):
                if injector._ours(path):
                    injector.boundary()
                return real(path, *args, **kwargs)
            return fake

        patches = [
            (io, "open", fake_open),
            (builtins, "open", fake_open),
            (os, "replace", renamer(real_replace)),
            (os, "rename", renamer(real_rename)),
            (os, "unlink", remover(real_unlink)),
            (os, "remove", remover(real_remove)),
        ]
        saved = [
            (owner, name, getattr(owner, name)) for owner, name, _ in patches
        ]
        for owner, name, fake in patches:
            setattr(owner, name, fake)
        try:
            yield self
        finally:
            for owner, name, real in saved:
                setattr(owner, name, real)


class _Handle:
    """A file handle whose writes and truncates are crash boundaries."""

    def __init__(self, handle, injector: CrashInjector) -> None:
        self._handle = handle
        self._injector = injector

    def write(self, data):
        def torn() -> None:
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
        self._injector.boundary(torn)
        return self._handle.write(data)

    def truncate(self, *args):
        self._injector.boundary()
        return self._handle.truncate(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def in_child(work) -> tuple[int, str]:
    """Run ``work() -> (code, message)`` in a forked child process."""
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code, message = FAILED, ""
        try:
            code, message = work()
        except BaseException:
            message = traceback.format_exc()
        finally:
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(message)
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        message = pipe.read()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), message


# ----------------------------------------------------------------------
# crawl set-up
# ----------------------------------------------------------------------

def build_crawler(workers: int) -> FocusedCrawler:
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(
        max_retries=2, crawl_workers=workers, crawler_threads=2
    )
    classifier = make_trained_classifier(web, config)
    loader = BulkLoader(Database(validate=True), batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    return crawler


def settings(budget: int) -> PhaseSettings:
    return PhaseSettings(name="t", focus=SOFT, fetch_budget=budget)


def _json(value):
    """``value`` as it reads back from JSON (tuples become lists ...)."""
    return json.loads(json.dumps(value, sort_keys=True))


def captured(ctx, stats) -> tuple[dict, dict]:
    """The crawl state and database rows a checkpoint must hold."""
    rows = {
        name: [dict(row) for row in relation.scan()]
        for name, relation in ctx.loader.database.relations.items()
    }
    return _json(snapshot_context(ctx, stats)), rows


def restored(directory: pathlib.Path, spare: FocusedCrawler):
    """Restore ``directory`` into the pristine ``spare``; None when no
    save has committed yet."""
    try:
        stats = restore_context(spare.ctx, directory)
    except StorageError as error:
        if "no 'crawl' state file" not in str(error):
            raise
        return None, None
    return stats, captured(spare.ctx, stats)


def directory_is_clean(directory: pathlib.Path) -> bool:
    """Only the checkpoint's own files remain: ``crawl.json``, and in
    ``database/`` the manifest plus one file per relation."""
    files = sorted(p.name for p in (directory / "database").iterdir())
    return (
        {p.name for p in directory.iterdir()} == {"crawl.json", "database"}
        and "manifest.json" in files
        and len(files) == len(BINGO_SCHEMA) + 1
        and all(f.endswith(".jsonl") for f in files if f != "manifest.json")
    )


class TortureCheckpointer(Checkpointer):
    """Crashes every save at each boundary in turn before making it."""

    def __init__(self, directory, spare, baseline_row) -> None:
        super().__init__(directory, every=EVERY)
        self.spare = spare
        self.baseline_row = baseline_row
        self.previous: tuple[dict, dict] | None = None
        self.trials: list[list[int]] = []

    def save(self, crawler, stats):
        if self.saves:
            # re-store one stored page (an upsert that replaces its row),
            # so this save must also rewrite a relation into a new file
            documents = crawler.ctx.loader.database["documents"]
            documents.upsert(dict(documents.scan()[0]))
        # every child crashes into the real directory; put the committed
        # checkpoint back after each one
        backup = self.directory.with_name("before-save")
        if self.directory.exists():
            shutil.copytree(self.directory, backup)

        def in_child_then_reset(work) -> tuple[int, str]:
            result = in_child(work)
            shutil.rmtree(self.directory, ignore_errors=True)
            if backup.exists():
                shutil.copytree(backup, self.directory)
            return result

        outcomes = []
        crash_at = 1
        while True:
            code, message = in_child_then_reset(
                lambda: self._trial(crawler, stats, crash_at, resume=False)
            )
            assert code in (OLD, NEW, NO_CRASH), (
                f"save {self.saves + 1}, crash at boundary {crash_at}:\n"
                f"{message}"
            )
            if code == NO_CRASH:
                break
            outcomes.append(code)
            crash_at += 1
        assert outcomes == sorted(outcomes), outcomes  # old ... then new
        # the last crash that restores the old save, and the next one
        last_old = outcomes.count(OLD)
        for boundary in (last_old, last_old + 1):
            if not 1 <= boundary <= len(outcomes):
                continue
            code, message = in_child_then_reset(
                lambda: self._trial(crawler, stats, boundary, resume=True)
            )
            assert code in (OLD, NEW), (
                f"save {self.saves + 1}, resume after crash at boundary "
                f"{boundary}:\n{message}"
            )
        self.trials.append(outcomes)
        shutil.rmtree(backup, ignore_errors=True)

        path = super().save(crawler, stats)
        self.previous = captured(crawler.ctx, stats)
        return path

    def _trial(self, crawler, stats, crash_at: int, resume: bool):
        injector = CrashInjector(self.directory, crash_at)
        with injector.installed():
            try:
                Checkpointer.save(self, crawler, stats)
            except InjectedCrash as crash:
                died = str(crash)
            else:
                return NO_CRASH, ""
        new = captured(crawler.ctx, stats)
        resumed_stats, found = restored(self.directory, self.spare)
        if found == self.previous:
            code = OLD
        elif found == new:
            code = NEW
        else:
            return FAILED, (
                f"restored neither the previous nor the new save ({died})"
            )
        if resume:
            checkpointer = Checkpointer(self.directory, every=EVERY)
            final = self.spare.crawl(
                settings(BUDGET), resume=resumed_stats,
                checkpointer=checkpointer,
            )
            if final.table1_row() != self.baseline_row:
                return FAILED, (
                    f"resumed to {final.table1_row()} after a {died}, "
                    f"the uninterrupted run gave {self.baseline_row}"
                )
            # a save after the resume clears what the crash left behind
            checkpointer.save(self.spare, final)
            if not directory_is_clean(self.directory):
                return FAILED, "the next save left stray files behind"
            reloaded = load_database(self.directory / "database")
            live = self.spare.ctx.loader.database
            if reloaded.total_rows != live.total_rows:
                return FAILED, "the save after the resume lost rows"
        return code, ""


@pytest.mark.parametrize("workers", [1, 3])
def test_every_crash_point_restores_old_or_new(workers, tmp_path) -> None:
    baseline = build_crawler(workers).crawl(settings(BUDGET)).table1_row()

    spare = build_crawler(workers)
    crawler = build_crawler(workers)
    checkpointer = TortureCheckpointer(tmp_path / "ckpt", spare, baseline)
    stats = crawler.crawl(settings(BUDGET), checkpointer=checkpointer)

    assert checkpointer.saves == BUDGET // EVERY
    assert stats.table1_row() == baseline
    # every save crosses boundaries on both sides of its commit point
    assert all(OLD in trial and NEW in trial for trial in checkpointer.trials)
    # later saves append: they cross fewer boundaries than the first
    first, *later = map(len, checkpointer.trials)
    assert later and all(count < first for count in later)
    directory = tmp_path / "ckpt"
    assert directory_is_clean(directory)
    manifest = load_checkpoint(directory)["database"]
    database_dir = directory / "database"
    assert json.loads((database_dir / "manifest.json").read_text()) == manifest
    named = {info["file"] for info in manifest["relations"].values()}
    files = {p.name for p in database_dir.iterdir()}
    assert files == named | {"manifest.json"}
