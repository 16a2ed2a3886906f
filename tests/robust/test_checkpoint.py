"""Checkpoint/resume: an interrupted crawl must land on the same
Table-1 counters as an uninterrupted one.

Three crawlers run against three *identically generated* Webs (the
generator is seed-deterministic, and a crawl mutates server-side attempt
counters, so each run gets a fresh copy):

* baseline -- runs the phase to a 120-fetch budget in one go;
* interrupted -- same setup, checkpointing every 25 visits, "killed"
  after 60 visits (the work past the last checkpoint is lost);
* resumed -- a fresh crawler restored from the checkpoint directory
  finishes the phase to the same 120-fetch budget.

Baseline and resumed must agree exactly on every integer counter, the
stored documents and the host table.
"""

from __future__ import annotations

import json

import pytest

from repro.core import BingoEngine, FocusedCrawler
from repro.core.crawler import SOFT, PhaseSettings
from repro.robust import (
    Checkpointer,
    load_checkpoint,
    restore_crawler,
    save_checkpoint,
    snapshot_crawler,
)
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

BUDGET = 120
KILL_AFTER = 60
EVERY = 25


def build_crawler():
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(max_retries=2)
    classifier = make_trained_classifier(web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    return crawler, database


def settings(budget: int) -> PhaseSettings:
    return PhaseSettings(name="t", focus=SOFT, fetch_budget=budget)


@pytest.fixture(scope="module")
def kill_resume(tmp_path_factory):
    checkpoint_dir = tmp_path_factory.mktemp("checkpoint")

    baseline, baseline_db = build_crawler()
    baseline_stats = baseline.crawl(settings(BUDGET))

    # the interrupted run: checkpoints every EVERY visits, killed at
    # KILL_AFTER -- everything after the last save is thrown away
    interrupted, _ = build_crawler()
    checkpointer = Checkpointer(checkpoint_dir, every=EVERY)
    interrupted.crawl(settings(KILL_AFTER), checkpointer=checkpointer)
    assert checkpointer.saves == KILL_AFTER // EVERY
    del interrupted

    # resume on a fresh crawler bound to an identical Web and classifier
    resumed, resumed_db = build_crawler()
    resume_stats = restore_crawler(resumed, checkpoint_dir)
    assert resume_stats.visited_urls < BUDGET
    final_stats = resumed.crawl(settings(BUDGET), resume=resume_stats)

    return baseline, baseline_stats, baseline_db, resumed, final_stats, resumed_db


class TestKillResume:
    def test_table1_counters_identical(self, kill_resume) -> None:
        _, baseline_stats, _, _, final_stats, _ = kill_resume
        assert final_stats.table1_row() == baseline_stats.table1_row()
        assert baseline_stats.visited_urls == BUDGET

    def test_diagnostic_counters_identical(self, kill_resume) -> None:
        _, baseline_stats, _, _, final_stats, _ = kill_resume
        for counter in (
            "fetch_errors", "not_found", "redirect_loops", "dns_failures",
            "duplicates_skipped", "mime_rejected", "size_rejected",
            "url_rejected", "locked_skipped", "bad_host_skipped",
            "quarantine_deferred", "slow_deferred", "retries",
        ):
            assert getattr(final_stats, counter) == getattr(
                baseline_stats, counter
            ), f"{counter} diverged across the interruption"

    def test_documents_identical(self, kill_resume) -> None:
        baseline, _, _, resumed, _, _ = kill_resume
        urls_a = [d.final_url for d in baseline.documents]
        urls_b = [d.final_url for d in resumed.documents]
        assert urls_a == urls_b
        topics_a = [d.topic for d in baseline.documents]
        topics_b = [d.topic for d in resumed.documents]
        assert topics_a == topics_b

    def test_host_table_identical(self, kill_resume) -> None:
        baseline, _, _, resumed, _, _ = kill_resume
        assert baseline._hosts.to_dict() == resumed._hosts.to_dict()

    def test_database_rows_survive(self, kill_resume) -> None:
        _, baseline_stats, baseline_db, _, final_stats, resumed_db = kill_resume
        assert len(resumed_db["documents"]) == final_stats.stored_pages
        assert len(resumed_db["documents"]) == len(baseline_db["documents"])


class TestSnapshotRoundTrip:
    def test_snapshot_is_json_clean_and_stable(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        stats = crawler.crawl(settings(30))
        snap = snapshot_crawler(crawler, stats)
        blob = json.dumps(snap, sort_keys=True)  # must not raise

        clone, _ = build_crawler()
        restored_stats = restore_crawler(
            clone, json.loads(blob), restore_database=False
        )
        assert restored_stats.table1_row() == stats.table1_row()
        snap_again = snapshot_crawler(clone, restored_stats)
        assert json.dumps(snap_again, sort_keys=True) == blob

    def test_save_and_load_checkpoint(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        stats = crawler.crawl(settings(25))
        path = save_checkpoint(crawler, stats, tmp_path)
        assert path.exists()
        state = load_checkpoint(tmp_path)
        assert state["stats"]["visited_urls"] == stats.visited_urls
        assert (tmp_path / "database" / "manifest.json").exists()

    def test_checkpointer_cadence(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        checkpointer = Checkpointer(tmp_path, every=10)
        crawler.crawl(settings(35), checkpointer=checkpointer)
        assert checkpointer.saves == 3

    def test_invalid_interval_rejected(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every=0)


class _RecordingCheckpointer(Checkpointer):
    """Remembers each save's manifest and per-relation rewrite counts.

    Before the third save it re-scores one archetype (an upsert that
    replaces a row), so that save must rewrite ``archetypes`` whole.
    """

    def __init__(self, directory, database, every) -> None:
        super().__init__(directory, every=every)
        self.database = database
        self.history: list[tuple[dict, dict]] = []

    def save(self, crawler, stats):
        if len(self.history) == 2:
            archetypes = self.database["archetypes"]
            row = archetypes.scan()[0]
            archetypes.upsert({**row, "score": row["score"] / 2})
        path = super().save(crawler, stats)
        manifest = load_checkpoint(self.directory)["database"]["relations"]
        rewrites = {
            name: relation.rewrites
            for name, relation in self.database.relations.items()
        }
        self.history.append((manifest, rewrites))
        return path


class TestCheckpointMetrics:
    def test_written_counters_count_appends_plus_rewrites(
        self, tmp_path
    ) -> None:
        web = SyntheticWeb.generate(small_web_config())
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        engine.bootstrap()
        engine.run_learning_phase(fetch_budget=80)
        checkpointer = _RecordingCheckpointer(
            tmp_path, engine.database, every=30
        )
        engine.run_harvesting_phase(
            fetch_budget=150, checkpointer=checkpointer
        )
        history = checkpointer.history
        assert len(history) == 5

        # every row is written once, plus the whole relation again at each
        # save that found it rewritten (updated, or rows replaced/deleted)
        final, _ = history[-1]
        rows = sum(info["rows"] for info in final.values())
        size = sum(info["bytes"] for info in final.values())
        rewritten = set()
        for (before, before_rewrites), (_, rewrites) in zip(
            history, history[1:]
        ):
            for name in before:
                if rewrites[name] != before_rewrites[name]:
                    rewritten.add(name)
                    rows += before[name]["rows"]
                    size += before[name]["bytes"]
        assert rewritten == {"archetypes"}

        registry = engine.ctx.obs.registry
        assert registry.value("robust_checkpoint_saves_total") == 5
        assert registry.value("robust_checkpoint_rows_written_total") == rows
        assert registry.value("robust_checkpoint_bytes_written_total") == size
        # a full dump at every save would have encoded far more
        full_dumps = sum(
            info["rows"] for manifest, _ in history
            for info in manifest.values()
        )
        assert rows < full_dumps / 2
