"""Tests for the one-file cache store and the runner's recovery from
damaged entries."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.config import ArchitectureConfig
from repro.experiments import store
from repro.experiments.runner import ExperimentRunner

FINGERPRINT = "a" * 16
PAYLOAD = {"counts": list(range(1000)), "nested": {"ratio": 0.25}}


def _store_sample(cache_dir, fingerprint=FINGERPRINT, stem="entry", payload=PAYLOAD):
    return store.store_entry(
        cache_dir, stem, fingerprint=fingerprint, kind="sample", payload=payload
    )


def _rewrite_header(path, header):
    """Rewrite an entry's header pickle, keeping its payload bytes."""
    with open(path, "rb") as handle:
        pickle.load(handle)
        payload = handle.read()
    path.write_bytes(pickle.dumps(header) + payload)


class TestEntryRoundTrip:
    def test_hit_returns_the_payload(self, tmp_path):
        path = _store_sample(tmp_path)
        assert path == store.entry_path(tmp_path, "entry")
        assert path.name == f"entry{store.ENTRY_SUFFIX}"
        assert store.load_entry(tmp_path, "entry", FINGERPRINT, "sample") == (
            PAYLOAD,
            "hit",
        )
        # One file per entry, nothing else.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_absent(self, tmp_path):
        assert store.load_entry(tmp_path, "nothing", FINGERPRINT, "sample") == (
            None,
            "absent",
        )

    def test_stale_fingerprint_rejected_from_header_alone(self, tmp_path, monkeypatch):
        _store_sample(tmp_path)
        loads = []
        original = pickle.load

        def counting(handle):
            loads.append(handle)
            return original(handle)

        monkeypatch.setattr(store.pickle, "load", counting)
        assert store.load_entry(tmp_path, "entry", "b" * 16, "sample") == (
            None,
            "stale",
        )
        assert len(loads) == 1  # the header; the payload is never unpickled

    def test_garbage_entry_rejected(self, tmp_path):
        store.entry_path(tmp_path, "entry").write_bytes(b"not a cache entry")
        assert store.load_entry(tmp_path, "entry", FINGERPRINT, "sample") == (
            None,
            "corrupt",
        )

    def test_truncated_entry_rejected(self, tmp_path):
        whole = _store_sample(tmp_path).read_bytes()
        # Empty, inside the header, inside the payload, one byte short.
        for keep in (0, 5, len(whole) - 40, len(whole) - 1):
            store.entry_path(tmp_path, "entry").write_bytes(whole[:keep])
            assert store.load_entry(tmp_path, "entry", FINGERPRINT, "sample") == (
                None,
                "corrupt",
            ), keep

    def test_trailing_bytes_rejected(self, tmp_path):
        path = _store_sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"x")
        assert store.load_entry(tmp_path, "entry", FINGERPRINT, "sample") == (
            None,
            "corrupt",
        )

    def test_foreign_layout_version_ignored(self, tmp_path):
        path = _store_sample(tmp_path)
        _rewrite_header(
            path, (store.CACHE_LAYOUT_VERSION + 1, "sample", FINGERPRINT)
        )
        assert store.load_entry(tmp_path, "entry", FINGERPRINT, "sample") == (
            None,
            "corrupt",
        )

    def test_wrong_kind_rejected(self, tmp_path):
        _store_sample(tmp_path)
        assert store.load_entry(tmp_path, "entry", FINGERPRINT, "result") == (
            None,
            "corrupt",
        )

    def test_entry_is_current_reads_the_header(self, tmp_path):
        _store_sample(tmp_path)
        assert store.entry_is_current(tmp_path, "entry", FINGERPRINT, "sample")
        assert not store.entry_is_current(tmp_path, "entry", "b" * 16, "sample")
        assert not store.entry_is_current(tmp_path, "entry", FINGERPRINT, "result")
        assert not store.entry_is_current(tmp_path, "nothing", FINGERPRINT, "sample")


class TestReplacement:
    def test_replacing_entry_keeps_live_readers_consistent(self, tmp_path):
        """A reader that opened the old file keeps reading it whole
        while a writer replaces the entry: ``os.replace`` swaps the
        name, never the open file's bytes."""
        path = _store_sample(tmp_path)
        with open(path, "rb") as reader:
            assert pickle.load(reader) == (
                store.CACHE_LAYOUT_VERSION,
                "sample",
                FINGERPRINT,
            )
            _store_sample(tmp_path, fingerprint="c" * 16, payload={"new": True})
            assert pickle.load(reader) == PAYLOAD
        assert store.load_entry(tmp_path, "entry", "c" * 16, "sample") == (
            {"new": True},
            "hit",
        )
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class _Unpicklable:
    def __reduce__(self):
        raise RuntimeError("cannot pickle this payload")


class TestFailedWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = _store_sample(tmp_path)
        with pytest.raises(RuntimeError, match="cannot pickle"):
            _store_sample(tmp_path, fingerprint="d" * 16, payload=_Unpicklable())
        assert list(tmp_path.glob("*.tmp")) == []
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        # The entry that was already there is untouched.
        assert store.load_entry(tmp_path, "entry", FINGERPRINT, "sample") == (
            PAYLOAD,
            "hit",
        )


class TestSweep:
    def test_young_debris_is_left_alone(self, tmp_path):
        (tmp_path / "half-written.12345.tmp").write_bytes(b"x" * 64)
        assert store.sweep_orphans(tmp_path, age_seconds=600.0) == (0, 0)
        assert (tmp_path / "half-written.12345.tmp").exists()

    def test_old_debris_is_reclaimed(self, tmp_path):
        tmp_files = [tmp_path / "half-written.12345.tmp", tmp_path / "e.v6.pkl.9.tmp"]
        old = time.time() - 3600
        for path, size in zip(tmp_files, (64, 16)):
            path.write_bytes(b"x" * size)
            os.utime(path, (old, old))
        assert store.sweep_orphans(tmp_path, age_seconds=600.0) == (2, 64 + 16)
        assert list(tmp_path.iterdir()) == []

    def test_entries_are_never_swept(self, tmp_path):
        path = _store_sample(tmp_path)
        old = time.time() - 3600
        os.utime(path, (old, old))
        assert store.sweep_orphans(tmp_path, age_seconds=0.0) == (0, 0)
        assert path.exists()


class TestScan:
    def test_mixed_version_directory_inventoried(self, tmp_path):
        _store_sample(tmp_path)
        store.entry_path(tmp_path, "damaged").write_bytes(b"junk")
        (tmp_path / "HS_tiny.v5.json").write_text("{}")
        (tmp_path / "HS_tiny.npz").write_bytes(b"pre-v5 npz bytes")
        (tmp_path / "HS_tiny_results_gscalar.pkl").write_bytes(b"pickle")
        (tmp_path / "debris.1.tmp").write_bytes(b"junk")
        report = store.scan_cache(tmp_path)
        assert report["stages"]["sample"]["entries"] == 1
        assert report["stages"]["unknown"]["entries"] == 1
        # Files outside the current layout (older manifests, archives
        # and pickles) are inventoried as "other": the runner never
        # reads them.
        assert report["stages"]["other"]["entries"] == 3
        assert set(report["stages"]) == {"sample", "unknown", "other"}
        assert report["orphans"] == {"tmp_files": 1, "tmp_bytes": 4}
        assert report["total_bytes"] > 0

    def test_missing_directory_is_empty_report(self, tmp_path):
        report = store.scan_cache(tmp_path / "nope")
        assert report["stages"] == {}
        assert report["total_bytes"] == 0


def _race_writer(cache_dir, barrier, results):
    barrier.wait()
    try:
        for _ in range(20):
            _store_sample(cache_dir, stem="raced", payload=list(range(200_000)))
        results.put("ok")
    except Exception as exc:  # pragma: no cover - failure reporting
        results.put(f"error: {exc!r}")


class TestConcurrency:
    def test_two_processes_race_the_same_entry(self, tmp_path):
        """Both writers land complete files through ``os.replace``; the
        entry stays fully readable and no temp file is left behind."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        results = ctx.Queue()
        writers = [
            ctx.Process(target=_race_writer, args=(tmp_path, barrier, results))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert [results.get(timeout=5) for _ in range(2)] == ["ok", "ok"]
        assert store.load_entry(tmp_path, "raced", FINGERPRINT, "sample") == (
            list(range(200_000)),
            "hit",
        )
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


def _garbage(path):
    path.write_bytes(b"\x00garbage\xff" * 8)


def _foreign_layout(path):
    with open(path, "rb") as handle:
        _, kind, fingerprint = pickle.load(handle)
    _rewrite_header(path, (store.CACHE_LAYOUT_VERSION - 1, kind, fingerprint))


def _wrong_kind(path):
    with open(path, "rb") as handle:
        layout, kind, fingerprint = pickle.load(handle)
    other = "result" if kind == "summary" else "summary"
    _rewrite_header(path, (layout, other, fingerprint))


def _stale(path):
    with open(path, "rb") as handle:
        layout, kind, _ = pickle.load(handle)
    _rewrite_header(path, (layout, kind, "0" * 16))


DAMAGE = {
    "truncated": (_truncate, "corrupt"),
    "garbage": (_garbage, "corrupt"),
    "foreign_layout": (_foreign_layout, "corrupt"),
    "wrong_kind": (_wrong_kind, "corrupt"),
    "stale": (_stale, "stale"),
}
ARCH = ArchitectureConfig.gscalar()


def _summary(runner):
    return runner.summary("HS", "fig1")


def _result(runner):
    return runner.timing("HS", ARCH), runner.power("HS", ARCH)


ENTRIES = {
    "summary": ("HS_tiny_fig1", _summary),
    "result": (f"HS_tiny_results_{ARCH.name}", _result),
}


class TestFailureInjection:
    """A damaged entry loads as ``corrupt`` or ``stale``; the runner
    recomputes it, overwrites the file and the next runner hits."""

    @pytest.mark.parametrize("kind", sorted(ENTRIES))
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_recomputed_and_overwritten(self, tmp_path, kind, damage):
        stem, read = ENTRIES[kind]
        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = read(seeded)
        path = store.entry_path(tmp_path, stem)
        fingerprint = pickle.loads(path.read_bytes())[2]
        corrupt, status = DAMAGE[damage]
        corrupt(path)
        assert store.load_entry(tmp_path, stem, fingerprint, kind) == (None, status)

        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert read(runner) == expected
        counters = runner.stats.counters
        assert counters["cache_invalid"] == 1
        assert counters[f"{kind}_cache_misses"] == 1
        assert runner.stats.trace_executions == 1
        assert store.load_entry(tmp_path, stem, fingerprint, kind) == (
            expected,
            "hit",
        )

        repaired = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert read(repaired) == expected
        assert repaired.stats.counters[f"{kind}_cache_hits"] == 1
        assert repaired.stats.trace_executions == 0
