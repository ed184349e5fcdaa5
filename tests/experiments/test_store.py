"""Tests for the v5 zero-copy cache store (manifests + aligned banks)."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.experiments import store


def _sample_arrays():
    return {
        "ints": np.arange(5000, dtype=np.int64),
        "floats": np.linspace(0.0, 1.0, 3000).reshape(100, 30),
        "bools": np.tile(np.array([True, False]), 700),
        "empty": np.empty((0,), dtype=np.int32),
    }


def _store_sample(cache_dir, fingerprint="a" * 16, stem="entry"):
    return store.store_entry(
        cache_dir,
        stem,
        fingerprint=fingerprint,
        kind="sample",
        meta={"answer": 42},
        arrays=_sample_arrays(),
        objects={"extra": {"nested": [1, 2, 3]}},
    )


class TestAlignedNpy:
    def test_data_offset_is_page_aligned(self, tmp_path):
        path = tmp_path / "bank.npy"
        nbytes, offset = store.write_aligned_npy(
            path, np.arange(100, dtype=np.uint16)
        )
        assert nbytes == 200
        assert offset % store.PAGE_ALIGN == 0
        assert path.stat().st_size == offset + nbytes

    def test_plain_np_load_still_reads_the_file(self, tmp_path):
        path = tmp_path / "bank.npy"
        original = np.arange(64, dtype=np.float32).reshape(8, 8)
        store.write_aligned_npy(path, original)
        assert np.array_equal(np.load(path), original)
        mapped = np.load(path, mmap_mode="r")
        assert np.array_equal(np.asarray(mapped), original)


class TestEntryRoundTrip:
    def test_hit_returns_read_only_mapped_arrays(self, tmp_path):
        _store_sample(tmp_path)
        entry, status = store.load_entry(tmp_path, "entry", "a" * 16)
        assert status == "hit"
        assert entry.kind == "sample"
        assert entry.meta == {"answer": 42}
        assert entry.objects == {"extra": {"nested": [1, 2, 3]}}
        for name, original in _sample_arrays().items():
            assert np.array_equal(entry.arrays[name], original)
            assert not entry.arrays[name].flags.writeable
        assert entry.bytes_mapped > 0
        with pytest.raises(ValueError):
            entry.arrays["ints"][0] = 99

    def test_no_mmap_copies_but_stays_read_only(self, tmp_path):
        _store_sample(tmp_path)
        entry, status = store.load_entry(tmp_path, "entry", "a" * 16, mmap=False)
        assert status == "hit"
        assert entry.bytes_mapped == 0
        assert entry.bytes_deserialized > 0
        assert not entry.arrays["ints"].flags.writeable

    def test_absent(self, tmp_path):
        entry, status = store.load_entry(tmp_path, "nothing", "a" * 16)
        assert (entry, status) == (None, "absent")

    def test_stale_fingerprint_rejected_from_manifest_alone(self, tmp_path):
        _store_sample(tmp_path)
        entry, status = store.load_entry(tmp_path, "entry", "b" * 16)
        assert (entry, status) == (None, "stale")

    def test_corrupt_manifest_rejected(self, tmp_path):
        manifest = _store_sample(tmp_path)
        manifest.write_bytes(b"not json")
        entry, status = store.load_entry(tmp_path, "entry", "a" * 16)
        assert (entry, status) == (None, "corrupt")

    def test_truncated_bank_rejected(self, tmp_path):
        _store_sample(tmp_path)
        bank = tmp_path / store.bank_dir_name("entry", "a" * 16) / "ints.npy"
        bank.write_bytes(bank.read_bytes()[:-100])
        entry, status = store.load_entry(tmp_path, "entry", "a" * 16)
        assert (entry, status) == (None, "corrupt")

    def test_foreign_layout_version_ignored(self, tmp_path):
        manifest = _store_sample(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["layout"] = store.CACHE_LAYOUT_VERSION + 1
        manifest.write_text(json.dumps(doc))
        entry, status = store.load_entry(tmp_path, "entry", "a" * 16)
        assert (entry, status) == (None, "corrupt")

    def test_manifest_without_bank_dir_is_corrupt(self, tmp_path):
        (tmp_path / f"entry{store.MANIFEST_SUFFIX}").write_text(
            json.dumps({"layout": store.CACHE_LAYOUT_VERSION,
                        "fingerprint": "abcdef12", "kind": "trace"})
        )
        assert store.peek_manifest(tmp_path, "entry") is None
        entry, status = store.load_entry(tmp_path, "entry", "abcdef12")
        assert (entry, status) == (None, "corrupt")

    def test_runner_recomputes_over_manifest_without_bank_dir(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        seeded = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        expected = seeded.run("HS").columnar.num_events
        manifest = tmp_path / f"HS_tiny{store.MANIFEST_SUFFIX}"
        doc = json.loads(manifest.read_text())
        del doc["bank_dir"]
        manifest.write_text(json.dumps(doc))
        runner = ExperimentRunner(scale="tiny", cache_dir=tmp_path)
        assert runner.run("HS").columnar.num_events == expected
        assert runner.stats.trace_executions == 1
        assert runner.stats.counters["trace_cache_invalid"] == 1


class TestReplacement:
    def test_replacing_entry_keeps_live_readers_consistent(self, tmp_path):
        """A reader holding mapped views survives the writer replacing
        the entry *and* the old banks being swept — POSIX keeps
        unlinked-but-mapped pages alive."""
        _store_sample(tmp_path, fingerprint="a" * 16)
        entry, status = store.load_entry(tmp_path, "entry", "a" * 16)
        assert status == "hit"
        before = entry.arrays["ints"].copy()

        store.store_entry(
            tmp_path,
            "entry",
            fingerprint="c" * 16,
            kind="sample",
            arrays={"ints": np.zeros(10, dtype=np.int64)},
        )
        swept = store.sweep_orphans(tmp_path, age_seconds=0.0)
        assert swept.orphan_bank_dirs == 1
        assert not (tmp_path / store.bank_dir_name("entry", "a" * 16)).exists()

        # The old views still read the old data.
        assert np.array_equal(entry.arrays["ints"], before)
        # A fresh open sees the replacement.
        fresh, status = store.load_entry(tmp_path, "entry", "c" * 16)
        assert status == "hit"
        assert np.array_equal(fresh.arrays["ints"], np.zeros(10, dtype=np.int64))


class TestSweep:
    def test_young_debris_is_left_alone(self, tmp_path):
        (tmp_path / "half-written.12345.tmp").write_bytes(b"x" * 64)
        swept = store.sweep_orphans(tmp_path, age_seconds=600.0)
        assert swept.tmp_files == 0
        assert (tmp_path / "half-written.12345.tmp").exists()

    def test_old_debris_is_reclaimed(self, tmp_path):
        tmp_file = tmp_path / "half-written.12345.tmp"
        tmp_file.write_bytes(b"x" * 64)
        tmp_bank = tmp_path / "entry.00ff.v5.777.tmp"
        tmp_bank.mkdir()
        (tmp_bank / "ints.npy").write_bytes(b"z" * 16)
        old = time.time() - 3600
        for path in (tmp_file, tmp_bank):
            os.utime(path, (old, old))
        swept = store.sweep_orphans(tmp_path, age_seconds=600.0)
        assert swept.tmp_files == 2
        assert swept.bytes_freed == 64 + 16
        assert list(tmp_path.iterdir()) == []

    def test_referenced_banks_are_never_swept(self, tmp_path):
        _store_sample(tmp_path)
        bank_dir = tmp_path / store.bank_dir_name("entry", "a" * 16)
        old = time.time() - 3600
        os.utime(bank_dir, (old, old))
        swept = store.sweep_orphans(tmp_path, age_seconds=0.0)
        assert swept.orphan_bank_dirs == 0
        assert bank_dir.exists()


class TestScan:
    def test_mixed_version_directory_inventoried(self, tmp_path):
        _store_sample(tmp_path)
        (tmp_path / "HS_tiny.npz").write_bytes(b"pre-v5 npz bytes")
        (tmp_path / "HS_tiny_classified.pkl").write_bytes(b"pickle")
        (tmp_path / "HS_tiny_results_gscalar.pkl").write_bytes(b"pickle")
        (tmp_path / "debris.1.tmp").write_bytes(b"junk")
        report = store.scan_cache(tmp_path)
        assert report["stages"]["sample"]["entries"] == 1
        # Files outside the v5 layout (pre-v5 archives and pickles) are
        # inventoried as "other": the runner never reads them.
        assert report["stages"]["other"]["entries"] == 3
        assert set(report["stages"]) == {"sample", "other"}
        assert report["orphans"]["tmp_files"] == 1
        assert report["total_bytes"] > 0

    def test_missing_directory_is_empty_report(self, tmp_path):
        report = store.scan_cache(tmp_path / "nope")
        assert report["stages"] == {}
        assert report["total_bytes"] == 0


def _race_writer(cache_dir, barrier, results):
    barrier.wait()
    try:
        store.store_entry(
            cache_dir,
            "raced",
            fingerprint="d" * 16,
            kind="sample",
            arrays={"ints": np.arange(200_000, dtype=np.int64)},
        )
        results.put("ok")
    except Exception as exc:  # pragma: no cover - failure reporting
        results.put(f"error: {exc!r}")


class TestConcurrency:
    def test_two_processes_race_the_same_entry(self, tmp_path):
        """Both writers survive the write-then-rename race; the loser
        discards its temp dir and the entry stays fully readable."""
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
        entry, status = store.load_entry(tmp_path, "raced", "d" * 16)
        assert status == "hit"
        assert np.array_equal(
            entry.arrays["ints"], np.arange(200_000, dtype=np.int64)
        )
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
