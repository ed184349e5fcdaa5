"""``repro all`` runs on columns alone, and a warm ``repro all`` renders
from cached summaries and results alone: it executes, classifies,
analyzes and simulates nothing.  A cache-less ``repro all`` derives no
cache key.  ``tests/test_src_imports.py`` keeps the per-event reference
engines out of reach of ``src/``."""

import json

import pytest

from repro.cli import main
from repro.experiments import cachekey, store, streaming, summary
from repro.experiments import runner as runner_module

ARGV = ["all", "--scale", "tiny", "--widths"]
COMPUTE_STAGES = (
    "trace_execute", "stream", "width_analysis", "timing", "power",
)
#: The module each entry point of a cold run is looked up in.
ENTRY_POINTS = {
    "run_kernel": runner_module,
    "classify_columnar_batch": streaming,
    "analyze_widths": runner_module,
    "simulate_warp_ops": runner_module,
}


def _run(capsys, *extra) -> str:
    assert main(ARGV + list(extra)) == 0
    return capsys.readouterr().out


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"a warm run called {name}")

    monkeypatch.setattr(ENTRY_POINTS[name], name, forbidden)


def test_repro_all_builds_no_classified_events(tmp_path, capsys, monkeypatch):
    reference = _run(capsys)
    cache = tmp_path / "cache"
    stats = tmp_path / "stats.json"
    cold = _run(capsys, "--cache-dir", str(cache))
    assert cold == reference
    # Only summary and result entries, one file each: no trace, no
    # classified or processed columns.
    report = store.scan_cache(cache)
    assert set(report["stages"]) == {"result", "summary"}
    assert report["stages"]["result"]["entries"] == 85
    assert report["stages"]["summary"]["entries"] == 17 * len(summary.BUILDERS)
    assert all(path.is_file() for path in cache.iterdir())

    # The warm run renders from the entries alone.
    for name in ENTRY_POINTS:
        _forbid(monkeypatch, name)
    warm = _run(capsys, "--cache-dir", str(cache), "--stats-json", str(stats))
    assert warm == reference
    recorded = json.loads(stats.read_text())
    counters = recorded["counters"]
    assert counters == {
        "result_cache_hits": 85,
        "summary_cache_hits": 17 * len(summary.BUILDERS),
    }
    assert not set(COMPUTE_STAGES) & set(recorded["stage_seconds"])


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_forbidden_entry_points_are_the_ones_a_cold_run_calls(monkeypatch, name):
    """The warm-run guard patches the names the runner really calls:
    with one of them forbidden, a cold run fails."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.runner import matrix_architectures

    _forbid(monkeypatch, name)
    runner = ExperimentRunner(scale="tiny")
    with pytest.raises(AssertionError, match=name):
        runner.summary("HS", "extras")
        for arch in matrix_architectures():
            runner.power("HS", arch)


def test_cacheless_run_derives_no_cache_key(capsys, monkeypatch):
    """Without a cache directory no entry is probed or stored, so no
    fingerprint is hashed."""

    def refuse(*parts):
        raise AssertionError("a cache-less run computed a fingerprint")

    monkeypatch.setattr(cachekey, "fingerprint", refuse)
    assert main(["all", "--scale", "tiny"]) == 0
    assert capsys.readouterr().out
