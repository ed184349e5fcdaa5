"""``repro all`` runs on columns alone: no pickles outside v5 object
banks, no processed-column entries on disk, and every result replays
from the cache.  ``tests/test_src_imports.py`` keeps the per-event
reference engines out of reach of ``src/``."""

import json

from repro.cli import main

ARGV = ["all", "--scale", "tiny", "--widths"]


def _run(capsys, *extra) -> str:
    assert main(ARGV + list(extra)) == 0
    return capsys.readouterr().out


def test_repro_all_builds_no_classified_events(tmp_path, capsys):
    reference = _run(capsys)
    cache = tmp_path / "cache"
    stats = tmp_path / "stats.json"
    cold = _run(capsys, "--cache-dir", str(cache))
    # Processed columns live in memory only: the cold run wrote no
    # ``pcols`` entry, and the warm run still replays every result.
    assert not list(cache.glob("*_pcols_*"))
    warm = _run(capsys, "--cache-dir", str(cache), "--stats-json", str(stats))
    assert cold == reference
    assert warm == reference
    counters = json.loads(stats.read_text())["counters"]
    assert counters["result_cache_hits"] == 85
    assert counters.get("trace_executions", 0) == 0
    assert not any("pcols" in name for name in counters)
    stray = [
        path
        for path in cache.rglob("*.pkl")
        if not path.parent.name.endswith(".v5")
    ]
    assert stray == []
    assert any(cache.rglob("*.v5/timing.pkl"))
