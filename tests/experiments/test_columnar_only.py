"""``repro all`` runs on columns alone: no per-event objects, no pickles
outside v5 object banks, no processed-column entries on disk."""

import json

from repro.cli import main
from repro.scalar.eligibility import SourceRead
from repro.scalar.tracker import ClassifiedEvent
from repro.simt.trace import ColumnarTrace, TraceEvent

ARGV = ["all", "--scale", "tiny", "--widths"]


def _refuse(*args, **kwargs):
    raise AssertionError("the production path built a per-event object")


def _run(capsys, *extra) -> str:
    assert main(ARGV + list(extra)) == 0
    return capsys.readouterr().out


def test_repro_all_builds_no_classified_events(tmp_path, capsys, monkeypatch):
    reference = _run(capsys)
    monkeypatch.setattr(ClassifiedEvent, "__init__", _refuse)
    monkeypatch.setattr(SourceRead, "__init__", _refuse)
    monkeypatch.setattr(ColumnarTrace, "to_trace", _refuse)
    monkeypatch.setattr(ColumnarTrace, "from_trace", _refuse)
    monkeypatch.setattr(TraceEvent, "__init__", _refuse)
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

