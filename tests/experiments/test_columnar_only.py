"""``repro all`` runs on columns alone: no per-event objects, no pickles
outside v5 object banks."""

from repro.cli import main
from repro.scalar.eligibility import SourceRead
from repro.scalar.tracker import ClassifiedEvent
from repro.simt.trace import ColumnarTrace

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
    cache = tmp_path / "cache"
    cold = _run(capsys, "--cache-dir", str(cache))
    warm = _run(capsys, "--cache-dir", str(cache))
    assert cold == reference
    assert warm == reference
    stray = [
        path
        for path in cache.rglob("*.pkl")
        if not path.parent.name.endswith(".v5")
    ]
    assert stray == []
    assert any(cache.rglob("*.v5/timing.pkl"))
