"""The README's code snippet must actually run."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_snippet_executes():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README has no python snippet"
    namespace: dict = {}
    exec(compile(blocks[0], "<README>", "exec"), namespace)  # noqa: S102
    report = namespace["report"]
    assert report.ipc > 0
    assert report.ipc_per_watt > 0


def test_readme_mentions_all_deliverables():
    text = README.read_text()
    for anchor in (
        "DESIGN.md",
        "EXPERIMENTS.md",
        "python -m repro",
        "python3 benchmarks/e2e/run.py",
        "examples/quickstart.py",
    ):
        assert anchor in text, anchor
