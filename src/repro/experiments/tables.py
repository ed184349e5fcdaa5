"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def mean(values: Iterable[float]) -> float:
    """The mean of per-benchmark values, summed in order (0.0 for none):
    a table's AVG row."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def percent(fraction: float) -> str:
    """Format a fraction as a percentage string."""
    return f"{100.0 * fraction:.1f}%"


def render_bar_chart(
    labels: Sequence[str],
    series: dict[str, Sequence[float]],
    width: int = 40,
    reference: float | None = None,
    title: str | None = None,
) -> str:
    """Render grouped horizontal bars in plain text.

    ``series`` maps a series name to one value per label.  ``reference``
    draws a tick at that value on every bar (e.g. the 1.0 line of a
    normalized figure).
    """
    if not series:
        return title or ""
    peak = max(max(values) for values in series.values())
    if reference is not None:
        peak = max(peak, reference)
    if peak <= 0:
        peak = 1.0
    name_width = max(len(name) for name in series)
    label_width = max(len(label) for label in labels) if labels else 0
    lines = []
    if title:
        lines.append(title)
    for index, label in enumerate(labels):
        for series_index, (name, values) in enumerate(series.items()):
            bar_length = int(round(width * values[index] / peak))
            bar = "#" * bar_length
            if reference is not None:
                tick = int(round(width * reference / peak))
                if tick >= len(bar):
                    bar = bar.ljust(tick) + "|"
                else:
                    bar = bar[:tick] + "|" + bar[tick + 1 :]
            row_label = label if series_index == 0 else ""
            lines.append(
                f"{row_label:>{label_width}}  {name:<{name_width}}  "
                f"{bar} {values[index]:.2f}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()
