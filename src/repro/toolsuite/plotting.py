"""Plot rendering for the Monitor: ASCII and standalone SVG.

matplotlib is not available in this environment, so the Monitor renders
the paper's performance plots (NAVG and NAVG+ per process type, Figs.
10/11) as fixed-width ASCII bar charts for terminals and as
self-contained SVG documents for reports.
"""

from __future__ import annotations

from repro.metrics.navg import MetricReport


def _ordered(report: MetricReport) -> list:
    def sort_key(process_id: str):
        # P01 … P15 numerically, subprocess ids after their parent.
        digits = "".join(ch for ch in process_id[1:3] if ch.isdigit())
        return (int(digits) if digits else 99, process_id)

    return [report.per_type[pid] for pid in sorted(report.per_type, key=sort_key)]


def performance_plot_ascii(
    report: MetricReport,
    title: str = "DIPBench Performance Plot",
    width: int = 72,
) -> str:
    """Horizontal double-bar chart: NAVG+ (█) over NAVG (▒) per type."""
    rows = _ordered(report)
    if not rows:
        return f"{title}\n(no data)"
    peak = max(m.navg_plus for m in rows) or 1.0
    lines = [title, "=" * len(title), f"{'':6} NAVG+ (#) / NAVG (-)  [in tu]"]
    for m in rows:
        plus_len = int(round(m.navg_plus / peak * width))
        avg_len = int(round(m.navg / peak * width))
        lines.append(
            f"{m.process_id:<6} {'#' * plus_len:<{width}} {m.navg_plus:>12.1f}"
        )
        lines.append(
            f"{'':6} {'-' * avg_len:<{width}} {m.navg:>12.1f}"
        )
    return "\n".join(lines)


def performance_plot_svg(
    report: MetricReport,
    title: str = "DIPBench Performance Plot",
    bar_height: int = 14,
    chart_width: int = 640,
) -> str:
    """Self-contained SVG double-bar chart of NAVG+ / NAVG per type."""
    rows = _ordered(report)
    margin_left, margin_top = 70, 50
    group_height = bar_height * 2 + 10
    height = margin_top + group_height * max(len(rows), 1) + 30
    width = margin_left + chart_width + 120
    peak = max((m.navg_plus for m in rows), default=1.0) or 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<text x="{margin_left}" y="20" font-size="14">{title}</text>',
        f'<text x="{margin_left}" y="36" fill="#555">NAVG+ (dark) over '
        f"NAVG (light), in tu</text>",
    ]
    y = margin_top
    for m in rows:
        plus_w = max(1, int(m.navg_plus / peak * chart_width))
        avg_w = max(1, int(m.navg / peak * chart_width))
        parts.append(
            f'<text x="5" y="{y + bar_height}" fill="#000">{m.process_id}</text>'
        )
        parts.append(
            f'<rect x="{margin_left}" y="{y}" width="{plus_w}" '
            f'height="{bar_height}" fill="#c0392b"/>'
        )
        parts.append(
            f'<text x="{margin_left + plus_w + 4}" y="{y + bar_height - 3}" '
            f'fill="#333">{m.navg_plus:.1f}</text>'
        )
        parts.append(
            f'<rect x="{margin_left}" y="{y + bar_height + 2}" width="{avg_w}" '
            f'height="{bar_height}" fill="#e8a598"/>'
        )
        parts.append(
            f'<text x="{margin_left + avg_w + 4}" '
            f'y="{y + 2 * bar_height - 1}" fill="#666">{m.navg:.1f}</text>'
        )
        y += group_height
    parts.append("</svg>")
    return "\n".join(parts)
