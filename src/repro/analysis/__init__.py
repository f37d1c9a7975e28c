"""Analysis helpers: linearity metrics, Monte-Carlo histograms, report rendering."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".histograms": (
        "HistogramSummary",
        "ascii_histogram",
        "level_separation",
        "summarize_samples",
    ),
    ".linearity": ("LinearityReport", "linear_fit", "linearity_report"),
    ".reporting": (
        "ComparisonRow",
        "render_bar_chart",
        "render_comparison",
        "render_table",
    ),
})
