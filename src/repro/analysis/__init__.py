"""Result analysis: Amdahl projection and report formatting."""

from repro.analysis.amdahl import amdahl_speedup, whole_benchmark_speedup
from repro.analysis.report import (
    Comparison,
    compare_runs,
    format_table,
    geometric_mean,
    harmonic_mean,
)

__all__ = [
    "amdahl_speedup",
    "whole_benchmark_speedup",
    "Comparison",
    "compare_runs",
    "format_table",
    "geometric_mean",
    "harmonic_mean",
]
