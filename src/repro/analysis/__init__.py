"""Table formatting and scaling-law fits shared by examples and benchmarks.

Experiments themselves live in :mod:`repro.runner` (registry + cells).
"""

from .tables import format_table, format_value

__all__ = ["format_table", "format_value"]
