"""Experiment harness: one rate-distortion measurement, CR-targeted search,
report tables and PGM images."""

from repro.analysis.experiment import RatePoint, evaluate_once
from repro.analysis.crsearch import find_error_bound_for_cr
from repro.analysis.report import format_table
from repro.analysis.visualize import write_pgm

__all__ = [
    "RatePoint",
    "evaluate_once",
    "find_error_bound_for_cr",
    "format_table",
    "write_pgm",
]
