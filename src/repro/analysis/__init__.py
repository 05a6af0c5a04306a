"""Result analysis and presentation helpers.

:mod:`~repro.analysis.tables` renders experiment results as aligned text
tables (the form every benchmark prints); :mod:`~repro.analysis.series`
renders sweep curves as compact ASCII series for figure-shaped results;
:mod:`~repro.analysis.digest` is the content hash of every result.
"""

from repro.analysis.series import ascii_curve, format_series
from repro.analysis.tables import format_table

__all__ = ["format_table", "format_series", "ascii_curve"]
