"""Exact cohomology of tautological bundles on Quot schemes over P^1.

Strategy: embed the Quot scheme in a product of two Grassmannians, resolve
by the Koszul complex of the cutting section, evaluate every term by
Borel-Weil-Bott, and assemble the spectral sequence conservatively.
"""

__version__ = "0.1.0"

from .pipeline import (
    InsertionSpec,
    QuotSetup,
    assemble,
    closed_form_multi,
    e1_page,
    stromme,
)
from .complexes import hyper_cohomology
