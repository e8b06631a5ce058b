"""Toeplitz finite sections, Muckenhoupt weights and essential-norm
brackets on the unit circle."""

from .spectral import CoeffVector, IndexWindow, analyze, synthesize
from .weights import (OuterPair, PowerWeight, ap_characteristic,
                      khvedelidze_ap_check, outer_pair, outer_pair_exact,
                      outer_pair_refined, sample_power_weight)
from .operators import (conjugated_toeplitz_matrix, k0_matrix, shift_order,
                        symbol_sup, toeplitz_matrix)
from .estimation import (BracketParams, NormEstimate,
                         compression_deficiency_bound, essential_bracket)

__version__ = "0.1.0"

__all__ = [
    "CoeffVector", "IndexWindow", "analyze", "synthesize",
    "OuterPair", "PowerWeight", "ap_characteristic", "khvedelidze_ap_check",
    "outer_pair", "outer_pair_exact", "outer_pair_refined",
    "sample_power_weight",
    "conjugated_toeplitz_matrix", "k0_matrix", "shift_order",
    "symbol_sup", "toeplitz_matrix",
    "BracketParams", "NormEstimate",
    "compression_deficiency_bound", "essential_bracket",
]
