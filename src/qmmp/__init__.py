"""Exact enumeration of quadrant-condition match statistics on the two
Catalan permutation classes (123- and 132-avoiders), with lattice-path
bijections, exact truncated series engines, and a brute-force verification
harness.
"""

from .dyck import DyckPath, PathStats, first_return_decompose, lift, phi, phi_inv, psi, psi_inv, stats
from .mmp import (
    EMPTY,
    QuadrantSpec,
    bivariate_distribution,
    corner_frame_counts,
    distribution,
    fast_mmp_0k0l,
    matches_at,
    mmp_count,
    quadrants_at,
)
from .perm import P123, P132, Permutation, avoiders, left_to_right_minima, occurs, reduce
from .series import BiPoly, IntPoly, TSeries, catalan, narayana

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "DyckPath",
    "EMPTY",
    "IntPoly",
    "P123",
    "P132",
    "PathStats",
    "Permutation",
    "QuadrantSpec",
    "TSeries",
    "avoiders",
    "bivariate_distribution",
    "catalan",
    "corner_frame_counts",
    "distribution",
    "fast_mmp_0k0l",
    "first_return_decompose",
    "left_to_right_minima",
    "lift",
    "matches_at",
    "mmp_count",
    "narayana",
    "occurs",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "quadrants_at",
    "reduce",
    "stats",
]
