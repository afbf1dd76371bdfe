"""Exact computation of super Gromov-Witten numbers.

Subpackages: genus-zero psi/kappa integrals (`taut`), point-target
invariants (`point`), fixed-point graph data (`graphs`), degree-one
localization sums (`localize`), and the first-order quantum product
(`quantum`).  Exact polynomial arithmetic (`exact`) is the tests'
reference ring and is not imported here.
"""

from .errors import (
    DimensionError,
    DomainError,
    InconsistencyError,
    ResampleSignal,
    UnsupportedError,
)
from .graphs import (
    EulerData,
    FixedGraph,
    enumerate_graphs,
    euler_data,
    ev_pullback,
    odd_weights,
)
from .localize import LocalizationJob, check_extension, graph_contribution, invariant
from .point import Invariant, mapping_to_point, sgw_point
from .quantum import QElement, star, structure_table
from .taut import TautExpr, integrate, integrate_monomial, pushforward_step

__all__ = [
    "DimensionError",
    "DomainError",
    "EulerData",
    "FixedGraph",
    "InconsistencyError",
    "Invariant",
    "LocalizationJob",
    "QElement",
    "ResampleSignal",
    "TautExpr",
    "UnsupportedError",
    "check_extension",
    "enumerate_graphs",
    "euler_data",
    "ev_pullback",
    "graph_contribution",
    "integrate",
    "integrate_monomial",
    "invariant",
    "mapping_to_point",
    "odd_weights",
    "pushforward_step",
    "sgw_point",
    "star",
    "structure_table",
]
