"""Exact computation of super Gromov-Witten numbers.

Modules: genus-zero psi/kappa integrals (`taut`), point-target
invariants (`point`), fixed-point graph data (`graphs`), degree-one
localization sums (`localize`), and the first-order quantum product
(`quantum`).  Exact polynomial arithmetic (`exact`) is the tests'
reference ring and no runtime path imports it.
"""
