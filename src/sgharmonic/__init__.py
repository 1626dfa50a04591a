"""Exact evaluation and derivative analysis of harmonic functions on the
Sierpinski gasket."""

from .exactarith import QuadExt, format_rational, parse_rational
from .gasket import (
    EDGES,
    BoundaryValues,
    CellAddress,
    EdgePoint,
    cell_values,
    closed_form_lemma2,
    edge_profile,
    eval_dyadic,
    extend_once,
    normal_derivative,
    renormalized_vertex_difference,
)
from .oracle import (
    GasketGraph,
    build_graph,
    check_five_point,
    check_mean_value,
    solve_harmonic,
)
from .restrictions import (
    DerivClass,
    ExtremumResult,
    MonotonicityClass,
    TriangleSequence,
    beta_closed_form,
    classify_edge,
    count_zero_junctions,
    dsv_check,
    gamma_closed_form,
    junction_derivative,
    locate_extremum,
    simultaneous_monotone,
    third_point_onset,
    third_point_quotients,
    triangle_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryValues", "CellAddress", "DerivClass", "EDGES", "EdgePoint",
    "ExtremumResult", "GasketGraph", "MonotonicityClass", "QuadExt",
    "TriangleSequence", "beta_closed_form", "build_graph", "cell_values",
    "check_five_point", "check_mean_value", "classify_edge", "closed_form_lemma2",
    "count_zero_junctions", "dsv_check", "edge_profile", "eval_dyadic",
    "extend_once", "format_rational", "gamma_closed_form", "junction_derivative",
    "locate_extremum", "normal_derivative", "parse_rational",
    "renormalized_vertex_difference", "simultaneous_monotone", "solve_harmonic",
    "third_point_onset", "third_point_quotients", "triangle_sequence",
]
