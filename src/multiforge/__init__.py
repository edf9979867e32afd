"""Regular d-dimensional multicomplexes from permutation actions.

Words in a free product of cyclic groups act on finite point sets; the
orbits of the standard color subgroups assemble into colored, ordered,
rooted multicomplexes.  The package builds these quotients and the finite
balls of the universal arboreal complex, analyzes them (links, covers,
regularity, Schreier line graphs, upper-Laplacian spectra), and ships the
classical example families.
"""

from .words import Params, Word, multiply, reduce_word, theta, word_length
from .permrep import PermRep, evaluate, intersect_reps, orbits, random_rep, validate
from .complexes import MComplex, is_link_connected, is_lower_path_connected, link_with_map, nerve
from .universal import Ball, ball_from_cosets, build_ball, unique_non_backtracking
from .quotient import (
    QuotientObject,
    associated_subgroup_rep,
    build_quotient,
    complex_has_complete_skeleton,
    complex_is_simplicial,
    complex_line_graph,
    intersection_property,
    is_upper_regular,
    quotient_map,
)
from .lcc import link_connected_cover, verify_universality
from .spectral import boundary_matrix, lambda_arboreal, lambda_building, spectral_gap, up_laplacian
from .gallery import coxeter_complex, flag_complex, m_subgroup_rep
from .graphs import Multigraph, counterexample_graph, decompose_regular, is_schreier, schreier_multigraph

__all__ = [
    "Params", "Word", "multiply", "reduce_word", "theta", "word_length",
    "PermRep", "evaluate", "intersect_reps", "orbits", "random_rep", "validate",
    "MComplex", "is_link_connected", "is_lower_path_connected", "link_with_map", "nerve",
    "Ball", "ball_from_cosets", "build_ball", "unique_non_backtracking",
    "QuotientObject", "associated_subgroup_rep", "build_quotient",
    "complex_has_complete_skeleton", "complex_is_simplicial", "complex_line_graph",
    "intersection_property", "is_upper_regular", "quotient_map",
    "link_connected_cover", "verify_universality",
    "boundary_matrix", "lambda_arboreal", "lambda_building", "spectral_gap", "up_laplacian",
    "coxeter_complex", "flag_complex", "m_subgroup_rep",
    "Multigraph", "counterexample_graph", "decompose_regular", "is_schreier",
    "schreier_multigraph",
]
