"""Regular d-dimensional multicomplexes from permutation actions.

Words in a free product of cyclic groups act on finite point sets; the
orbits of the standard color subgroups assemble into colored, ordered,
rooted multicomplexes.  The package builds these quotients and the finite
balls of the universal arboreal complex, analyzes them (links, covers,
regularity, Schreier line graphs, upper-Laplacian spectra), and ships the
classical example families.  Each name below loads its module on first use.
"""

from importlib import import_module

_MODULE = {name: module for module, names in {
    "words": "Params Word multiply reduce_word theta word_length",
    "permrep": "PermRep evaluate intersect_reps random_rep validate",
    "complexes": "MComplex is_link_connected is_lower_path_connected link_with_map nerve",
    "universal": "Ball ball_from_cosets build_ball unique_non_backtracking",
    "quotient": "QuotientObject associated_subgroup_rep build_quotient"
    " complex_has_complete_skeleton complex_is_simplicial complex_line_graph"
    " intersection_property quotient_map",
    "lcc": "link_connected_cover verify_universality",
    "spectral": "boundary_matrix lambda_arboreal lambda_building spectral_gap up_laplacian",
    "gallery": "coxeter_complex flag_complex m_subgroup_rep",
    "graphs": "Multigraph counterexample_graph decompose_regular is_schreier schreier_multigraph",
}.items() for name in names.split()}

__all__ = list(_MODULE)


def __getattr__(name: str):
    """PEP 562: import the module that defines `name` and keep the value."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    return value
