"""Exact tensor representations of the general linear supergroup.

Grassmann-valued supermatrix arithmetic, the three actions on tensor powers
(signed symmetric group, superderivations, diagonal group points), the
semistandard dimension combinatorics, and exact double-centralizer checks.
Everything is computed over Q or a finite Grassmann algebra with no floats
and no tolerances.

Importing the package loads none of its modules.  Each public name below
resolves on first use: reading ``superschur.berezinian`` imports
``superschur.supermatrix`` and keeps the function in the package namespace.
Names outside the table, such as the submodules themselves, import as usual.
"""

from importlib import import_module

# Every public name, and the submodule that defines it.
_SOURCES = {
    "CapExceeded": "errors",
    "DEFAULT_CAP": "errors",
    "DimensionError": "errors",
    "FormatError": "errors",
    "NotInvertible": "errors",
    "ParityError": "errors",
    "SUITE_NAMES": "errors",
    "check_cap": "errors",
    "GrassmannElement": "grassmann",
    "as_element": "grassmann",
    "SuperDim": "supermatrix",
    "SuperMatrix": "supermatrix",
    "berezinian": "supermatrix",
    "block_parity": "supermatrix",
    "dilation": "supermatrix",
    "even_det": "supermatrix",
    "even_matrix_inverse": "supermatrix",
    "gl_point": "supermatrix",
    "ldu_factor": "supermatrix",
    "random_gl_point": "supermatrix",
    "rational_elementary_factors": "supermatrix",
    "realize_elementary_factors": "supermatrix",
    "superbracket": "supermatrix",
    "supertrace": "supermatrix",
    "transvection": "supermatrix",
    "count_ssyt": "tableaux",
    "count_syt": "tableaux",
    "dimension_table": "tableaux",
    "enumerate_ssyt": "tableaux",
    "partitions": "tableaux",
    "render_filling": "tableaux",
    "symbol_name": "tableaux",
    "TensorOperator": "tensor",
    "adjacent_decomposition": "tensor",
    "basis_words": "tensor",
    "derivation_operator": "tensor",
    "diagonal_operator": "tensor",
    "operator_from_transpositions": "tensor",
    "permutation_operator": "tensor",
    "point_derivation_operator": "tensor",
    "swap_letters": "tensor",
    "transposition_operator": "tensor",
    "word_index": "tensor",
    "RowSpace": "commutant",
    "algebra_generated": "commutant",
    "centralizer": "commutant",
    "run_suite": "suites",
    "suite_actions": "suites",
    "suite_bracket": "suites",
    "suite_group": "suites",
    "suite_schurweyl": "suites",
}

__version__ = "0.1.0"

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value
