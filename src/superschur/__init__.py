"""Exact tensor representations of the general linear supergroup.

Grassmann-valued supermatrix arithmetic, the three actions on tensor powers
(signed symmetric group, superderivations, diagonal group points), the
semistandard dimension combinatorics, and exact double-centralizer checks.
Everything is computed over Q or a finite Grassmann algebra with no floats
and no tolerances.
"""

from .errors import (
    CapExceeded,
    DimensionError,
    FormatError,
    NotInvertible,
    ParityError,
)
from .grassmann import GrassmannElement, as_element
from .supermatrix import (
    SuperDim,
    SuperMatrix,
    berezinian,
    block_parity,
    dilation,
    even_det,
    even_matrix_inverse,
    gl_point,
    ldu_factor,
    random_gl_point,
    rational_elementary_factors,
    realize_elementary_factors,
    superbracket,
    supertrace,
    transvection,
)
from .tableaux import (
    count_ssyt,
    count_syt,
    dimension_table,
    enumerate_ssyt,
    partitions,
    render_filling,
    symbol_name,
)
from .tensor import (
    TensorOperator,
    adjacent_decomposition,
    all_perms,
    basis_words,
    compose,
    cycle_decomposition,
    derivation_operator,
    diagonal_operator,
    operator_from_transpositions,
    permutation_operator,
    point_derivation_operator,
    swap_letters,
    transposition_operator,
    word_index,
)
from .commutant import (
    DEFAULT_CAP,
    RowSpace,
    algebra_generated,
    centralizer,
    check_cap,
    double_centralizer_report,
)
from .suites import (
    SUITE_NAMES,
    rho_theta_equality_report,
    run_suite,
    suite_actions,
    suite_bracket,
    suite_group,
    suite_schurweyl,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DimensionError",
    "FormatError",
    "NotInvertible",
    "ParityError",
    "GrassmannElement",
    "as_element",
    "SuperDim",
    "SuperMatrix",
    "berezinian",
    "block_parity",
    "dilation",
    "even_det",
    "even_matrix_inverse",
    "gl_point",
    "ldu_factor",
    "random_gl_point",
    "rational_elementary_factors",
    "realize_elementary_factors",
    "superbracket",
    "supertrace",
    "transvection",
    "count_ssyt",
    "count_syt",
    "dimension_table",
    "enumerate_ssyt",
    "partitions",
    "render_filling",
    "symbol_name",
    "TensorOperator",
    "adjacent_decomposition",
    "all_perms",
    "basis_words",
    "compose",
    "cycle_decomposition",
    "derivation_operator",
    "diagonal_operator",
    "operator_from_transpositions",
    "permutation_operator",
    "point_derivation_operator",
    "swap_letters",
    "transposition_operator",
    "word_index",
    "DEFAULT_CAP",
    "RowSpace",
    "algebra_generated",
    "centralizer",
    "check_cap",
    "double_centralizer_report",
    "rho_theta_equality_report",
    "SUITE_NAMES",
    "run_suite",
    "suite_actions",
    "suite_bracket",
    "suite_group",
    "suite_schurweyl",
    "__version__",
]
