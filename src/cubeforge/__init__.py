"""cubeforge: discover and rigorously certify infinite families of solutions
of cubic Diophantine equations a*X^3 + a*Y^3 + b*Z^3 = c, with the supporting
machinery: exact polynomial algebra, C-finite sequences, Pell-like orbit
solving, and equation concocting by elimination and substitution.
"""

from .cfinite import (
    Certificate,
    RationalGF,
    certify_zero,
    seq_from_terms,
    taylor_coefficients,
)
from .concoct import FormResult, find_form, implicitize, twist_no_solution
from .cubic import (
    ParamQuadruple,
    WeightedQuadruple,
    morph,
    search_quadruples,
    verify_param,
)
from .forge import (
    CubicTheorem,
    certify_theorem,
    forge,
    render,
    theorem_from_json,
    theorem_to_json,
)
from .kernel import (
    MultiPoly,
    content_primitive,
    divides,
    exact_div,
    rational_nullspace,
    resultant,
)
from .parsing import parse_poly
from .quadform import (
    PellConstruction,
    PellOrbit,
    QuadForm,
    enumerate_solutions,
    general_quadform,
    pell_special,
    sol_quad,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CubicTheorem",
    "FormResult",
    "MultiPoly",
    "ParamQuadruple",
    "PellConstruction",
    "PellOrbit",
    "QuadForm",
    "RationalGF",
    "WeightedQuadruple",
    "certify_theorem",
    "certify_zero",
    "content_primitive",
    "divides",
    "enumerate_solutions",
    "exact_div",
    "find_form",
    "forge",
    "general_quadform",
    "implicitize",
    "morph",
    "parse_poly",
    "pell_special",
    "rational_nullspace",
    "render",
    "resultant",
    "search_quadruples",
    "seq_from_terms",
    "sol_quad",
    "taylor_coefficients",
    "theorem_from_json",
    "theorem_to_json",
    "twist_no_solution",
    "verify_param",
]
