"""Relative quantifier elimination in ordered abelian groups."""

from .sexpr import ParseError, parse_formula, print_formula
from .models import (
    IntComp, LexModel, LocComp, RatComp, SpinePoint, dim_query, parse_model,
    spine,
)
from .evaluate import evaluate, evaluator, family_evaluator
from .normal import FamilyUnionForm, ResourceLimit
from .eliminate import eliminate_exists_main, power_sum_bound, qe_driver
from .piecewise import (
    FunctionalityError, LinearPiece, PieceSet, decompose,
    verify_decomposition,
)

__all__ = [
    "FamilyUnionForm", "FunctionalityError", "IntComp", "LexModel",
    "LinearPiece", "LocComp", "ParseError", "PieceSet", "RatComp",
    "ResourceLimit", "SpinePoint", "decompose", "dim_query",
    "eliminate_exists_main", "evaluate", "evaluator", "family_evaluator",
    "parse_formula", "parse_model", "power_sum_bound", "print_formula",
    "qe_driver", "spine", "verify_decomposition",
]

__version__ = "0.1.0"
