"""Finitely presented group engine: braid actions, presentations,
abelian invariants, subgroup rewriting, coset enumeration, hom counts."""

from .words import GroupWord, WordError, word
from .braids import BraidError, BraidWord, artin_act
from .presentation import (Presentation, PresentationError,
                           quotient_by_relations, zvk_presentation)
from .burau import G0Error, g0_equal, g0_is_trivial, verify_g0_relations
from .abelian import (AbelianInvariants, abelianization,
                      abelianization_with_images, smith_normal_form)
from .rewriting import (RewriteError, derived_series_quotients, rs_kernel,
                        tietze_simplify)
from .coset import CosetError, CosetTable, todd_coxeter
from .homs import FiniteGroup, HomError, count_homs, standard_target
from .corpus import CORPUS, ORB22_TO_Z2Z2, TAU1, TAU2, get

__all__ = [
    "GroupWord", "WordError", "word",
    "BraidError", "BraidWord", "artin_act",
    "Presentation", "PresentationError", "quotient_by_relations",
    "zvk_presentation",
    "G0Error", "g0_equal", "g0_is_trivial", "verify_g0_relations",
    "AbelianInvariants", "abelianization", "abelianization_with_images",
    "smith_normal_form",
    "RewriteError", "derived_series_quotients", "rs_kernel",
    "tietze_simplify",
    "CosetError", "CosetTable", "todd_coxeter",
    "FiniteGroup", "HomError", "count_homs", "standard_target",
    "CORPUS", "ORB22_TO_Z2Z2", "TAU1", "TAU2", "get",
]
