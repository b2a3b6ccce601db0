"""Trickle groups: vertex-ordered graphs, piling rewriting, normal forms."""

from .graph import (INFINITY, GraphError, TrickleGraph, ValidationReport,
                    Violation, spot_check, validate)
from .pilings import (FinitenessAnswer, GroupElement, element_from_text,
                      format_word, from_syllables, is_finite,
                      make_stratum, make_syllable, normalize, parse_word,
                      product, push_syllable, stratum_add, stratum_can_add,
                      stratum_extract, stratum_remove)

__all__ = [
    "INFINITY", "GraphError", "TrickleGraph", "ValidationReport", "Violation",
    "spot_check", "validate",
    "FinitenessAnswer", "GroupElement", "element_from_text", "format_word",
    "from_syllables", "is_finite", "make_stratum",
    "make_syllable", "normalize", "parse_word", "product", "push_syllable",
    "stratum_add", "stratum_can_add", "stratum_extract", "stratum_remove",
]
