"""fusionlab: declare, expand, and analyze fusion rules for hierarchical tilings.

A fusion rule describes how level-n supertiles are fused from level-(n-1)
supertiles, starting from finitely many prototiles. This package provides
the rule data model and file format, exact transition matrices, supertile
expansion with geometric validation, and frequency/primitivity/van Hove
diagnostics, all in exact arithmetic.
"""

from .analysis import (
    ErgodicityReport,
    FrequencyHull,
    FrequencyInterval,
    PrimitivityResult,
    VanHoveReport,
    ergodicity_report,
    frequency_hull,
    patch_count_2d,
    patch_frequency_estimate,
    patch_universality,
    primitivity_check,
    van_hove_diagnostic,
    word_count,
)
from .builtins import BUILTIN_RULES, builtin_names, builtin_text, load_builtin
from .core import (
    Always,
    And,
    BinOp,
    Cmp,
    Diagnostic,
    Dim,
    FusionRule,
    Guard,
    IntExpr,
    IsPow,
    LevelResolution,
    Lit,
    Not,
    Or,
    Placement,
    Prototile,
    ResolvedPlacement,
    ResolvedSupertile,
    SupertileDef,
    Var,
    eval_expr,
    eval_guard,
    level_sizes,
    resolve_level,
    validate_rule,
)
from .dsl import ParseDiagnostic, SourceSpan, format_rule, parse_rule, parse_rule_text
from .errors import (
    DisconnectedError,
    EmptyLevelError,
    ExpansionTooLargeError,
    FusionError,
    InvalidRangeError,
    InvalidRepeatError,
    NegativeExponentError,
    OverlapError,
    ParseError,
    UndefinedLabelError,
    UnknownDimensionError,
    UnknownLabelError,
    ValidationError,
)
from .expand import (
    AdmissibilityResult,
    CellPatch,
    cell_count,
    expand_supertile,
    is_admissible,
    label_chars,
    parse_word,
    prefix_suffix,
    render_svg,
    render_text,
    tile_census,
    tile_count,
    word_string,
)
from .transition import (
    TransitionMatrix,
    VolumeVector,
    compose,
    step_matrix,
    transition_matrix,
    volumes,
)

__version__ = "0.1.0"

__all__ = [
    "Always", "And", "BinOp", "Cmp", "Diagnostic", "Dim", "FusionRule",
    "Guard", "IntExpr", "IsPow", "LevelResolution", "Lit", "Not", "Or",
    "Placement", "Prototile", "ResolvedPlacement", "ResolvedSupertile",
    "SupertileDef", "Var", "eval_expr", "eval_guard", "level_sizes",
    "resolve_level", "validate_rule",
    "ParseDiagnostic", "SourceSpan", "format_rule", "parse_rule", "parse_rule_text",
    "BUILTIN_RULES", "builtin_names", "builtin_text", "load_builtin",
    "TransitionMatrix", "VolumeVector", "compose", "step_matrix",
    "transition_matrix", "volumes",
    "AdmissibilityResult", "CellPatch", "cell_count",
    "expand_supertile", "is_admissible", "label_chars", "parse_word",
    "prefix_suffix", "render_svg", "render_text", "tile_census", "tile_count",
    "word_string",
    "ErgodicityReport", "FrequencyHull", "FrequencyInterval",
    "PrimitivityResult", "VanHoveReport", "ergodicity_report",
    "frequency_hull", "patch_count_2d", "patch_frequency_estimate",
    "patch_universality", "primitivity_check", "van_hove_diagnostic",
    "word_count",
    "DisconnectedError", "EmptyLevelError", "ExpansionTooLargeError",
    "FusionError", "InvalidRangeError", "InvalidRepeatError",
    "NegativeExponentError", "OverlapError", "ParseError",
    "UndefinedLabelError", "UnknownDimensionError", "UnknownLabelError",
    "ValidationError",
]
