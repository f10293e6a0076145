"""revca: construct reversible 1D binary cellular automaton rules from
stability patterns, and verify them with an independent injectivity oracle."""

from .patterns import (
    FLIP,
    WILD,
    MixtureError,
    MixtureSet,
    PatternError,
    PatternString,
    build_mixture,
    compatible,
    enumerate_concretizations,
    enumerate_extended,
    extend,
    format_pattern,
    generate_all_patterns,
    generate_injective_patterns,
    independent,
    is_injective_pattern,
    parse_pattern,
    prefix_substring,
    suffix_substring,
    unstable_overlap,
)
from .rules import (
    FlipCollisionError,
    RuleTable,
    Triviality,
    WolframNumber,
    classify_trivial,
    complement_table,
    from_wolfram,
    induce,
    is_balanced,
    projection_table,
    rule_from_json,
    rule_to_json,
    table_hex,
    to_wolfram,
    trivial_tables,
)
from .engine import (
    ExhaustiveBoundError,
    check_involution,
    shift,
    space_time,
    step,
)
from .injectivity import (
    InjectivityVerdict,
    debruijn_injective,
    exhaustive_injective,
    periodic_bijective,
)

__version__ = "0.1.0"
