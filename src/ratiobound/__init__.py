"""Exact-arithmetic deciders for weight-ratio boundedness between states of
non-negative weighted automata and labelled Markov chains."""

from .automata import (
    INF,
    FormatError,
    InputError,
    Lmc,
    Nfa,
    ProbAutomaton,
    Query,
    RatioProfile,
    ResourceError,
    WeightedAutomaton,
    nfa_of,
    normalize_single_final,
    ratio_profile,
    validate_lmc,
    validate_pa,
    weight_blocks,
)
from .bounded import (
    DeltaTuple,
    LinearSet,
    bounded_to_letter_bounded,
    decide_bounded,
    decide_finitely_ambiguous,
    detect_letter_bounded,
    emit_formula,
    finitely_ambiguous_formula,
    letter_bounded_to_plus,
    parikh_linear_sets,
    plus_analysis,
)
from .nfaops import (
    ChrobakNf,
    eventually_included,
    lc_check,
    nfa_contained,
)
from .realexp import RealExpFormula, semi_decide
from .reductions import (
    bigo_to_value1,
    complete_for_eventual,
    from_big_theta,
    gen_hardness,
    gen_undecidable,
    to_big_theta,
    value1_to_bigo,
)
from .spectral import (
    AlgebraicNumber,
    AnnotatedAutomaton,
    SccInfo,
    annotate,
    degree_language,
    scc_decompose,
    scc_decompose_unary,
)
from .algebraic import compare as compare_radius
from .algebraic import spectral_radius_of_matrix as spectral_radius
from .unambiguous import decide_unambiguous, is_unambiguous_from
from .unary import decide_unary, decide_unary_eventual

__version__ = "0.1.0"
