"""Exact-arithmetic deciders for weight-ratio boundedness between states of
non-negative weighted automata and labelled Markov chains.

The public names load their submodule on first access (PEP 562), so a
caller that never touches the bounded decider never imports it, nor the
interval and real-exponential layers beneath it.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it, as "module" or, where the
# name differs there, "module.attribute"
_EXPORTS = {
    **dict.fromkeys(
        "INF FormatError InputError Lmc Nfa ProbAutomaton Query RatioProfile ResourceError"
        " Verdict WeightedAutomaton nfa_of normalize_single_final ratio_profile validate_lmc"
        " validate_pa weight_blocks".split(),
        "automata",
    ),
    **dict.fromkeys(
        "LinearSet bounded_to_letter_bounded decide_bounded emit_formula"
        " letter_bounded_to_plus parikh_linear_sets plus_analysis".split(),
        "bounded",
    ),
    **dict.fromkeys(
        "ChrobakNf detect_letter_bounded eventually_included lc_check nfa_contained".split(),
        "nfaops",
    ),
    **dict.fromkeys("RealExpFormula semi_decide".split(), "realexp"),
    **dict.fromkeys(
        "bigo_to_value1 complete_for_eventual from_big_theta gen_hardness gen_undecidable"
        " to_big_theta value1_to_bigo".split(),
        "reductions",
    ),
    **dict.fromkeys(
        "AlgebraicNumber AnnotatedAutomaton SccInfo annotate degree_language"
        " scc_decompose".split(),
        "spectral",
    ),
    "compare_radius": "algebraic.compare",
    **dict.fromkeys("decide_unambiguous is_unambiguous_from".split(), "unambiguous"),
    **dict.fromkeys("decide_unary decide_unary_eventual".split(), "unary"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module, _, attribute = _EXPORTS[name].partition(".")
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), attribute or name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
