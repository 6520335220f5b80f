import os
from fractions import Fraction as F

import pytest

from ratiobound.algebraic import AlgebraicNumber, largest_real_root
from ratiobound.automata import InputError
from ratiobound.realexp import (
    FAILS,
    HOLDS,
    UNKNOWN,
    DivergenceRow,
    DivergenceSystem,
    LogCoeff,
    RealExpFormula,
    negative_direction,
    semi_decide,
    start_bits_default,
)


def rat(x):
    return AlgebraicNumber.from_rational(F(*x) if isinstance(x, tuple) else F(x))


def coeff(num, den, scale=1):
    return LogCoeff(rat(num), rat(den), F(scale))


def formula(rows, lower=1, nvars=None):
    nvars = nvars if nvars is not None else len(rows[0][0]) if rows else 0
    sys_rows = tuple(
        DivergenceRow(tuple(cs), tuple(ps)) for (cs, ps) in rows
    )
    return RealExpFormula(DivergenceSystem(sys_rows, F(lower), nvars), {})


def test_negative_direction_feasible():
    d = negative_direction([[F(1), F(-2)], [F(-3), F(1)]], 2)
    assert d is not None
    assert F(1) * d[0] - 2 * d[1] <= -1
    assert -3 * d[0] + d[1] <= -1
    assert all(x >= 0 for x in d)


def test_negative_direction_infeasible():
    assert negative_direction([[F(1)]], 1) is None
    assert negative_direction([[F(1), F(0)], [F(0), F(1)]], 2) is None


def test_all_zero_coefficients_fail():
    f = formula([(([coeff(1, 1)]), [0])])
    res = semi_decide(f)
    assert res.verdict == FAILS


def test_single_negative_log_coefficient_holds():
    f = formula([(([coeff((1, 2), 1)]), [0])])
    res = semi_decide(f)
    assert res.verdict == HOLDS
    assert len(res.witnesses) >= 3


def test_positive_log_coefficient_fails():
    f = formula([(([coeff(2, 1)]), [0])])
    assert semi_decide(f).verdict == FAILS


def test_pure_log_exponent_cases():
    holds = formula([(([coeff(1, 1)]), [-1])])
    assert semi_decide(holds).verdict == HOLDS
    fails = formula([(([coeff(1, 1)]), [1])])
    assert semi_decide(fails).verdict == FAILS


def test_relative_ordering_systems():
    row1 = ([coeff((59, 100), (3, 5)), coeff((41, 100), (2, 5))], [0, 0])
    row61 = ([coeff((61, 100), (3, 5)), coeff((39, 100), (2, 5))], [0, 0])
    row62 = ([coeff((62, 100), (3, 5)), coeff((39, 100), (2, 5))], [0, 0])
    res61 = semi_decide(formula([row1, row61]))
    assert res61.verdict == HOLDS
    # the certified escape direction sits in the open cone around 2/3
    ray = [F(x) for x in res61.ray]
    assert F(13, 20) < ray[1] / ray[0] < F(7, 10)
    res62 = semi_decide(formula([row1, row62]))
    assert res62.verdict == FAILS


def test_mixed_zero_row_with_nonnegative_logs_fails():
    rows = [
        ([coeff(1, 1), coeff(1, 1)], [0, 1]),  # exactly bounded below
        ([coeff((1, 2), 1), coeff((1, 3), 1)], [0, 0]),
    ]
    assert semi_decide(formula(rows)).verdict == FAILS


def test_mixed_zero_row_with_negative_log_holds():
    rows = [
        ([coeff(1, 1), coeff(1, 1)], [-1, 0]),
        ([coeff((1, 2), 1), coeff((1, 3), 1)], [0, 0]),
    ]
    res = semi_decide(formula(rows))
    assert res.verdict == HOLDS


def test_algebraic_coefficients():
    # golden ratio over 2 gives a negative log; sqrt(2) over 1 positive
    golden = largest_real_root((-1, -1, 1))
    two = rat(2)
    shrink = LogCoeff(golden, two, F(1))  # log(phi/2) < 0
    f = RealExpFormula(
        DivergenceSystem((DivergenceRow((shrink,), (0,)),), F(1), 1), {}
    )
    assert semi_decide(f).verdict == HOLDS
    grow = LogCoeff(two, golden, F(1))
    f2 = RealExpFormula(
        DivergenceSystem((DivergenceRow((grow,), (0,)),), F(1), 1), {}
    )
    assert semi_decide(f2).verdict == FAILS


def test_formula_text_and_smt():
    row = ([coeff((1, 2), 1)], [2])
    f = formula([row])
    text = f.text()
    assert "forall C" in text and "log" in text
    smt = f.to_smt2()
    assert "(check-sat)" in smt
    assert "(declare-fun ln (Real) Real)" in smt
    assert "forall" in smt
    # one row, two variables, log coefficients and log exponents together
    both = formula([([coeff((1, 2), 1), coeff(3, 1, 2)], [2, -1])], lower=F(3, 2))
    assert both.text() == (
        "forall C. (C < 0 -> exists x1 x2. (x1 >= 3/2 and x2 >= 3/2 and "
        "((1*(log(sig1_1) + (-1*log(rho1)))*x1) + (2*log(x1)) + "
        "(2*(log(sig1_2) + (-1*log(rho2)))*x2) + (-1*log(x2))) < C))"
    )


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("BIGO_WA_PRECISION_BITS", "256")
    assert start_bits_default() == 256
    monkeypatch.setenv("BIGO_WA_PRECISION_BITS", "junk")
    assert start_bits_default() == 128
    monkeypatch.setenv("BIGO_WA_PRECISION_BITS", "0")
    assert start_bits_default() == 16
    monkeypatch.setenv("BIGO_WA_PRECISION_BITS", "4096")
    assert start_bits_default() == 2048
    monkeypatch.delenv("BIGO_WA_PRECISION_BITS")
    assert start_bits_default() == 128


def test_precision_outside_range_is_input_error():
    """Doubling from 0 bits never terminates, and a start above the cap would
    skip every attempt; both are rejected up front."""
    f = formula([([coeff(1, 1), coeff(2, 1)], [0, 0])])
    assert semi_decide(f).verdict == UNKNOWN
    for bits in (0, -3, 15, 4096):
        with pytest.raises(InputError):
            semi_decide(f, start_bits=bits)
    assert semi_decide(formula([([coeff((1, 2), 1)], [0])]), start_bits=2048).verdict == HOLDS


def test_unknown_is_reachable_for_knife_edge():
    """A system whose divergence needs an exact boundary direction stays
    unknown rather than guessing: two opposing rows that cancel only on a
    single irrational-ratio ray with zero log help."""
    row_a = ([coeff(2, 1), coeff((1, 2), 1)], [0, 0])  # +ln2 x1 - ln2 x2
    row_b = ([coeff((1, 2), 1), coeff(2, 1)], [0, 0])  # -ln2 x1 + ln2 x2
    res = semi_decide(formula([row_a, row_b]), max_bits=256)
    # along x1 = x2 both rows are exactly 0, anywhere else one is positive:
    # neither a certified ray nor a covering exists
    assert res.verdict == UNKNOWN


def test_verdict_invariant_under_variable_permutation():
    """Permuting coordinates (the order of U) never flips a verdict."""
    row1 = ([coeff((59, 100), (3, 5)), coeff((41, 100), (2, 5))], [0, 0])
    row61 = ([coeff((61, 100), (3, 5)), coeff((39, 100), (2, 5))], [0, 0])
    row62 = ([coeff((62, 100), (3, 5)), coeff((39, 100), (2, 5))], [0, 0])

    def permuted(rows):
        return [
            (list(reversed(cs)), list(reversed(ps))) for (cs, ps) in rows
        ]

    for rows in ([row1, row61], [row1, row62]):
        v1 = semi_decide(formula(rows)).verdict
        v2 = semi_decide(formula(permuted(rows))).verdict
        assert v1 == v2
