import os
import random
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
    SemiDecision,
    _covering_fails,
    _find_certified_ray,
    _grid_witnesses,
    _pure_log_case,
    negative_direction,
    semi_decide,
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
    smt = f.to_smt2()
    assert "(check-sat)" in smt
    assert "(declare-fun ln (Real) Real)" in smt
    assert "forall" in smt


def test_precision_outside_range_is_input_error():
    """Doubling from 0 bits never terminates, and a start above the cap would
    skip every attempt; both are rejected up front."""
    f = formula([([coeff(1, 1), coeff(2, 1)], [0, 0])])
    # 0*x1 + ln2*x2 is bounded below, exactly by its signs
    assert semi_decide(f).verdict == FAILS
    row_a = ([coeff(2, 1), coeff((1, 2), 1)], [0, 0])
    row_b = ([coeff((1, 2), 1), coeff(2, 1)], [0, 0])
    assert semi_decide(formula([row_a, row_b]), max_bits=256).verdict == UNKNOWN
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


def test_log_coeff_sign_is_exact():
    assert coeff((1, 2), 1).sign() == -1
    assert coeff((1, 2), 1, -3).sign() == 1
    assert coeff(3, 3).sign() == 0
    assert coeff(2, 1, 0).sign() == 0
    assert LogCoeff(largest_real_root((-2, 0, 1)), rat((7, 5)), F(1)).sign() == 1


def test_sign_rule_needs_only_a_positive_lower_bound():
    """x >= 1/2 keeps c*x + p*log(x) bounded below for c > 0, or c = 0 and
    p >= 0, even though log(x) dips below 0."""
    rows = [([coeff(2, 1), coeff(1, 1)], [-1, 1]), ([coeff((1, 2), 1), coeff(1, 1)], [0, 0])]
    res = semi_decide(formula(rows, lower=F(1, 2)))
    assert res.verdict == FAILS and "exact signs" in res.detail


def test_single_variable_coefficient_near_zero():
    """ln(1 +- 10^-50) straddles 0 at 128 bits; the covering of a single
    variable has nothing to split and must not raise."""
    up = formula([([coeff(10**50 + 1, 10**50)], [0])])
    assert semi_decide(up).verdict == FAILS
    down = formula([([coeff(10**50, 10**50 + 1)], [0])])
    res = semi_decide(down)
    assert res.verdict == HOLDS and res.ray == (1,)


def test_pure_log_case_uses_the_requested_precision(monkeypatch):
    import ratiobound.realexp as realexp

    seen = []
    inner = realexp.ln_fraction_bounds

    def recording(x, bits):
        seen.append(bits)
        return inner(x, bits)

    monkeypatch.setattr(realexp, "ln_fraction_bounds", recording)
    res = semi_decide(formula([([coeff(1, 1)], [-1])]), start_bits=256)
    assert res.verdict == HOLDS
    assert seen and set(seen) == {256}


def _ray_first(f, bits, max_bits, grid_witnesses=_grid_witnesses):
    """The semi-decision with the ray search ahead of the covering and no
    sign rule beyond all-zero rows, as it stood before the exact signs."""
    sysd = f.system
    zero = [[co.exactly_zero() for co in row.coeffs] for row in sysd.rows]
    for j, row in enumerate(sysd.rows):
        if all(zero[j]) and all(p >= 0 for p in row.logs):
            return SemiDecision(FAILS)
    if all(all(z) for z in zero):
        return _pure_log_case(f, bits)
    while bits <= max_bits:
        enc = [[co.enclosure(bits) for co in row.coeffs] for row in sysd.rows]
        found = _find_certified_ray(sysd, enc, zero, bits)
        if found is not None:
            wit = grid_witnesses(sysd, enc, found[0], bits)
            if wit is not None:
                return SemiDecision(HOLDS, ray=tuple(found[0]), witnesses=tuple(wit))
        if _covering_fails(sysd, enc, bits):
            return SemiDecision(FAILS)
        bits *= 2
    return SemiDecision(UNKNOWN)


def test_sign_rule_and_covering_first_agree_with_ray_first(monkeypatch):
    """Seeded small systems with forced exact ties: wherever the sign rule
    fires no ray is certified, and every verdict the ray-first order
    certifies is given again, with the same ray and witnesses."""
    import ratiobound.realexp as realexp

    # witnesses depend on the system, ray and precision only; rows that sink
    # logarithmically take a second to walk, so both orders share one walk
    memo = {}

    def grid_witnesses(sysd, enc, ray, bits):
        key = (sysd, tuple(ray), bits)
        if key not in memo:
            memo[key] = _grid_witnesses(sysd, enc, ray, bits)
        return memo[key]

    monkeypatch.setattr(realexp, "_grid_witnesses", grid_witnesses)
    rng = random.Random(6)
    values = [F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]
    fired = 0
    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        rows = []
        for _ in range(m):
            cs = []
            for _ in range(n):
                num = rng.choice(values)
                den = num if rng.random() < 0.35 else rng.choice(values)
                cs.append(coeff(num, den, rng.choice([1, 2, -1])))
            rows.append((cs, [rng.randint(-1, 1) for _ in range(n)]))
        f = formula(rows, lower=rng.choice([1, 2]))
        sysd = f.system
        new = semi_decide(f, max_bits=256)
        signs = [[co.sign() for co in row.coeffs] for row in sysd.rows]
        rule = any(
            all(s > 0 or (s == 0 and p >= 0) for s, p in zip(sj, row.logs))
            for sj, row in zip(signs, sysd.rows)
        )
        if rule:
            fired += 1
            assert new.verdict == FAILS, rows
            zero = [[s == 0 for s in sj] for sj in signs]
            for bits in (128, 256):
                enc = [[co.enclosure(bits) for co in row.coeffs] for row in sysd.rows]
                assert _find_certified_ray(sysd, enc, zero, bits) is None, rows
        old = _ray_first(f, 128, 256, grid_witnesses)
        if old.verdict == UNKNOWN:
            assert new.verdict == UNKNOWN or rule, rows
        else:
            assert (new.verdict, new.ray, new.witnesses) == (
                old.verdict,
                old.ray,
                old.witnesses,
            ), rows
    assert fired >= 15
