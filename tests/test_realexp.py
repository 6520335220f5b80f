import random
import signal
from fractions import Fraction as F

import oracles
from ratiobound.algebraic import AlgebraicNumber, largest_real_root
from ratiobound.realexp import (
    FAILS,
    PRECISIONS,
    HOLDS,
    UNKNOWN,
    DivergenceRow,
    DivergenceSystem,
    LogCoeff,
    RealExpFormula,
    _find_certified_ray,
    _nonnegative,
    _pure_log_case,
    every_direction_grows,
    fm_solve,
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
    assert res.ray == (1,)


def test_positive_log_coefficient_fails():
    f = formula([(([coeff(2, 1)]), [0])])
    assert semi_decide(f).verdict == FAILS


def test_pure_log_exponent_cases():
    holds = formula([(([coeff(1, 1)]), [-1])])
    assert semi_decide(holds).verdict == HOLDS
    fails = formula([(([coeff(1, 1)]), [1])])
    assert semi_decide(fails).verdict == FAILS
    # every coefficient is exactly zero and no row is bounded below by
    # signs alone, but no direction sinks both rows at once
    zeros = [coeff(1, 1), coeff(1, 1)]
    crossed = formula([(zeros, [-1, 1]), (zeros, [1, -1])])
    res = semi_decide(crossed)
    assert res.verdict == FAILS
    assert res.detail == "log-exponent cone is empty (exact)"


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


def test_unknown_is_reachable_for_knife_edge():
    """A system whose divergence needs an exact boundary direction stays
    unknown rather than guessing: two opposing rows that cancel only on a
    single irrational-ratio ray with zero log help."""
    row_a = ([coeff(2, 1), coeff((1, 2), 1)], [0, 0])  # +ln2 x1 - ln2 x2
    row_b = ([coeff((1, 2), 1), coeff(2, 1)], [0, 0])  # -ln2 x1 + ln2 x2
    res = semi_decide(formula([row_a, row_b]))
    # along x1 = x2 both rows are exactly 0, anywhere else one is positive:
    # neither a certified ray nor a certificate of growth on every
    # direction exists, at any precision of the schedule
    assert res.verdict == UNKNOWN
    assert res.detail == "precision exhausted at 2048 bits"


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
    """ln(1 +- 10^-50) straddles 0 at 128 bits, so both verdicts wait for
    a precision at which the enclosure leaves 0."""
    up = formula([([coeff(10**50 + 1, 10**50)], [0])])
    assert semi_decide(up).verdict == FAILS
    down = formula([([coeff(10**50, 10**50 + 1)], [0])])
    res = semi_decide(down)
    assert res.verdict == HOLDS and res.ray == (1,)


def _ray_first(f):
    """The semi-decision with the ray search ahead of the linear program and
    no sign rule beyond all-zero rows, as (verdict, ray)."""
    sysd = f.system
    zero = [[co.exactly_zero() for co in row.coeffs] for row in sysd.rows]
    for j, row in enumerate(sysd.rows):
        if all(zero[j]) and all(p >= 0 for p in row.logs):
            return FAILS, None
    if all(all(z) for z in zero):
        res = _pure_log_case(sysd)
        return res.verdict, res.ray
    for bits in PRECISIONS:
        enc = [[co.enclosure(bits) for co in row.coeffs] for row in sysd.rows]
        ray = _find_certified_ray(sysd, enc, zero)
        if ray is not None:
            return HOLDS, tuple(ray)
        if every_direction_grows(enc, sysd.nvars):
            return FAILS, None
    return UNKNOWN, None


def test_a_ray_positive_on_its_whole_support_is_found():
    """-log(x0) sinks only when x0 grows and x1 * log(1/2) only when x1
    grows, so every certified ray is positive on both.  The linear program
    sees only the second row and puts 0 on x0; its solution lifted onto
    the whole support certifies, with any number of idle variables."""
    for n in range(2, 6):
        idle = [coeff(1, 1, 0)] * (n - 2)
        rows = [
            ([coeff(1, 1, 0), coeff(1, 1, 0)] + idle, [-1] + [0] * (n - 1)),
            ([coeff(1, 1, 0), coeff(1, 2)] + idle, [0] * n),
        ]
        res = semi_decide(formula(rows))
        assert res.verdict == HOLDS and res.ray[0] > 0 and res.ray[1] > 0, (n, res)


def test_sign_rule_and_covering_first_agree_with_ray_first():
    """Seeded small systems with forced exact ties: wherever the sign rule
    fires no ray is certified, and every verdict the ray-first order
    certifies is given again, with the same ray."""
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
        new = semi_decide(f)
        signs = [[co.sign() for co in row.coeffs] for row in sysd.rows]
        rule = any(
            all(s > 0 or (s == 0 and p >= 0) for s, p in zip(sj, row.logs))
            for sj, row in zip(signs, sysd.rows)
        )
        if rule:
            fired += 1
            assert new.verdict == FAILS, rows
            zero = [[s == 0 for s in sj] for sj in signs]
            for bits in PRECISIONS:
                enc = [[co.enclosure(bits) for co in row.coeffs] for row in sysd.rows]
                assert _find_certified_ray(sysd, enc, zero) is None, rows
        old = _ray_first(f)
        if old[0] == UNKNOWN:
            assert new.verdict == UNKNOWN or rule, rows
        else:
            assert (new.verdict, new.ray) == old, rows
    assert fired >= 15


def _random_linear_system(rng, n, m, values):
    rows = []
    for _ in range(m):
        cs = []
        for _ in range(n):
            num = rng.choice(values)
            cs.append(coeff(num, rng.choice(values), rng.choice([1, 2, -1])))
        rows.append((cs, [0] * n))
    return formula(rows)


def test_linear_program_certifies_wherever_the_box_covering_does():
    """The box covering (depth 10) and the linear program both certify that
    every direction has a growing row; on seeded systems the program never
    misses a covering."""
    rng = random.Random(12)
    values = [F(1, 2), F(2, 3), F(3, 4), F(1), F(4, 3), F(3, 2), F(2)]
    covered = 0
    for _ in range(150):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        sysd = _random_linear_system(rng, n, m, values).system
        enc = [[co.enclosure(128) for co in row.coeffs] for row in sysd.rows]
        if oracles.covering_fails(n, enc):
            covered += 1
            assert every_direction_grows(enc, n), sysd
    assert covered >= 40


def test_pruned_elimination_picks_the_unpruned_direction():
    """Chernikov's rule drops only implied constraints, so back-substitution
    picks exactly the direction of plain Fourier-Motzkin; shapes stay small
    enough for the unpruned oracle to finish."""
    rng = random.Random(13)
    feasible = 0
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
        d = negative_direction(rows, n)
        assert d == oracles.negative_direction_unpruned(rows, n), rows
        if d is not None:
            feasible += 1
            assert all(x >= 0 for x in d)
            assert all(sum(r * x for r, x in zip(row, d)) <= -1 for row in rows)
    assert 20 <= feasible <= 180


def test_integer_elimination_matches_fraction_elimination():
    """`fm_solve` eliminates in integers; on the inputs its two callers
    build from 128-bit enclosures (the midpoint rows of `negative_direction`
    and the lower-bound rows of `every_direction_grows`) it returns the
    direction that elimination over Fractions returns, or None with it."""
    rng = random.Random(14)
    values = [rat(v) for v in (F(1, 2), F(2, 3), F(3, 4), 1, F(4, 3), F(3, 2), 2)]
    values.append(largest_real_root((-2, 0, 1)))  # sqrt 2
    outcomes = {"direction": 0, "none": 0}
    for _ in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        enc = [
            [
                LogCoeff(*rng.sample(values, 2), F(rng.choice([1, 2, -1]))).enclosure(128)
                for _ in range(n)
            ]
            for _ in range(m)
        ]
        midpoint = [[-(e.lo + e.hi) / 2 for e in row] for row in enc]
        grows = [[-e.lo for e in row] for row in enc]
        for cons in (
            _nonnegative(n) + [(row, F(1)) for row in midpoint],
            _nonnegative(n) + [([F(1)] * n, F(1))] + [(row, F(0)) for row in grows],
        ):
            d = fm_solve(cons, n)
            assert d == oracles.fm_solve_fractions(cons, n), cons
            outcomes["none" if d is None else "direction"] += 1
    assert min(outcomes.values()) >= 40, outcomes


def test_near_tie_fails_at_the_start_precision():
    """Rows with signs [-, -, +] and [+, +, -] whose best direction keeps
    the larger row about 5e-5 above 0: box bisection to depth 10 never
    separates that, the linear program does at 128 bits."""
    rows = [
        ([coeff((53, 57), 1), coeff((51, 53), 1), coeff((69, 59), 1)], [0, 0, 0]),
        ([coeff((61, 57), 1), coeff((69, 53), 1), coeff((51, 59), 1)], [0, 0, 0]),
    ]
    res = semi_decide(formula(rows))
    assert res.verdict == FAILS
    assert res.detail == "every direction has a growing row at 128 bits"


def _on_alarm(signum, frame):
    raise TimeoutError("semi_decide took longer than 5 s")


def test_eight_by_five_ray_search_is_quick(monkeypatch):
    """Unpruned elimination over all 31 supports of this 8x5 draw took
    23.6 s; with Chernikov's rule the search takes a fraction of a second
    and certifies the same ray.  Candidate directions are made lazily, so
    the first one, on the full support, certifies after one linear program
    where solving all of them first took 29."""
    from ratiobound import realexp

    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    solve = realexp.negative_direction
    monkeypatch.setattr(realexp, "negative_direction", counted)
    rng = random.Random(2)
    ks = [k for k in range(31, 98) if k % 2 and k % 5]
    rows = [
        ([coeff((rng.choice(ks), 100), (rng.choice(ks), 100)) for _ in range(5)], [0] * 5)
        for _ in range(8)
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(5)
    try:
        res = semi_decide(formula(rows, lower=2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (res.verdict, res.ray) == (HOLDS, (1, F(1, 4), F(1, 4), 1, 0))
    assert len(calls) == 1


def test_a_variable_that_appears_nowhere_leaves_the_growth_program():
    """x3's coefficient is exactly 0 with log exponent 0 in both rows.  The
    rows' sum is (ln 3 - ln 2)(x1 + x2), so along every direction over x1,
    x2 some row grows; along x3 no row grows at all, and with x3 in the
    growth program no precision certified that."""
    row_a = ([coeff(3, 1), coeff(1, 2), coeff(5, 5)], [0, 0, 0])  # ln3 x1 - ln2 x2
    row_b = ([coeff(1, 2), coeff(3, 1), coeff(7, 7, 2)], [0, 0, 0])  # -ln2 x1 + ln3 x2
    res = semi_decide(formula([row_a, row_b]))
    assert res.verdict == FAILS and res.ray is None
    assert res.detail == "every direction has a growing row at 128 bits"
    # a log exponent keeps the variable in: x3 then sinks both rows
    row_c = ([coeff(3, 1), coeff(1, 2), coeff(5, 5)], [0, 0, -1])
    row_d = ([coeff(1, 2), coeff(3, 1), coeff(7, 7)], [0, 0, -1])
    res = semi_decide(formula([row_c, row_d]))
    assert res.verdict == HOLDS and res.ray == (0, 0, 1)
