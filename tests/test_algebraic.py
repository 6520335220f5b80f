import random
from fractions import Fraction as F

import pytest

from ratiobound.algebraic import (
    AlgebraicNumber,
    _pdivmod,
    char_poly,
    compare,
    count_roots,
    largest_real_root,
    pgcd,
    psign,
    spectral_radius,
    square_free,
    sturm_sequence,
)

from helpers import random_wa
from oracles import (
    dense_char_poly,
    dense_matrix,
    pmul,
    poly_divmod,
    power_iteration_radius,
)
from ratiobound.spectral import strong_components


def test_char_poly_fibonacci_matrix():
    m = (1, (((0, 1), (1, 1)), ((0, 1),)))  # [[1, 1], [1, 0]]
    assert char_poly(m) == (-1, -1, 1)  # x^2 - x - 1


def test_char_poly_rational_scaling():
    m = (2, (((0, 1),),))  # [[1/2]]
    # root must be exactly 1/2 regardless of clearing denominators
    r = largest_real_root(char_poly(m))
    assert r.compare_rational(F(1, 2)) == 0


def test_char_poly_matches_dense_reference():
    """The sparse product gives the dense reference's polynomial on seeded
    draws of 1-9 states at several densities, all-zero and 1x1 letters
    among them, and on a strongly connected component of 40+ states."""
    rng = random.Random(1307)
    seen = {"all-zero": 0, "1x1": 0}
    for nstates in range(1, 10):
        for density in (0.0, 0.15, 0.4, 0.7, 1.0):
            for _ in range(6):
                wa = random_wa(rng, nstates=nstates, alphabet=("a",), density=density)
                letter = wa.sparse_rows["a"]
                seen["all-zero"] += not any(letter[1])
                seen["1x1"] += nstates == 1
                assert char_poly(letter) == dense_char_poly(dense_matrix(wa, "a"))
    assert all(count >= 10 for count in seen.values()), seen
    wa = random_wa(random.Random(3), nstates=48, alphabet=("a",), density=3 / 48)
    d, rows = wa.sparse_rows["a"]
    comp = max(strong_components([[j for j, _ in row] for row in rows])[0], key=len)
    assert len(comp) >= 40
    pos = {v: k for k, v in enumerate(comp)}
    sub = tuple(tuple((pos[j], x) for j, x in rows[u] if j in pos) for u in comp)
    m = dense_matrix(wa, "a")
    dense = tuple(tuple(m[u][v] for v in comp) for u in comp)
    assert char_poly((d, sub)) == dense_char_poly(dense)


def test_golden_ratio_isolation():
    r = largest_real_root((-1, -1, 1))
    assert abs(r.to_float() - 1.618033988749895) < 1e-9
    assert r.compare_rational(F(8, 5)) == 1
    assert r.compare_rational(F(13, 8)) == -1


def test_sturm_counts():
    p = square_free(pmul((-1, 1), pmul((-2, 1), (-3, 1))))  # roots 1, 2, 3
    chain = sturm_sequence(p)
    assert count_roots(chain, F(0), F(4)) == 3
    assert count_roots(chain, F(1), F(3)) == 2  # (1, 3] excludes the root at 1
    assert count_roots(chain, F(5, 2), F(4)) == 1


def test_square_free_removes_multiplicity():
    p = pmul((-1, 1), (-1, 1))  # (x-1)^2
    assert square_free(p) == (-1, 1)


def test_pgcd_common_root():
    a = pmul((-1, 1), (-2, 1))
    b = pmul((-1, 1), (-3, 1))
    g = pgcd(a, b)
    assert psign(g, F(1)) == 0
    assert psign(g, F(2)) != 0


def test_compare_structural_equality():
    a = largest_real_root((-1, -1, 1))
    b = largest_real_root((-1, -1, 1))
    assert compare(a, b) == 0


def test_compare_rational_embeds():
    a = AlgebraicNumber.from_rational(F(3, 5))
    b = AlgebraicNumber.from_rational(F(59, 100))
    assert compare(a, b) == 1
    assert compare(b, a) == -1


def test_compare_sqrt_half_vs_seven_tenths():
    # sqrt(2)/2 is the positive root of 2x^2 - 1; squaring both sides gives
    # 1/2 > 49/100, so the root exceeds 7/10
    root = largest_real_root((-1, 0, 2))
    assert compare(root, AlgebraicNumber.from_rational(F(7, 10))) == 1


def test_compare_equal_roots_of_different_polynomials():
    # 1/2 as the largest real root of (2x)^3 = 1 versus (2x)^5 = 1
    a = largest_real_root((-1, 0, 0, 8))
    b = largest_real_root((-1, 0, 0, 0, 0, 32))
    assert compare(a, b) == 0
    assert a.compare_rational(F(1, 2)) == 0


def test_compare_close_algebraics():
    # sqrt(2) vs 665857/470832 (a convergent, extremely close)
    a = largest_real_root((-2, 0, 1))
    conv = F(665857, 470832)
    b = AlgebraicNumber.from_rational(conv)
    assert compare(a, b) == (1 if 2 > conv * conv else -1)


def test_scaled_halving():
    a = largest_real_root((-2, 0, 1))  # sqrt 2
    h = a.scaled(F(1, 2))
    # 2 * (sqrt2/2)^2 = 1
    assert h.poly == (-1, 0, 2)
    r = h.refined(F(1, 10**6))
    assert psign(h.poly, r.lo) * psign(h.poly, r.hi) <= 0
    assert compare(h, largest_real_root((-1, 0, 2))) == 0


def test_spectral_radius_zero_matrix():
    for n in (1, 3):
        r = spectral_radius((1, ((),) * n))
        assert r.compare_rational(F(0)) == 0


def test_spectral_radius_stochastic_vs_substochastic():
    closed = (6, (((0, 3), (1, 3)), ((0, 2), (1, 4))))  # [[1/2, 1/2], [1/3, 2/3]]
    r = spectral_radius(closed)
    assert r.compare_rational(F(1)) == 0
    leaky = (12, (((0, 6), (1, 3)), ((0, 4), (1, 4))))  # [[1/2, 1/4], [1/3, 1/3]]
    r2 = spectral_radius(leaky)
    assert r2.compare_rational(F(1)) == -1
    dense = ((F(1, 2), F(1, 4)), (F(1, 3), F(1, 3)))
    assert abs(r2.to_float() - power_iteration_radius(dense)) < 1e-6


def test_compare_consistent_with_floats():
    rng = random.Random(41)
    radii = []
    for _ in range(12):
        wa = random_wa(rng, nstates=3, alphabet=("a",), density=0.7)
        radii.append(spectral_radius(wa.sparse_rows["a"]))
    for i in range(len(radii)):
        for j in range(len(radii)):
            c = compare(radii[i], radii[j])
            fi, fj = radii[i].to_float(), radii[j].to_float()
            if abs(fi - fj) > 1e-9:
                assert c == (1 if fi > fj else -1)
            assert compare(radii[j], radii[i]) == -c


def test_refined_narrows():
    a = largest_real_root((-2, 0, 1))
    r = a.refined(F(1, 10**30))
    assert r.hi - r.lo <= F(1, 10**30)
    assert compare(a, r) == 0


def _fraction_horner(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_psign_matches_fraction_horner():
    """psign reads the sign of p(x) in integers; a Fraction Horner
    evaluation is the reference, on random points and on exact roots."""
    rng = random.Random(7)
    roots = 0
    for i in range(10_000):
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        p = tuple(rng.randint(-50, 50) for _ in range(rng.randint(0, 7)))
        if i % 3 == 0:
            p = pmul((-x.numerator, x.denominator), p or (1,))
        v = _fraction_horner(p, x)
        roots += v == 0
        assert psign(p, x) == (v > 0) - (v < 0), (p, x)
    assert roots >= 3_000


def test_one_by_one_radius_is_its_entry():
    rng = random.Random(11)
    values = [F(0), F(1), F(7, 2), F(3, 5), F(61, 100)]
    values += [
        F(rng.randrange(10**rng.randint(1, 30)), rng.randrange(1, 10**rng.randint(1, 30)))
        for _ in range(2_000)
    ]
    for a in values:
        got = spectral_radius((a.denominator, (((0, a.numerator),) if a else (),)))
        want = largest_real_root(dense_char_poly(((a,),)))
        assert (got.poly, got.lo, got.hi) == (want.poly, want.lo, want.hi), a


def test_pdivmod_is_positive_scaled_long_division():
    """The integer pseudo-division is long division over Q times |lc(q)|^k
    for some k, so it never flips the sign of a quotient or remainder."""
    rng = random.Random(449)
    for _ in range(600):
        q = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4))) + (
            rng.choice((-3, -2, -1, 1, 2, 3)),
        )
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 8)))
        if rng.random() < 0.3:
            p = pmul(q, p)  # exact division
        quot, rem = _pdivmod(p, q)
        want_q, want_r = poly_divmod(p, q)
        lead = (quot or rem or (1,))[-1]
        scale = F(lead, (want_q or want_r or (1,))[-1])
        assert any(scale == abs(q[-1]) ** k for k in range(len(p) + 1)), (p, q)
        assert quot == tuple(scale * c for c in want_q)
        assert rem == tuple(scale * c for c in want_r)
