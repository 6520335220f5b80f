"""Exact real algebraic numbers: square-free integer polynomials with
isolating rational intervals, Sturm-sequence root isolation, and the
characteristic polynomial of a rational matrix.

Polynomials are tuples of ints, low degree first, trimmed, with positive
leading coefficient and content 1 where normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .automata import InputError, Matrix


# ---------------------------------------------------------------------------
# integer polynomial arithmetic


def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def pdeg(p):
    return len(p) - 1


def pderiv(p):
    return ptrim(i * c for i, c in enumerate(p) if i >= 1)


def psign(p, x: Fraction) -> int:
    """Sign of p(x): the sign of d^deg * p(n/d) for x = n/d, d > 0, by
    homogeneous Horner on ints, with no Fraction arithmetic."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def pcontent(p):
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g or 1


def pprimitive(p):
    p = ptrim(p)
    if not p:
        return p
    g = pcontent(p)
    sign = 1 if p[-1] > 0 else -1
    return tuple(sign * c // g for c in p)


def _pdivmod(p, q):
    """Integer pseudo-division: (quot, rem) with |lc(q)|^k * p = quot * q +
    rem and deg rem < deg q, for the k elimination steps taken.  The scale
    is positive, so quotient and remainder keep their signs over Q."""
    rem = list(ptrim(p))
    dq = pdeg(q)
    lq, sq = abs(q[-1]), (1 if q[-1] > 0 else -1)
    quot = [0] * max(len(rem) - dq, 0)
    while len(rem) > dq:
        coef = rem[-1] * sq
        shift = len(rem) - 1 - dq
        rem = [c * lq for c in rem]
        quot = [c * lq for c in quot]
        quot[shift] += coef
        for i, c in enumerate(q):
            rem[i + shift] -= coef * c
        while rem and rem[-1] == 0:
            rem.pop()
    return tuple(quot), tuple(rem)


def pgcd(p, q):
    """Integer polynomial gcd via the primitive pseudo-remainder sequence."""
    p, q = pprimitive(p), pprimitive(q)
    while q:
        r = pprimitive(_pdivmod(p, q)[1])
        p, q = q, r
    return p


def square_free(p):
    """Square-free part p / gcd(p, p'), primitive with positive lead."""
    p = pprimitive(p)
    if pdeg(p) <= 1:
        return p
    g = pgcd(p, pderiv(p))
    if pdeg(g) == 0:
        return p
    return pprimitive(_pdivmod(p, g)[0])


def sturm_sequence(p):
    """Sturm chain of a square-free integer polynomial.

    Remainders are pseudo-remainders rescaled by positive constants only,
    which preserves the sign-variation semantics.
    """
    chain = [pprimitive(p)]
    d = pprimitive(pderiv(p))
    if d:
        chain.append(d)
    while len(chain) >= 2 and chain[-1]:
        r = _pdivmod(chain[-2], chain[-1])[1]
        if not r:
            break
        g = pcontent(r)
        chain.append(tuple(-c // g for c in r))
    return [c for c in chain if c]


def sign_variations(chain, x: Fraction) -> int:
    signs = [v for v in (psign(p, x) for p in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def root_bound(p) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    lead = abs(p[-1])
    return Fraction(1) + max(Fraction(abs(c), lead) for c in p[:-1]) if len(p) > 1 else Fraction(1)


# ---------------------------------------------------------------------------
# algebraic numbers


@dataclass(frozen=True)
class AlgebraicNumber:
    """The unique real root of `poly` inside [lo, hi].

    `poly` is square-free, primitive, positive-leading.  Degree-1 numbers
    collapse to the exact rational with lo == hi.
    """

    poly: tuple
    lo: Fraction
    hi: Fraction

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        return cls((-q.numerator, q.denominator), q, q)

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def _chain(self):
        return sturm_sequence(self.poly)

    def refined(self, width: Fraction) -> "AlgebraicNumber":
        """Shrink the isolating interval below `width` by Sturm bisection."""
        if self.is_rational:
            return self
        lo, hi = self.lo, self.hi
        if psign(self.poly, lo) == 0:
            return AlgebraicNumber(self.poly, lo, lo)
        chain = self._chain()
        while hi - lo > width:
            mid = (lo + hi) / 2
            if psign(self.poly, mid) == 0:
                return AlgebraicNumber(self.poly, mid, mid)
            if count_roots(chain, lo, mid) >= 1:
                hi = mid
            else:
                lo = mid
        return AlgebraicNumber(self.poly, lo, hi)

    def compare_rational(self, q: Fraction) -> int:
        """-1, 0, or 1 for self <, =, > q; exact."""
        if self.is_rational:
            return (self.lo > q) - (self.lo < q)
        if q >= self.hi:
            # root <= hi; equality only if root == q == hi
            return 0 if (q == self.hi and psign(self.poly, q) == 0) else -1
        if q <= self.lo:
            return 0 if (q == self.lo and psign(self.poly, q) == 0) else 1
        if psign(self.poly, q) == 0:
            return 0
        chain = self._chain()
        return -1 if count_roots(chain, self.lo, q) >= 1 else 1

    def sign(self) -> int:
        return self.compare_rational(Fraction(0))

    def to_float(self) -> float:
        a = self.refined(Fraction(1, 10**17))
        return float((a.lo + a.hi) / 2)

    def scaled(self, c: Fraction) -> "AlgebraicNumber":
        """The algebraic number c * self, for rational c > 0."""
        c = Fraction(c)
        if c <= 0:
            raise InputError("scaling factor must be positive")
        if self.is_rational:
            return AlgebraicNumber.from_rational(self.lo * c)
        # root of p(x / c): substitute and clear denominators
        n = pdeg(self.poly)
        num, den = c.numerator, c.denominator
        coeffs = [
            self.poly[i] * den**i * num ** (n - i) for i in range(n + 1)
        ]
        poly = pprimitive(square_free(tuple(coeffs)))
        return AlgebraicNumber(poly, self.lo * c, self.hi * c)

    def __repr__(self):
        if self.is_rational:
            return f"AlgebraicNumber({self.lo})"
        return f"AlgebraicNumber({list(self.poly)}, [{self.lo}, {self.hi}])"


def compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """Exact trichotomy: -1, 0, 1 for a <, =, > b.

    Equality is decided through the gcd of the defining polynomials on the
    interval overlap, never numerically; inequality by interval refinement,
    which terminates because the numbers then differ.
    """
    if a.is_rational:
        return -b.compare_rational(a.lo)
    if b.is_rational:
        return a.compare_rational(b.lo)
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo <= hi:
        g = pgcd(a.poly, b.poly)
        if pdeg(g) >= 1:
            # a shared root of both polynomials inside both isolating
            # intervals must equal a and b simultaneously
            if psign(g, lo) == 0 or count_roots(sturm_sequence(g), lo, hi) >= 1:
                return 0
    aa, bb = a, b
    while True:
        if aa.hi < bb.lo:
            return -1
        if bb.hi < aa.lo:
            return 1
        if aa.is_rational:
            return -bb.compare_rational(aa.lo)
        if bb.is_rational:
            return aa.compare_rational(bb.lo)
        width = min(aa.hi - aa.lo, bb.hi - bb.lo) / 4
        aa = aa.refined(width)
        bb = bb.refined(width)


# ---------------------------------------------------------------------------
# characteristic polynomial of a rational matrix


def char_poly(m: Matrix) -> tuple:
    """Monic-up-to-sign integer polynomial whose largest real root is the
    spectral radius of the non-negative rational matrix `m`.

    Denominators are cleared first (roots scale by the lcm and are divided
    back out by substitution), then Faddeev-LeVerrier runs fraction-free.
    """
    n = len(m)
    if n == 0:
        raise InputError("empty matrix")
    den = 1
    for row in m:
        for w in row:
            den = lcm(den, Fraction(w).denominator)
    b = [[int(Fraction(w) * den) for w in row] for row in m]

    # Faddeev-LeVerrier on the integer matrix: coefficients of det(xI - B);
    # prev holds B * M_k, all intermediate divisions are exact over Z
    cs = []
    prev = [row[:] for row in b]
    cs.append(-sum(prev[i][i] for i in range(n)))
    for k in range(2, n + 1):
        tmp = [[prev[i][j] + (cs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        prev = [
            [sum(b[i][x] * tmp[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(prev[i][i] for i in range(n))
        assert tr % k == 0
        cs.append(-tr // k)
    # det(xI - B) = x^n + cs[0] x^(n-1) + ... + cs[n-1]
    poly_b = tuple(list(reversed(cs)) + [1])
    # radius of m = radius of b / den: root of p_b(den * x)
    deg = pdeg(poly_b)
    poly_m = tuple(poly_b[i] * den**i for i in range(deg + 1))
    return pprimitive(poly_m)


def largest_real_root(p) -> AlgebraicNumber:
    """Largest real root of integer polynomial p, isolated by Sturm bisection.

    For characteristic polynomials of non-negative matrices this is the
    spectral radius (a real non-negative eigenvalue).
    """
    p = square_free(p)
    if pdeg(p) < 1:
        raise InputError("constant polynomial has no roots")
    if pdeg(p) == 1:
        return AlgebraicNumber.from_rational(Fraction(-p[0], p[1]))
    chain = sturm_sequence(p)
    bound = root_bound(p)
    lo, hi = -bound - 1, bound
    total = count_roots(chain, lo, hi)
    if total == 0:
        raise InputError("polynomial has no real roots")
    # push lo up until exactly one root remains above it
    while count_roots(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    # tighten, collapsing to an exact point when bisection lands on the root
    for _ in range(4):
        mid = (lo + hi) / 2
        if psign(p, mid) == 0:
            return AlgebraicNumber(p, mid, mid)
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return AlgebraicNumber(p, lo, hi)


def spectral_radius_of_matrix(m: Matrix) -> AlgebraicNumber:
    """Spectral radius of a square non-negative rational matrix, exactly."""
    n = len(m)
    for row in m:
        if len(row) != n:
            raise InputError("matrix is not square")
        for w in row:
            if w < 0:
                raise InputError("matrix has a negative entry")
    if n == 1:
        return AlgebraicNumber.from_rational(m[0][0])
    if all(w == 0 for row in m for w in row):
        return AlgebraicNumber.from_rational(Fraction(0))
    return largest_real_root(char_poly(m))
