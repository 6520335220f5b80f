"""Certified interval arithmetic over exact rational endpoints.

Rational operations stay exact.  Logarithms go through the decimal module:
Decimal.ln() is correctly rounded, so widening the result by one unit in the
last place on each side gives a true enclosure.  The widening runs in a
local context at the working precision, rounding toward minus infinity for
the lower bound and toward plus infinity for the upper one (the global
28-digit context would round a wide result back to a point), and
directed-rounding division converts rational endpoints safely.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .algebraic import AlgebraicNumber


@dataclass(frozen=True)
class FInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, q) -> "FInterval":
        q = Fraction(q)
        return cls(q, q)

    def __add__(self, other: "FInterval") -> "FInterval":
        return FInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "FInterval":
        return FInterval(-self.hi, -self.lo)

    def __sub__(self, other: "FInterval") -> "FInterval":
        return self + (-other)

    def __mul__(self, other: "FInterval") -> "FInterval":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return FInterval(min(products), max(products))

    def scale(self, c) -> "FInterval":
        c = Fraction(c)
        if c >= 0:
            return FInterval(self.lo * c, self.hi * c)
        return FInterval(self.hi * c, self.lo * c)

    def strictly_negative(self) -> bool:
        return self.hi < 0

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def ivl_sum(items) -> FInterval:
    acc = FInterval.point(0)
    for it in items:
        acc = acc + it
    return acc


def _fraction_to_decimal(q: Fraction, digits: int, round_down: bool) -> Decimal:
    ctx = decimal.Context(
        prec=digits,
        rounding=decimal.ROUND_FLOOR if round_down else decimal.ROUND_CEILING,
    )
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def _widen_ulp(d: Decimal, digits: int, down: bool) -> Decimal:
    ulp = Decimal(1).scaleb(d.adjusted() - digits + 1)
    rounding = decimal.ROUND_FLOOR if down else decimal.ROUND_CEILING
    ctx = decimal.Context(prec=digits, rounding=rounding)
    return ctx.subtract(d, ulp) if down else ctx.add(d, ulp)


@lru_cache(maxsize=65536)
def ln_fraction_bounds(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Certified rational bounds on ln(q) for rational q > 0."""
    if q <= 0:
        raise ValueError("ln requires a positive argument")
    digits = max(20, int(bits * 0.30103) + 5)
    ctx = decimal.Context(prec=digits)
    lo_arg = _fraction_to_decimal(q, digits, round_down=True)
    hi_arg = _fraction_to_decimal(q, digits, round_down=False)
    ln_lo = ctx.ln(lo_arg)
    ln_hi = ctx.ln(hi_arg)
    lo = _widen_ulp(ln_lo, digits, down=True)
    hi = _widen_ulp(ln_hi, digits, down=False)
    return Fraction(lo), Fraction(hi)


def ln_interval(x: FInterval, bits: int) -> FInterval:
    """Certified enclosure of ln over a positive rational interval."""
    if x.lo <= 0:
        raise ValueError("ln over an interval touching zero")
    lo, _ = ln_fraction_bounds(x.lo, bits)
    _, hi = ln_fraction_bounds(x.hi, bits)
    return FInterval(lo, hi)


@lru_cache(maxsize=8192)
def ln_algebraic(a: AlgebraicNumber, bits: int) -> FInterval:
    """Certified enclosure of ln(a) for a positive algebraic number.

    The isolating interval is refined until its relative width is below
    2^-bits, then the rational endpoints are ln'd with directed rounding.
    """
    if a.sign() <= 0:
        raise ValueError("ln of a non-positive algebraic number")
    r = a
    # establish a positive lower endpoint before refining relatively
    while r.lo <= 0:
        r = r.refined((r.hi - r.lo) / 4)
    target = r.lo / Fraction(2**bits)
    r = r.refined(target)
    return ln_interval(FInterval(r.lo, r.hi), bits)
