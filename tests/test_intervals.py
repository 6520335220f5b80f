"""Certified logarithm enclosures against a higher-precision reference."""

import decimal
import random
from fractions import Fraction as F

from ratiobound.intervals import ln_fraction_bounds


def _ln_reference(q: F, prec: int):
    """ln(q) to `prec` digits and a bound on its absolute error."""
    ctx = decimal.Context(prec=prec)
    ref = ctx.ln(ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))
    # half an ulp of the result plus the effect of rounding the argument
    slack = F(10) ** (max(ref.adjusted(), 0) - prec + 3)
    return F(ref), slack


def _seeded_rationals(seed: int, count: int):
    rng = random.Random(seed)
    out = [F(1), F(2), F(1, 3), F(10**9 + 7, 10**9), F(3, 10**12)]
    while len(out) < count:
        scale = 10 ** rng.randint(0, 12)
        out.append(F(rng.randint(1, scale), rng.randint(1, 10**6)))
    return out


def test_ln_bounds_enclose_and_tighten():
    for q in _seeded_rationals(2027, 120):
        widths = []
        prev = None
        for bits in (128, 512):
            lo, hi = ln_fraction_bounds(q, bits)
            # about twice the digits the bounds are computed with
            ref, slack = _ln_reference(q, int(bits * 0.30103) * 2 + 20)
            assert lo <= ref - slack and ref + slack <= hi, (q, bits, lo, hi)
            assert hi - lo <= F(1, 2**bits) * max(1, abs(ref)), (q, bits)
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1], (q, "bounds do not nest")
            prev = (lo, hi)
            widths.append(hi - lo)
        assert widths[1] < widths[0], q
