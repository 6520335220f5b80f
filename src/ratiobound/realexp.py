"""Sentences over the reals with logarithms and exponentials, plus a sound
three-valued semi-decision procedure.

The sentences assert that a system of linear-plus-logarithmic forms can be
driven below every bound over a shifted positive cone.  Each verdict rests
on one exact certificate.  "holds" is answered with a certified diverging
ray: along it every row's linear part has an interval enclosure strictly
below 0, or vanishes exactly with log exponents summing below 0.  "fails" is
answered with an exact sign argument (a row whose every term is bounded
below, read off the exact signs of its coefficients), an exact log-exponent
program, or one linear program over the enclosures' lower bounds that has
no solution, so that along every direction some row's linear part grows
(Ville's alternative); a variable that appears in no row is left out of
that program.  Both programs are solved exactly by Fourier-Motzkin
elimination in integers, pruned with Chernikov's rule.  Every borderline
case is answered "unknown" and can be exported as SMT-LIB 2 text for
external delta-complete solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .algebraic import AlgebraicNumber, compare
from .intervals import FInterval, ivl_sum, ln_algebraic

HOLDS, FAILS, UNKNOWN = "holds", "fails", "unknown"

# the enclosures' precisions in bits, tried in turn before conceding "unknown"
PRECISIONS = (128, 256, 512, 1024, 2048)


# ---------------------------------------------------------------------------
# semantic payload: sum_i  scale_ji * log(num_ji/den_ji) * x_i + p_ji*log(x_i)


@dataclass(frozen=True)
class LogCoeff:
    """scale * log(num/den) for positive algebraic num, den.  Its exact sign
    is computed once, and its enclosure once per precision."""

    num: AlgebraicNumber
    den: AlgebraicNumber
    scale: Fraction
    _enclosures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sign(self) -> int:
        """The exact sign of scale * log(num/den), with no interval."""
        return self._sign

    @cached_property
    def _sign(self) -> int:
        if self.scale == 0:
            return 0
        return (1 if self.scale > 0 else -1) * compare(self.num, self.den)

    def exactly_zero(self) -> bool:
        return self.sign() == 0

    def enclosure(self, bits: int) -> FInterval:
        enc = self._enclosures.get(bits)
        if enc is None:
            if self.exactly_zero():
                enc = FInterval.point(0)
            else:
                diff = ln_algebraic(self.num, bits) - ln_algebraic(self.den, bits)
                enc = diff.scale(self.scale)
            self._enclosures[bits] = enc
        return enc


@dataclass(frozen=True)
class DivergenceRow:
    coeffs: tuple  # of LogCoeff, one per variable
    logs: tuple  # of int, one per variable


@dataclass(frozen=True)
class DivergenceSystem:
    rows: tuple  # of DivergenceRow
    lower: Fraction  # every variable ranges over [lower, infinity)
    nvars: int


@dataclass(frozen=True)
class RealExpFormula:
    """A closed divergence sentence with its machine-checkable payload."""

    system: DivergenceSystem
    provenance: dict

    def to_smt2(self) -> str:
        return render_smt2(self)


# ---------------------------------------------------------------------------
# SMT-LIB export


def _smt_frac(q: Fraction) -> str:
    if q < 0:
        return f"(- {_smt_frac(-q)})"
    if q.denominator == 1:
        return f"{q.numerator}.0"
    return f"(/ {q.numerator}.0 {q.denominator}.0)"


def _smt_poly(poly, var: str) -> str:
    terms = []
    for i, c in enumerate(poly):
        if c == 0:
            continue
        parts = [f"{abs(c)}.0"] + [var] * i
        mono = parts[0] if len(parts) == 1 else "(* " + " ".join(parts) + ")"
        terms.append(mono if c > 0 else f"(- {mono})")
    if not terms:
        return "0.0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def render_smt2(formula: RealExpFormula) -> str:
    sysd = formula.system
    lines = [
        "(set-logic ALL)",
        "; divergence sentence over the reals with log/exp",
    ]
    for key, val in sorted(formula.provenance.items()):
        lines.append(f"; {key}: {val}")
    lines += [
        "(declare-fun ln (Real) Real)",
        "(declare-fun expf (Real) Real)",
        "; exp/log axioms for delta-complete back ends",
        "(assert (forall ((u Real)) (= (ln (expf u)) u)))",
        "(assert (forall ((u Real) (v Real)) (=> (and (> u 0) (> v 0))"
        " (= (ln (* u v)) (+ (ln u) (ln v))))))",
        "(assert (forall ((u Real) (v Real)) (=> (and (> u 0) (> v 0) (< u v))"
        " (< (ln u) (ln v)))))",
        "(assert (= (ln 1.0) 0.0))",
    ]
    decls = {}

    def declare(prefix: str, a: AlgebraicNumber) -> str:
        key = (prefix, a.poly, a.lo, a.hi)
        if key in decls:
            return decls[key]
        name = f"{prefix}_{len(decls)}"
        decls[key] = name
        lines.append(f"(declare-const {name} Real)")
        lines.append(f"; defining polynomial with isolating interval")
        lines.append(f"(assert (= {_smt_poly(a.poly, name)} 0.0))")
        lines.append(f"(assert (<= {_smt_frac(a.lo)} {name}))")
        lines.append(f"(assert (<= {name} {_smt_frac(a.hi)}))")
        return name

    conj = []
    xs = [f"x{i+1}" for i in range(sysd.nvars)]
    for j, row in enumerate(sysd.rows):
        terms = []
        for i in range(sysd.nvars):
            co = row.coeffs[i]
            if co.scale != 0:
                num = declare("sig", co.num)
                den = declare("rho", co.den)
                terms.append(
                    f"(* {_smt_frac(co.scale)} (- (ln {num}) (ln {den})) {xs[i]})"
                )
            if row.logs[i] != 0:
                terms.append(f"(* {_smt_frac(Fraction(row.logs[i]))} (ln {xs[i]}))")
        body = terms[0] if len(terms) == 1 else ("(+ " + " ".join(terms) + ")") if terms else "0.0"
        conj.append(f"(< {body} C)")
    bounds = " ".join(f"(>= {x} {_smt_frac(sysd.lower)})" for x in xs)
    quant_vars = " ".join(f"({x} Real)" for x in xs)
    inner = "(and " + bounds + " " + " ".join(conj) + ")"
    if xs:
        sentence = (
            f"(assert (forall ((C Real)) (=> (< C 0.0) (exists ({quant_vars}) {inner}))))"
        )
    else:
        sentence = "(assert (forall ((C Real)) (=> (< C 0.0) false)))"
    lines.append(sentence)
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact rational linear feasibility (Fourier-Motzkin, tiny dimensions)


def fm_solve(cons, nvars: int) -> Optional[list]:
    """A rational d with c . d >= rhs for every (c, rhs) in `cons`, or None.

    Fourier-Motzkin, last variable first, then back-substitution.  Each
    input constraint is scaled to integers by the lcm of its denominators,
    each derived one combines two in integers and is divided by the gcd of
    its entries (fraction-free elimination), and back-substitution runs in
    Fractions.  Each derived constraint carries the set of input
    constraints it combines; after j eliminations one built from more than
    j + 1 of them is implied by the others (Chernikov's rule) and is
    dropped.  Positive scaling keeps every constraint's feasible set and
    tags, and every stage stays equivalent to the unpruned one, so
    back-substitution picks the same d as elimination over Fractions.
    """
    current = []
    for i, (c, rhs) in enumerate(cons):
        entries = [Fraction(x) for x in (*c, rhs)]
        scale = lcm(*(x.denominator for x in entries))
        ints = [x.numerator * (scale // x.denominator) for x in entries]
        current.append((ints[:-1], ints[-1], 1 << i))
    stages = []
    for j, k in enumerate(range(nvars - 1, -1, -1), start=1):
        stages.append(current)
        lowers, uppers, new = [], [], []
        for con in current:
            if con[0][k] > 0:
                lowers.append(con)
            elif con[0][k] < 0:
                uppers.append(con)
            else:
                new.append(con)
        for (cl, rl, hl) in lowers:
            for (cu, ru, hu) in uppers:
                used = hl | hu
                if used.bit_count() > j + 1:
                    continue
                # d_k >= (rl - rest_l)/cl_k  and  d_k <= (rest_u - ru)/(-cu_k)
                a, b = -cu[k], cl[k]
                coef = [cl[i] * a + cu[i] * b for i in range(nvars)]
                coef[k] = 0
                rhs = rl * a + ru * b
                g = gcd(*coef, rhs)
                if g > 1:
                    coef = [x // g for x in coef]
                    rhs //= g
                new.append((coef, rhs, used))
        current = new
    # every coefficient is eliminated: what is left reads 0 >= rhs
    if any(rhs > 0 for (_, rhs, _) in current):
        return None
    # back-substitute: var k is pinned from the stage where vars 0..k remain
    d: list = [None] * nvars
    for k, stage in zip(range(nvars), reversed(stages)):
        lo, hi = None, None
        for (c, rhs, _) in stage:
            if c[k] == 0:
                continue
            bound = (rhs - sum(c[i] * d[i] for i in range(k))) / Fraction(c[k])
            if c[k] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            d[k] = Fraction(0)
        elif lo is None:
            d[k] = min(Fraction(0), hi)
        elif hi is None:
            d[k] = lo
        else:
            if lo > hi:
                return None
            d[k] = (lo + hi) / 2
    return d


def _nonnegative(nvars: int) -> list:
    return [
        ([Fraction(int(i == k)) for i in range(nvars)], Fraction(0)) for k in range(nvars)
    ]


def negative_direction(rows, nvars: int) -> Optional[list]:
    """A rational d >= 0 with row . d <= -1 for every row, or None.

    Complete for the strict feasibility question because the cone is
    scale-invariant.
    """
    cons = _nonnegative(nvars) + [([Fraction(-c) for c in row], Fraction(1)) for row in rows]
    return fm_solve(cons, nvars)


def every_direction_grows(enc, nvars: int) -> bool:
    """True when no d >= 0 with sum(d) >= 1 has `lo . d <= 0` on every row
    of enclosures: then along every direction some row's linear part grows
    (Ville's alternative), exactly, since each true coefficient is >= lo."""
    cons = _nonnegative(nvars) + [([Fraction(1)] * nvars, Fraction(1))]
    cons += [([-e.lo for e in row], Fraction(0)) for row in enc]
    return fm_solve(cons, nvars) is None


# ---------------------------------------------------------------------------
# semi-decision


@dataclass(frozen=True)
class SemiDecision:
    verdict: str  # holds | fails | unknown
    ray: Optional[tuple] = None
    detail: Optional[str] = None


def semi_decide(formula: RealExpFormula) -> SemiDecision:
    sysd = formula.system
    n = sysd.nvars
    if n == 0:
        return SemiDecision(FAILS, detail="no unbounded coordinates")
    if not sysd.rows:
        return SemiDecision(HOLDS, detail="no constraints", ray=tuple([Fraction(1)] * n))
    signs = [[co.sign() for co in row.coeffs] for row in sysd.rows]
    # on [lower, inf) with lower > 0, c*x + p*log(x) is bounded below when
    # c > 0 (the linear term dominates) or when c = 0 and p >= 0; a row made
    # of such terms only can never diverge
    if sysd.lower > 0:
        for j, row in enumerate(sysd.rows):
            if all(s > 0 or (s == 0 and p >= 0) for s, p in zip(signs[j], row.logs)):
                return SemiDecision(
                    FAILS, detail=f"row {j} is bounded below by exact signs"
                )
    zero = [[s == 0 for s in row] for row in signs]
    if all(all(z) for z in zero):
        return _pure_log_case(sysd)
    # a variable that is exactly zero with log exponent 0 in every row
    # appears nowhere, and along it no row grows: the growth program decides
    # the system without it.  The ray search keeps it, and its linear
    # programs put 0 there.
    live = [
        i
        for i in range(n)
        if any(not zero[j][i] or row.logs[i] for j, row in enumerate(sysd.rows))
    ]

    for bits in PRECISIONS:
        enc = [
            [row.coeffs[i].enclosure(bits) for i in range(n)] for row in sysd.rows
        ]
        # both certificates are exact, so at most one exists; the single
        # linear program goes first
        if every_direction_grows([[row[i] for i in live] for row in enc], len(live)):
            return SemiDecision(FAILS, detail=f"every direction has a growing row at {bits} bits")
        ray = _find_certified_ray(sysd, enc, zero)
        if ray is not None:
            return SemiDecision(HOLDS, ray=tuple(ray))
    return SemiDecision(UNKNOWN, detail=f"precision exhausted at {PRECISIONS[-1]} bits")


def _pure_log_case(sysd: DivergenceSystem) -> SemiDecision:
    """All linear coefficients vanish exactly: the log exponents decide
    outright.  The ray d is a direction in log coordinates: every row's
    exponents sum to <= -1 along it, so every row sinks at least like -t
    along x = c * exp(t * d), for any constant c >= lower."""
    d = negative_direction([[Fraction(p) for p in row.logs] for row in sysd.rows], sysd.nvars)
    if d is None:
        return SemiDecision(FAILS, detail="log-exponent cone is empty (exact)")
    return SemiDecision(HOLDS, ray=tuple(d))


def _find_certified_ray(sysd: DivergenceSystem, enc, zero):
    """Search supports, largest first, for a direction that certifies every
    row strictly.  Each support's candidate is the exact linear program on
    the enclosures' midpoints restricted to it, made only when the ones
    before it failed to certify; it is >= 0 and nonzero, and so are its
    simplifications.  A solution with a zero inside its support certifies
    only a smaller one, so after every solution come those solutions lifted
    to be positive on their whole support: rows that vanish on it may sink
    only through the log exponents of all of it.

    Certification per row along direction d with support S: either the
    interval upper bound of sum_i a_ji d_i is < 0, or the row's linear part
    vanishes exactly on S and the log exponents sum below 0 on S.
    """
    n = sysd.nvars
    rows = sysd.rows

    def certify(d) -> bool:
        support = [i for i in range(n) if d[i] > 0]
        for j, row in enumerate(rows):
            if all(zero[j][i] for i in support):
                if sum(row.logs[i] for i in support) >= 0:
                    return False
                continue
            dot = ivl_sum(enc[j][i].scale(d[i]) for i in support)
            if not dot.strictly_negative():
                return False
        return True

    def candidates():
        lifted = []
        for support in _supports(n):
            sub_rows = []
            for j, row in enumerate(rows):
                if all(zero[j][i] for i in support):
                    if sum(row.logs[i] for i in support) >= 0:
                        break  # the row cannot sink on this support
                    continue
                sub_rows.append([(enc[j][i].lo + enc[j][i].hi) / 2 for i in support])
            else:
                d_sub = [Fraction(1)] * len(support)
                if sub_rows:
                    d_sub = negative_direction(sub_rows, len(support))
                if d_sub is not None:
                    yield _spread(n, support, d_sub)
                    if 0 in d_sub:
                        # each midpoint row is <= -1 at d_sub and stays below 0
                        eps = 1 / (1 + len(support) * max(abs(x) for r in sub_rows for x in r))
                        lifted.append(_spread(n, support, [x + eps for x in d_sub]))
        yield from lifted

    for d in candidates():
        for simplified in _simplify_ray(d):
            if certify(simplified):
                return simplified
    return None


def _simplify_ray(d):
    """Small-denominator approximations of a direction, coarsest first.

    The certified cone is open, so some nearby simple direction lies inside;
    simple directions keep downstream witness words short."""
    top = max(d)
    unit = tuple(x / top for x in d)
    approx = [tuple(x.limit_denominator(cap) for x in unit) for cap in (4, 16, 64, 256, 1024)]
    return [list(a) for a in dict.fromkeys(approx + [unit])]


def _supports(n: int):
    masks = sorted(range(1, 2**n), key=lambda mask: -mask.bit_count())
    return [[i for i in range(n) if mask >> i & 1] for mask in masks]


def _spread(n: int, support, d_sub) -> list:
    """The direction that is `d_sub` on `support` and 0 elsewhere."""
    at = dict(zip(support, d_sub))
    return [at.get(i, Fraction(0)) for i in range(n)]
