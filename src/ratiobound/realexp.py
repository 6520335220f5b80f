"""Sentences over the reals with logarithms and exponentials, plus a sound
three-valued semi-decision procedure.

The sentences assert that a system of linear-plus-logarithmic forms can be
driven below every bound over a shifted positive cone.  "holds" is answered
only with a certified diverging ray and interval-verified witness points;
"fails" with an exact sign argument (a row whose every term is bounded below,
read off the exact signs of its coefficients), an exact log-exponent program,
or a certified direction covering; every borderline case is answered
"unknown" and can be exported as SMT-LIB 2 text for external delta-complete
solvers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebraic import AlgebraicNumber, compare
from .automata import InputError
from .intervals import FInterval, ivl_sum, ln_algebraic, ln_fraction_bounds

HOLDS, FAILS, UNKNOWN = "holds", "fails", "unknown"

DEFAULT_START_BITS = 128
MIN_BITS = 16
MAX_BITS = 2048
PRECISION_ENV = "BIGO_WA_PRECISION_BITS"


def start_bits_default() -> int:
    raw = os.environ.get(PRECISION_ENV)
    if raw:
        try:
            return min(MAX_BITS, max(MIN_BITS, int(raw)))
        except ValueError:
            pass
    return DEFAULT_START_BITS


def checked_start_bits(start_bits: Optional[int], max_bits: int = MAX_BITS) -> int:
    """`start_bits`, or the default when None; InputError when it lies
    outside MIN_BITS..max_bits."""
    bits = start_bits if start_bits is not None else start_bits_default()
    if not MIN_BITS <= bits <= max_bits:
        raise InputError(f"precision must be {MIN_BITS} to {max_bits} bits, got {bits}")
    return bits


# ---------------------------------------------------------------------------
# semantic payload: sum_i  scale_ji * log(num_ji/den_ji) * x_i + p_ji*log(x_i)


@dataclass(frozen=True)
class LogCoeff:
    """scale * log(num/den) for positive algebraic num, den."""

    num: AlgebraicNumber
    den: AlgebraicNumber
    scale: Fraction

    def sign(self) -> int:
        """The exact sign of scale * log(num/den), with no interval."""
        if self.scale == 0:
            return 0
        return (1 if self.scale > 0 else -1) * compare(self.num, self.den)

    def exactly_zero(self) -> bool:
        return self.sign() == 0

    def enclosure(self, bits: int) -> FInterval:
        if self.exactly_zero():
            return FInterval.point(0)
        return (ln_algebraic(self.num, bits) - ln_algebraic(self.den, bits)).scale(
            self.scale
        )


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


def negative_direction(rows, nvars: int) -> Optional[list]:
    """A rational d >= 0 with row . d <= -1 for every row, or None.

    Exact Fourier-Motzkin over the scaled system; complete for the strict
    feasibility question because the cone is scale-invariant.
    """
    # constraints: sum c_i d_i >= rhs
    cons = []
    for i in range(nvars):
        e = [Fraction(0)] * nvars
        e[i] = Fraction(1)
        cons.append((e, Fraction(0)))
    for row in rows:
        cons.append(([Fraction(-c) for c in row], Fraction(1)))
    stages = []
    current = cons
    for k in range(nvars - 1, -1, -1):
        stages.append(current)
        lowers, uppers, rest = [], [], []
        for (c, rhs) in current:
            if c[k] > 0:
                lowers.append((c, rhs))
            elif c[k] < 0:
                uppers.append((c, rhs))
            else:
                rest.append((c, rhs))
        new = list(rest)
        for (cl, rl) in lowers:
            for (cu, ru) in uppers:
                # d_k >= (rl - rest_l)/cl_k  and  d_k <= (rest_u - ru)/(-cu_k)
                coef = []
                for i in range(nvars):
                    coef.append(cl[i] * (-cu[k]) + cu[i] * cl[k])
                rhs = rl * (-cu[k]) + ru * cl[k]
                coef[k] = Fraction(0)
                new.append((coef, rhs))
        current = new
    for (c, rhs) in current:
        if all(x == 0 for x in c) and rhs > 0:
            return None
    # back-substitute: var k is pinned from the stage where vars 0..k remain
    d: list = [None] * nvars
    for k, stage in zip(range(nvars), reversed(stages)):
        lo, hi = None, None
        for (c, rhs) in stage:
            if c[k] == 0:
                continue
            rest = rhs - sum(c[i] * d[i] for i in range(k))
            bound = rest / c[k]
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


# ---------------------------------------------------------------------------
# semi-decision


@dataclass(frozen=True)
class SemiDecision:
    verdict: str  # holds | fails | unknown
    ray: Optional[tuple] = None
    witnesses: tuple = ()  # ((x-vector, value upper bound str), ...)
    detail: Optional[str] = None


def semi_decide(
    formula: RealExpFormula,
    start_bits: Optional[int] = None,
    max_bits: int = MAX_BITS,
) -> SemiDecision:
    bits = checked_start_bits(start_bits, max_bits)
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
        return _pure_log_case(formula, bits)

    while bits <= max_bits:
        enc = [
            [row.coeffs[i].enclosure(bits) for i in range(n)] for row in sysd.rows
        ]
        # both certificates are sound, so at most one succeeds; the cheap
        # covering goes first
        if _covering_fails(sysd, enc, bits):
            return SemiDecision(FAILS, detail=f"direction covering at {bits} bits")
        found = _find_certified_ray(sysd, enc, zero, bits)
        if found is not None:
            ray, support = found
            wit = _grid_witnesses(sysd, enc, ray, bits)
            if wit is not None:
                return SemiDecision(HOLDS, ray=tuple(ray), witnesses=tuple(wit))
        bits *= 2
    return SemiDecision(UNKNOWN, detail=f"precision exhausted at {max_bits} bits")


def _pure_log_case(formula: RealExpFormula, bits: int) -> SemiDecision:
    """All linear coefficients vanish exactly: an integer linear program on
    the log exponents decides outright."""
    sysd = formula.system
    n = sysd.nvars
    rows = [[Fraction(p) for p in row.logs] for row in sysd.rows]
    d = negative_direction(rows, n)
    if d is None:
        return SemiDecision(FAILS, detail="log-exponent cone is empty (exact)")
    scale = lcm_den(d)
    dint = [int(x * scale) for x in d]
    base = int(sysd.lower) + 2
    witnesses = []
    t = 1
    thresholds = [Fraction(-10), Fraction(-100), Fraction(-1000)]
    while thresholds and t < 10**6:
        x = [max(base, base ** max(1, t * di)) for di in dint]
        vals = []
        for j, row in enumerate(sysd.rows):
            terms = [
                ln_fraction_bounds(Fraction(x[i]), bits) for i in range(n)
            ]
            iv = ivl_sum(
                FInterval(lo, hi).scale(row.logs[i])
                for i, (lo, hi) in enumerate(terms)
            )
            vals.append(iv)
        top = max((v.hi for v in vals))
        if top < thresholds[0]:
            witnesses.append((tuple(x), str(top)))
            thresholds.pop(0)
        t *= 2
    if thresholds:
        return SemiDecision(UNKNOWN, detail="log witnesses did not converge")
    return SemiDecision(HOLDS, ray=tuple(Fraction(v) for v in dint), witnesses=tuple(witnesses))


def lcm_den(vals) -> int:
    from math import lcm as _lcm

    out = 1
    for v in vals:
        out = _lcm(out, Fraction(v).denominator)
    return out


def _find_certified_ray(sysd: DivergenceSystem, enc, zero, bits: int):
    """Search supports and rational directions; certify every row strictly.

    Certification per row along direction d with support S: either the
    interval upper bound of sum_i a_ji d_i is < 0, or the row's linear part
    vanishes exactly on S and the log exponents sum below 0 on S.
    """
    n = sysd.nvars
    rows = sysd.rows

    def certify(d) -> bool:
        support = [i for i in range(n) if d[i] > 0]
        if not support:
            return False
        for j, row in enumerate(rows):
            if all(zero[j][i] for i in support):
                if sum(row.logs[i] for i in support) >= 0:
                    return False
                continue
            dot = ivl_sum(enc[j][i].scale(d[i]) for i in support)
            if not dot.strictly_negative():
                return False
        return True

    candidates = []
    for support in _supports(n):
        # exact LP on midpoints, restricted to the support
        sub_rows = []
        skip = False
        for j, row in enumerate(rows):
            if all(zero[j][i] for i in support):
                if sum(row.logs[i] for i in support) >= 0:
                    skip = True
                    break
                continue
            mid = [
                (enc[j][i].lo + enc[j][i].hi) / 2 if i in support else None
                for i in range(n)
            ]
            sub_rows.append([mid[i] for i in support])
        if skip:
            continue
        if sub_rows:
            d_sub = negative_direction(sub_rows, len(support))
            if d_sub is not None:
                d = [Fraction(0)] * n
                for pos, i in enumerate(support):
                    d[i] = d_sub[pos]
                candidates.append(d)
        else:
            d = [Fraction(0)] * n
            for i in support:
                d[i] = Fraction(1)
            candidates.append(d)
    # coarse grid fallback over the full support
    grid = [Fraction(k, 4) for k in range(5)]
    if n <= 3:
        candidates.extend(_grid_directions(n, grid))
    for d in candidates:
        if any(x < 0 for x in d):
            continue
        for simplified in _simplify_ray(d):
            if certify(simplified):
                return simplified, [i for i in range(n) if simplified[i] > 0]
    return None


def _simplify_ray(d):
    """Small-denominator approximations of a direction, coarsest first.

    The certified cone is open, so some nearby simple direction lies inside;
    simple directions keep downstream witness words short."""
    top = max(d)
    if top <= 0:
        return []
    unit = [x / top for x in d]
    out = []
    seen = set()
    for cap in (4, 16, 64, 256, 1024):
        approx = tuple(x.limit_denominator(cap) for x in unit)
        if approx not in seen:
            seen.add(approx)
            out.append(list(approx))
    exact = tuple(unit)
    if exact not in seen:
        out.append(list(exact))
    return out


def _supports(n: int):
    out = []
    for mask in range(1, 2**n):
        out.append([i for i in range(n) if mask >> i & 1])
    out.sort(key=len, reverse=True)
    return out


def _grid_directions(n: int, grid):
    if n == 1:
        return [[Fraction(1)]]
    out = []
    if n == 2:
        for a in grid:
            out.append([Fraction(1), a])
            out.append([a, Fraction(1)])
    else:
        for a in grid:
            for b in grid:
                out.append([Fraction(1), a, b])
                out.append([a, Fraction(1), b])
                out.append([a, b, Fraction(1)])
    return out


def _grid_witnesses(sysd: DivergenceSystem, enc, ray, bits: int):
    """Integer points along the ray with certified values below -10, -100,
    -1000 and three consecutive strictly decreasing values."""
    n = sysd.nvars
    scale = lcm_den(ray)
    dint = [int(r * scale) for r in ray]
    base = max(1, -(-int(sysd.lower) // 1)) + 1
    thresholds = [Fraction(-10), Fraction(-100), Fraction(-1000)]
    witnesses = []
    decreasing = []
    t = 1
    steps = 0
    prev = None
    # rows that sink only logarithmically need x beyond e^1000, so the walk
    # doubles for thousands of steps; fast rows exit after a handful
    while (thresholds or len(decreasing) < 3) and steps < 7000:
        x = [base + t * di for di in dint]
        vals = []
        for j, row in enumerate(sysd.rows):
            parts = []
            for i in range(n):
                parts.append(enc[j][i].scale(x[i]))
                if row.logs[i]:
                    lo, hi = ln_fraction_bounds(Fraction(x[i]), bits)
                    parts.append(FInterval(lo, hi).scale(row.logs[i]))
            vals.append(ivl_sum(parts))
        top_hi = max(v.hi for v in vals)
        top_lo = max(v.lo for v in vals)
        if prev is not None and top_hi < prev:
            decreasing.append((tuple(x), str(top_hi)))
        else:
            decreasing = [(tuple(x), str(top_hi))]
        prev = top_lo
        while thresholds and top_hi < thresholds[0]:
            witnesses.append((tuple(x), str(top_hi)))
            thresholds.pop(0)
        t *= 2
        steps += 1
    if thresholds or len(decreasing) < 3:
        return None
    return witnesses + decreasing[:3]


def _covering_fails(sysd: DivergenceSystem, enc, bits: int) -> bool:
    """Certified covering of every escape direction: on each face of the
    sup-norm unit boundary, some row's linear form stays above a positive
    bound, interval-verified over a finite box subdivision."""
    n = sysd.nvars
    rows = range(len(sysd.rows))
    max_depth = 10

    def box_certified(fixed: int, box) -> bool:
        # direction d has d_fixed = 1 and d_i in box[i] for the others
        for j in rows:
            parts = [enc[j][fixed]]
            for i in range(n):
                if i == fixed:
                    continue
                lo, hi = box[i]
                parts.append(enc[j][i] * FInterval(lo, hi))
            if ivl_sum(parts).strictly_positive():
                return True
        return False

    def split(fixed: int, box, depth: int) -> bool:
        if box_certified(fixed, box):
            return True
        if depth >= max_depth:
            return False
        widths = [
            (box[i][1] - box[i][0], i) for i in range(n) if i != fixed
        ]
        w, i = max(widths, default=(0, None))
        if w == 0:
            return False
        mid = (box[i][0] + box[i][1]) / 2
        left = dict(box)
        left[i] = (box[i][0], mid)
        right = dict(box)
        right[i] = (mid, box[i][1])
        return split(fixed, left, depth + 1) and split(fixed, right, depth + 1)

    for fixed in range(n):
        box = {i: (Fraction(0), Fraction(1)) for i in range(n) if i != fixed}
        box[fixed] = (Fraction(1), Fraction(1))
        if not split(fixed, box, 0):
            return False
    return True
