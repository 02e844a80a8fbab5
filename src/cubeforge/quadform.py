"""Binary quadratic forms: solution enumeration, Pell-like orbit discovery
with generating-function output, and the explicit constant-value form
constructors for shared-denominator sequence pairs.

Orbits are found from data: enumerate small solutions, guess one linear
recurrence for both coordinate sequences, rebuild generating functions, and
certify the resulting infinite family by a finite check.  No reduction theory
of forms is used anywhere.

Enumeration is one windowed pass over m.  With D = qb^2 - 4*qa*qc and
t = 2*qc*n + qb*m, completing the square gives 4*qc*Q(m, n) = t^2 - D*m^2, so
|Q| <= cap holds exactly when D*m^2 - 4|qc|*cap <= t^2 <= D*m^2 + 4|qc|*cap.
Two isqrt calls per m bound the window for |t|, and only the t in it with
t = qb*m (mod 2|qc|) give an integer n = (t - qb*m) / (2*qc).  For D > 0 the
two windows t and -t hold about 1 + 4*cap / (sqrt(D)*m) such t, so every
target with |e| <= cap comes out of one scan in O(bound + cap*log(bound))
steps, where a scan per target costs one isqrt per m and target.  When
qc = 0 the form is m*(qa*m + qb*n) and the window is
|qa*m + qb*n| <= cap // m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .cfinite import (
    SIGN_SYMBOL,
    Certificate,
    RationalGF,
    certify_zero,
    gf_from_recurrence,
    joint_guess_recurrence,
    rhs_poly,
    taylor_coefficients,
)
from .errors import (
    DefiniteForm,
    DegenerateInitialVectors,
    InvalidForm,
    NoOrbitFound,
    NonIntegralGF,
    ZeroB,
)
from .kernel import MultiPoly


@dataclass(frozen=True)
class QuadForm:
    """qa*m^2 + qb*m*n + qc*n^2 with integer coefficients, not all zero."""

    qa: int
    qb: int
    qc: int

    def __post_init__(self):
        if self.qa == 0 and self.qb == 0 and self.qc == 0:
            raise InvalidForm("all three coefficients are zero")

    @property
    def discriminant(self) -> int:
        return self.qb * self.qb - 4 * self.qa * self.qc

    def value(self, m: int, n: int) -> int:
        return self.qa * m * m + self.qb * m * n + self.qc * n * n

    def to_poly(self, variables: Sequence[str] = ("m", "n")) -> MultiPoly:
        u, v = variables
        return MultiPoly(
            (u, v), {(2, 0): self.qa, (1, 1): self.qb, (0, 2): self.qc}
        )

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "QuadForm":
        if len(p.variables) != 2:
            raise InvalidForm(f"{p} is not a polynomial in exactly two variables")
        coeffs = {(2, 0): 0, (1, 1): 0, (0, 2): 0}
        for ev, c in p.terms.items():
            if ev not in coeffs:
                raise InvalidForm(f"{p} is not a homogeneous binary quadratic form")
            coeffs[ev] = c
        return cls(coeffs[(2, 0)], coeffs[(1, 1)], coeffs[(0, 2)])

    def __str__(self) -> str:
        return str(self.to_poly())


@dataclass(frozen=True)
class PellOrbit:
    """An infinite certified family of solutions of Q(m, n) = e (kind
    "constant") or Q(m, n) = e * (-1)^i (kind "alternating"), given by the
    Taylor coefficient pairs of two generating functions with one
    denominator."""

    gf_m: RationalGF
    gf_n: RationalGF
    target: int
    kind: str
    certificate: Certificate

    def pairs(self, count: int) -> list[tuple[int, int]]:
        ms = taylor_coefficients(self.gf_m, count)
        ns = taylor_coefficients(self.gf_n, count)
        return list(zip(ms, ns))

    def to_json(self) -> dict:
        return {
            "gf_m": self.gf_m.to_json(),
            "gf_n": self.gf_n.to_json(),
            "target": self.target,
            "kind": self.kind,
            "certified_depth": self.certificate.bound,
        }


def enumerate_solutions(
    form: QuadForm, targets: Iterable[int], bound: int
) -> list[tuple[int, int, int]]:
    """All (m, n, Q(m, n)) with 1 <= m <= bound, 0 <= n <= bound and value in
    ``targets``, sorted by m then n.  The quarter-plane quotients the global
    (m, n) <-> (-m, -n) symmetry and fixes the orientation every orbit guess
    relies on.

    One pass over m visits only the (m, n) with |Q(m, n)| <= max |target|,
    using the window derived in the module docstring, clipped to the n range.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    tset = set(int(t) for t in targets)
    if not tset:
        return []
    cap = max(abs(t) for t in tset)
    qa, qb, qc = form.qa, form.qb, form.qc
    out: list[tuple[int, int, int]] = []
    if qc == 0 and qb == 0:
        for m in range(1, bound + 1):
            v = qa * m * m
            if v in tset:
                out.extend((m, n, v) for n in range(bound + 1))
        return out
    if qc == 0:
        # Q = m*u with u = qa*m + qb*n, so |Q| <= cap forces |u| <= cap // m
        step = abs(qb)
        lo_off, hi_off = min(0, qb * bound), max(0, qb * bound)
        for m in range(1, bound + 1):
            u0 = qa * m
            w = cap // m
            lo, hi = max(-w, u0 + lo_off), min(w, u0 + hi_off)
            hits = []
            for u in range(lo + (u0 - lo) % step, hi + 1, step):
                if m * u in tset:
                    hits.append(((u - u0) // qb, m * u))
            if hits:
                hits.sort()
                out.extend([(m, n, v) for n, v in hits])
        return out
    disc = form.discriminant
    slack = 4 * abs(qc) * cap
    step = 2 * abs(qc)
    two_qc, four_qc = 2 * qc, 4 * qc
    # t = 2*qc*n + qb*m runs over [qb*m + lo_off, qb*m + hi_off] for n in [0, bound]
    lo_off, hi_off = min(0, two_qc * bound), max(0, two_qc * bound)
    for m in range(1, bound + 1):
        centre = disc * m * m
        if centre + slack < 0:
            continue
        s_hi = isqrt(centre + slack)
        s_lo = isqrt(centre - slack - 1) + 1 if centre > slack else 0
        if s_lo > s_hi:
            continue
        t0 = qb * m
        t_min, t_max = t0 + lo_off, t0 + hi_off
        hits = []
        # |t| in [s_lo, s_hi], counting t = 0 once
        for lo, hi in ((s_lo, s_hi), (-s_hi, -s_lo if s_lo else -1)):
            if lo < t_min:
                lo = t_min
            if hi > t_max:
                hi = t_max
            for t in range(lo + (t0 - lo) % step, hi + 1, step):
                v = (t * t - centre) // four_qc
                if v in tset:
                    hits.append(((t - t0) // two_qc, v))
        if hits:
            hits.sort()
            out.extend([(m, n, v) for n, v in hits])
    return out


def _value_pattern(values: Sequence[int]) -> tuple[str, int] | None:
    """"constant" when all values agree, "alternating" when they flip sign
    with constant magnitude; None otherwise."""
    first = values[0]
    if first == 0:
        return None
    if all(v == first for v in values):
        return "constant", first
    if all(values[i] == first * (-1) ** i for i in range(len(values))):
        return "alternating", first
    return None


def _orbit_from_solutions(
    form: QuadForm, sols: Sequence[tuple[int, int, int]], guess_order: int
) -> PellOrbit | None:
    if len(sols) < 3:
        return None
    pattern = _value_pattern([v for _, _, v in sols])
    if pattern is None:
        return None
    kind, target = pattern
    mseq = [m for m, _, _ in sols]
    nseq = [n for _, n, _ in sols]
    coeffs = joint_guess_recurrence([mseq, nseq], guess_order)
    if coeffs is None:
        return None
    try:
        gf_m = gf_from_recurrence(mseq, coeffs)
        gf_n = gf_from_recurrence(nseq, coeffs)
    except NonIntegralGF:
        return None
    if gf_m.den != gf_n.den:
        # reduction split the shared denominator; treat as a failed candidate
        return None
    expr = form.to_poly() - rhs_poly(target, kind)
    cert = certify_zero(expr, {"m": gf_m, "n": gf_n}, sign_symbol=SIGN_SYMBOL)
    if not cert.certified:
        return None
    return PellOrbit(gf_m=gf_m, gf_n=gf_n, target=target, kind=kind, certificate=cert)


def sol_quad(
    form: QuadForm,
    guess_order: int = 4,
    *,
    bound: int = 2000,
    target_cap: int = 30,
) -> PellOrbit:
    """Find a certified Pell-like orbit for the form.

    Target magnitudes |e| are scanned upward from 1; one enumeration gathers
    the solutions of every magnitude up to ``target_cap`` at once.  Inside one
    magnitude class the candidate solution lists are tried in a fixed ladder:
    the full sorted list, the even- and odd-indexed subsequences (interleaved
    orbits are common), then each sign class of the achieved value.  Among
    the certified candidates of the winning class, a constant-kind orbit
    beats an alternating one; remaining ties go to the earliest ladder
    position.

    Forms in one variable (qb == 0 and qa*qc == 0) raise NoOrbitFound before
    any enumeration, because no ladder candidate can pass.  For Q = qa*m^2
    and |e| >= 1 there is at most one m = k with qa*k^2 = +-|e|, so a class
    is the single line (k, 0), (k, 1), ..., (k, bound) and every candidate
    with at least three points pairs the constant sequence k with a
    non-constant arithmetic one.  A recurrence fitted jointly to both holds
    for both at every index: applied to a*i + b it leaves a polynomial of
    degree <= 1 in i, which is zero on the at least two windows per sequence
    that the pooled margin of joint_guess_recurrence demands.  So the rebuilt
    generating functions are k/(1 - t) and (b + (a - b)*t)/(1 - t)^2 with
    a != 0, both in lowest terms, and the "denominator split" check rejects
    the pair.  Q = qc*n^2 is the same with the roles of m and n swapped.
    """
    if guess_order < 2:
        raise ValueError("guess_order must be at least 2")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if form.discriminant < 0:
        raise DefiniteForm(
            f"{form} has negative discriminant {form.discriminant}; "
            "every target admits only finitely many solutions"
        )
    no_orbit = (
        f"no certified orbit for {form} with |target| <= {target_cap}, "
        f"enumeration bound {bound}, guess order {guess_order}"
    )
    if form.qb == 0 and form.qa * form.qc == 0:
        raise NoOrbitFound(no_orbit)
    targets = [e for mag in range(1, target_cap + 1) for e in (mag, -mag)]
    by_magnitude: dict[int, list[tuple[int, int, int]]] = {}
    for sol in enumerate_solutions(form, targets, bound):
        by_magnitude.setdefault(abs(sol[2]), []).append(sol)
    for mag in range(1, target_cap + 1):
        sols = by_magnitude.get(mag, [])
        if len(sols) < 3:
            continue
        ladder = [
            sols,
            sols[0::2],
            sols[1::2],
            [s for s in sols if s[2] > 0],
            [s for s in sols if s[2] < 0],
        ]
        seen: list = []
        candidates: list[PellOrbit] = []
        for cand in ladder:
            if cand in seen:
                continue
            seen.append(cand)
            orbit = _orbit_from_solutions(form, cand, guess_order)
            if orbit is not None:
                candidates.append(orbit)
        if candidates:
            constant = [o for o in candidates if o.kind == "constant"]
            return constant[0] if constant else candidates[0]
    raise NoOrbitFound(no_orbit)


def general_quadform(
    c0: int, c1: int, d0: int, d1: int, k: int
) -> tuple[QuadForm, int]:
    """The binary quadratic form that is constant along the coefficient
    sequences of (c0 + c1 t)/(1 - k t + t^2) and (d0 + d1 t)/(1 - k t + t^2).

    Returns (form, C) with form(a(n), b(n)) = C = (c0*d1 - c1*d0)^2 for all
    n >= 0.  The common square factor is already removed from the form.
    """
    delta = c0 * d1 - c1 * d0
    if delta == 0:
        raise DegenerateInitialVectors("initial vectors are proportional")
    qa = d0 * d1 * k + d0 * d0 + d1 * d1
    qb = -(c0 * d1 * k + c1 * d0 * k + 2 * c0 * d0 + 2 * c1 * d1)
    qc = c0 * c1 * k + c0 * c0 + c1 * c1
    return QuadForm(qa, qb, qc), delta * delta


@dataclass(frozen=True)
class PellConstruction:
    """Sequences A, B with A(n)^2 - N * B(n)^2 = 1 for all n, where
    N = (k^2 - 1) / b^2 (rational in general, integral iff b^2 | k^2 - 1)."""

    gf_a: RationalGF
    gf_b: RationalGF
    modulus: Fraction
    integral: bool


def pell_special(k: int, b: int) -> PellConstruction:
    """A(n) from (1 - k t)/(1 - 2k t + t^2) and B(n) from b t/(1 - 2k t + t^2)
    solve X^2 - N Y^2 = 1 with N = (k^2 - 1)/b^2."""
    if b == 0:
        raise ZeroB("the scaling integer b must be nonzero")
    gf_a = RationalGF((1, -k), (1, -2 * k, 1))
    gf_b = RationalGF((0, b), (1, -2 * k, 1))
    modulus = Fraction(k * k - 1, b * b)
    return PellConstruction(
        gf_a=gf_a, gf_b=gf_b, modulus=modulus, integral=modulus.denominator == 1
    )
