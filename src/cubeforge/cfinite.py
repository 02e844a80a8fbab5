"""C-finite sequences as rational generating functions.

A sequence is stored as num(t)/den(t) with integer coefficients and
den(0) != 0; its terms are the Taylor coefficients at the origin.  The module
provides exact expansion, the one numerator rule ``gf_from_den``, the one
reader of serialized generating functions ``read_gfs`` with the caps that
bound their certification, and finite-check certification: a polynomial
identity among C-finite sequences that holds for enough initial indices
holds for all of them, because the left side is itself C-finite of bounded
order.  The normal form decides coprimality before it takes a polynomial
gcd (``_coprime``): in closed form when one side has degree <= 2, by Euclid
mod a prime otherwise.  The finite check (``certify_zero``) reads its
expression in one pass that gives the depth, the used sequences and a term
plan (``_compile``, which ``certificate_bound`` shares), and evaluates the
plan while it extends each integer sequence as a list of ints, one term per
checked index.  The pipeline builds its denominators
(quadform._unit_recurrence, forge._value_gfs); guessing a recurrence from
data, ``joint_guess_recurrence`` and ``seq_from_terms``, is kept for
library callers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from math import comb, gcd, isqrt
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GuessFailed, NonIntegralGF, PoleAtOrigin, UnboundSymbol
from .kernel import MultiPoly, rational_solve, scale_to_integers

Coeffs = tuple[int, ...]

# The symbol that stands for (-1)^n in expressions passed to certify_zero.
SIGN_SYMBOL = "sgn"


# --- univariate helpers (ascending coefficient tuples, () is zero) ---

def _trim(c) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _primitive(a: Coeffs) -> Coeffs:
    """a (nonzero) divided by its content, leading coefficient positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def _prem(a: Coeffs, b: Coeffs) -> Coeffs:
    """A pseudo-remainder of a by b (nonzero) over the integers: k*a - q*b
    for an integer k != 0 and some q, of lower degree than b."""
    r = list(a)
    while len(r) >= len(b):
        f, h = r[-1], b[-1]
        g = gcd(f, h)
        f, h = f // g, h // g
        k = len(r) - len(b)
        r = [h * x for x in r[:k]] + [h * x - f * y for x, y in zip(r[k:], b)]
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _exact_quo(a: Coeffs, b: Coeffs) -> Coeffs:
    """a / b for integer polynomials with b dividing a in Z[t]."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] // b[-1]
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    assert not any(r), "inexact polynomial division"
    return _trim(q)


def _poly_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Integer gcd, primitive with positive leading coefficient, by the
    primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1): the
    primitive part of a pseudo-remainder differs from the remainder over
    the rationals only by a rational factor, so the sequence ends at the
    gcd over the rationals, times a constant."""
    x, y = _trim(a), _trim(b)
    while y:
        r = _prem(x, y)
        x, y = y, (_primitive(r) if r else ())
    return _primitive(x) if x else ()


# The prime of the coprimality pre-test: its remainders stay below 2^61
# whatever the digits of the input.
_PRIME = (1 << 61) - 1


def _vanishes_at(b: Coeffs, p: int, q: int) -> bool:
    """Whether b(p/q) = 0, for q != 0: whether the homogenised Horner sum
    q^n * b(p/q) = sum_i b_i p^i q^(n-i), n = deg b, is zero."""
    acc, power = 0, 1
    for c in reversed(b):
        acc = acc * p + c * power
        power *= q
    return not acc


def _divides(a: Coeffs, b: Coeffs) -> bool:
    """Whether a = (a0, a1, a2) with a2 != 0 divides b over the rationals.

    With x = a2*t, a2*a(t) = A(x) = x^2 + a1*x + a0*a2 and a2^n * b(t) =
    B(x) = sum_i b_i a2^(n-i) x^i for n = deg b, both in Z[x], and a
    divides b over Q exactly when A divides B.  Horner's rule on B, with x^2
    replaced by -a1*x - a0*a2 after each multiplication by x, keeps u + v*x
    congruent to the part of B read so far mod A; at the end it is the
    remainder of B by the monic A, which is zero exactly when u = v = 0."""
    a0, a1, a2 = a
    c = a0 * a2
    u = v = 0
    power = 1  # a2^(n-i)
    for x in reversed(b):
        u, v = x * power - c * v, u - a1 * v
        power *= a2
    return not u and not v


def _coprime(num: Coeffs, den: Coeffs) -> bool:
    """Whether num and den (nonzero, trimmed) are coprime over the
    rationals.  The answer is exact when the shorter of them, a, has at
    most 3 coefficients; otherwise it is True when _coprime_mod_p proves
    coprimality and False when that cannot tell.

    Let b be the other one.  Proof of the closed form.  A common factor of
    positive degree divides a, so:
    - deg a = 0: a is a nonzero constant, a unit, and divides nothing of
      positive degree.
    - deg a = 1: a = a1*(t - r) with r = -a0/a1, irreducible, so the two
      share a factor exactly when t - r divides b, that is b(r) = 0
      (_vanishes_at).
    - deg a = 2 with D = a1^2 - 4*a0*a2 a square s^2, 0 included: a =
      a2*(t - r1)*(t - r2) with the rational roots r = (-a1 +- s)/(2*a2),
      and a factor of a of positive degree is divisible by t - r1 or
      t - r2, so the two share a factor exactly when b(r1) = 0 or
      b(r2) = 0.
    - deg a = 2 with D not a square: a has no rational root, so it is
      irreducible over Q, and the two share a factor exactly when a
      divides b (_divides).
    Each test is one Horner pass over b: at verify's caps, b of degree 30
    and both sides with 60-digit coefficients, 0.06-0.18 ms against
    0.14-0.33 ms for _coprime_mod_p on the same pairs (best of 50, a shared
    2-core Xeon, CPython 3.11)."""
    a, b = (num, den) if len(num) <= len(den) else (den, num)
    if len(a) > 3:
        return _coprime_mod_p(num, den)
    if len(a) == 1:
        return True
    if len(a) == 2:
        return not _vanishes_at(b, -a[0], a[1])
    a0, a1, a2 = a
    disc = a1 * a1 - 4 * a0 * a2
    s = isqrt(max(disc, 0))
    if s * s == disc:  # one root when s = 0
        return not any(_vanishes_at(b, r, 2 * a2) for r in {s - a1, -s - a1})
    return not _divides(a, b)


def _coprime_mod_p(num: Coeffs, den: Coeffs) -> bool:
    """True when Euclid mod _PRIME proves num and den (nonzero, trimmed)
    coprime over the rationals; False when it cannot tell.  _coprime calls
    it only when both have degree >= 3, where no closed form is used; the
    proof holds for every degree.

    It needs p = _PRIME not to divide lc(den), and stops as soon as a
    remainder is a nonzero constant.  Proof.  Let g be a primitive common
    factor of num and den in Z[t].  Then g divides den in Z[t] (Gauss's
    lemma), so lc(g) divides lc(den) and p does not divide lc(g).  So g mod
    p keeps the degree of g and divides both reductions mod p; when Euclid
    ends at a nonzero constant their gcd mod p is 1, so deg g = 0."""
    p = _PRIME
    if not den[-1] % p:
        return False
    # the inputs stay unreduced: each remainder is reduced as it is built
    x, y = den, list(num)
    while y and not y[-1] % p:
        y.pop()
    while y:
        if len(y) == 1:
            return True
        # a pseudo-remainder of x by y mod p: a unit multiple of x mod y,
        # without the modular inverse that costs more than the whole step
        r, h = x, y[-1]
        while len(r) >= len(y):
            f, k = r[-1], len(r) - len(y)
            r = [h * u % p for u in r[:k]] + [(h * u - f * v) % p for u, v in zip(r[k:], y)]
            while r and not r[-1]:
                r.pop()
        x, y = y, r
    return len(x) == 1


def _poly_lcm(a: Coeffs, b: Coeffs) -> Coeffs:
    # the gcd is primitive, so by Gauss's lemma a / gcd is integral
    return _mul(_exact_quo(_trim(a), _poly_gcd(a, b)), _trim(b))


class RationalGF:
    """Ratio of two integer polynomials with den(0) != 0, in lowest terms.

    Coefficients are stored ascending.  Construction scales num and den
    jointly to integers, divides both by their primitive polynomial gcd and
    then by the gcd of all their coefficients, and makes den(0) positive.
    A zero numerator takes the denominator (1,), as gcd(0, den) = den.
    This normal form is unique.  Sequences of ints (not bools) are taken as
    they are: they skip the scaling and build no Fraction, and when the
    gcd of their coefficients is 1 they are not divided.

    Most pairs are coprime, so _coprime, which carries the proof, decides
    that first, and the primitive pseudo-remainder gcd runs only when the
    answer is "not coprime" or "cannot tell".  When one side has degree
    <= 2, as in nearly every generating function forge builds or verify
    reads, the answer is exact and closed-form: a root or divisibility test
    by one Horner pass over the other side.  Otherwise Euclid mod the prime
    p = 2^61 - 1 (_coprime_mod_p) proves coprimality or cannot tell.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence, den: Sequence):
        num, den = tuple(num), tuple(den)
        exact = all(type(c) is int for c in chain(num, den))
        if exact:
            num_t, den_t = _trim(num), _trim(den)
        else:
            ints = scale_to_integers(num + den)
            num_t, den_t = _trim(ints[: len(num)]), _trim(ints[len(num) :])
        if not den_t or den_t[0] == 0:
            raise PoleAtOrigin("denominator vanishes at the origin")
        if not num_t:
            den_t = (1,)  # the zero sequence
        elif not _coprime(num_t, den_t):
            g = _poly_gcd(num_t, den_t)
            if len(g) > 1:
                num_t, den_t = _exact_quo(num_t, g), _exact_quo(den_t, g)
        common = gcd(*num_t, *den_t)
        if den_t[0] < 0:
            common = -common
        if common != 1 or not exact:
            num_t = tuple(c // common for c in num_t)
            den_t = tuple(c // common for c in den_t)
        object.__setattr__(self, "num", num_t)
        object.__setattr__(self, "den", den_t)

    def __setattr__(self, *a):
        raise AttributeError("RationalGF is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalGF(num={list(self.num)}, den={list(self.den)})"

    def to_json(self) -> dict:
        return {"num": list(self.num), "den": list(self.den)}


# verify checks s + C(r+2, 3) + 1 indices (forge.certify_theorem), where
# r <= the sum of the three denominator orders and the preperiod s is at most
# the numerator length, so at most 31 + C(32, 3) + 1 = 4992 at the caps.  Every
# forged theorem is within both caps: its orbit has order at most 4, so its
# orders sum to at most 3 * C(5, 2) = 30 (quadform._unit_recurrence).  Both
# are checked on the raw input, the orders as raw lengths - 1, before
# RationalGF runs its polynomial gcd, whose cost grows with both degrees
# (three 3000-entry denominators took seconds to reach a check after it); the
# gcd only lowers an order.
MAX_VERIFY_ORDER = 30
MAX_NUMERATOR_LENGTH = MAX_VERIFY_ORDER + 1
# The orders alone do not bound the work, because every expanded term carries
# more digits as the coefficients grow: at the order cap, A = X, B = -X,
# C = 1/(1-t) with X of order 14 certifies at depth 681 in about 1.4 s with
# 20-digit coefficients and 6.4 s with 60-digit ones (one Xeon core).  Digits
# are counted on the raw input, before RationalGF runs its gcd.  Forged
# theorems have at most 4-digit coefficients and the classical triples at
# most 6; the 59-digit binomials of (1-t)^200 stay below the cap, so such a
# theorem is still refused for its order.
MAX_COEFFICIENT_DIGITS = 60
# an int has at most MAX_COEFFICIENT_DIGITS digits exactly when its absolute
# value is below this
_COEFFICIENT_BOUND = 10**MAX_COEFFICIENT_DIGITS


def check_digits(numerals: Iterable[str]) -> None:
    """ValueError when a numeral is longer than MAX_COEFFICIENT_DIGITS."""
    digits = max(map(len, numerals), default=0)
    if digits > MAX_COEFFICIENT_DIGITS:
        raise ValueError(
            f"a coefficient has {digits} digits, which exceeds the cap {MAX_COEFFICIENT_DIGITS}"
        )


def read_gfs(pairs: Iterable) -> list[RationalGF]:
    """The one reader of raw (num, den) coefficient lists from outside the
    program.  Before RationalGF reduces anything, each must be two lists of
    ints (a bool is not one), each numerator at most MAX_NUMERATOR_LENGTH
    long, each coefficient below 10^MAX_COEFFICIENT_DIGITS in absolute
    value, that is of at most MAX_COEFFICIENT_DIGITS digits (they are
    counted only to word a refusal), and the orders, raw lengths - 1, must
    sum to at most MAX_VERIFY_ORDER, or ValueError is raised."""
    pairs = list(pairs)
    for num, den in pairs:
        if not (isinstance(num, list) and isinstance(den, list)):
            raise ValueError("a generating function must be two lists of integers")
        if len(num) > MAX_NUMERATOR_LENGTH:
            raise ValueError(
                f"a numerator has {len(num)} coefficients, which exceeds the cap "
                f"{MAX_NUMERATOR_LENGTH}"
            )
        coeffs = num + den
        for c in coeffs:
            if type(c) is not int:
                raise ValueError(f"a coefficient is a {type(c).__name__}, not an integer")
        if max(map(abs, coeffs), default=0) >= _COEFFICIENT_BOUND:
            check_digits(str(abs(c)) for c in coeffs)
    order = sum(max(len(den) - 1, 0) for _, den in pairs)
    if order > MAX_VERIFY_ORDER:
        raise ValueError(
            f"denominator orders sum to {order}, which exceeds the cap {MAX_VERIFY_ORDER}"
        )
    return [RationalGF(num, den) for num, den in pairs]


def taylor_series(g: RationalGF) -> Iterator[int | Fraction]:
    """The Taylor coefficients of g at the origin, exact, one at a time and
    without end.  Values are ints whenever integral, Fractions otherwise.

    When d0 = den[0] is 1 (every integer sequence, by the normalisation) the
    loop runs on the ints a(n) = num_n - sum_i den_i a(n-i) and builds no
    Fraction and no power of d0.  Otherwise it runs on the integers
    N_n = a(n) * d0^(n+1): multiplying d0*a(n) = num_n - sum_i den_i a(n-i)
    by d0^n gives N_n = num_n d0^n - sum_i den_i d0^(i-1) N_(n-i)."""
    num, den = g.num, g.den
    d0 = den[0]
    past = deque(maxlen=len(den) - 1)  # a(n-1), a(n-2), ... or N_(n-1), ...
    if d0 == 1:
        weights = den[1:]
        for c in chain(num, repeat(0)):  # without end, as below
            acc = c - sum(map(mul, weights, past))
            past.appendleft(acc)
            yield acc
    weights = [c * d0**i for i, c in enumerate(den[1:])]
    power = 1  # d0^n
    for c in chain(num, repeat(0)):
        acc = c * power - sum(map(mul, weights, past))
        past.appendleft(acc)
        power *= d0
        value = Fraction(acc, power)
        yield value.numerator if value.denominator == 1 else value


def taylor_coefficients(g: RationalGF, count: int):
    """First ``count`` Taylor coefficients of g at the origin, exact.
    Values are ints whenever integral, Fractions otherwise."""
    return list(islice(taylor_series(g), count))


@dataclass(frozen=True)
class Certificate:
    """Finite-check certificate: indices 0..bound-1 were evaluated; the
    identity is proved for all n when every value was zero."""

    bound: int
    witness: int | None = None

    @property
    def certified(self) -> bool:
        return self.witness is None


def _fit_recurrence(seqs: Sequence[Sequence[int]], order: int):
    """Shared coefficients e1..e_order with s(n+r) = e1 s(n+r-1) + ... + e_r s(n)
    across every sequence and every window, or None.  rational_solve reads x
    off a nullspace vector v of [A | -b] with v[-1] != 0, so A x = b holds
    exactly and needs no re-check."""
    rows = []
    rhs = []
    for s in seqs:
        for n in range(len(s) - order):
            rows.append([s[n + order - 1 - i] for i in range(order)])
            rhs.append(s[n + order])
    if not rows:
        return None
    return rational_solve(rows, rhs)


def joint_guess_recurrence(seqs: Sequence[Sequence], max_order: int, surplus: int = 2):
    """Minimal-order recurrence [e1..er] that fits every sequence, or None.

    Order r needs every sequence to have at least r terms and at least
    r + surplus equations in total.  For one sequence of L terms there are
    L - r equations, so the default surplus 2 is the rule of 2r+2 terms and
    surplus 1 the rule of 2r+1 terms.  Each sequence is scaled to integers
    by the lcm of its denominators, which keeps its recurrences.
    """
    data = [scale_to_integers(s) for s in seqs]
    if not data or any(not s for s in data):
        return None
    for r in range(1, max_order + 1):
        if min(len(s) for s in data) < r:
            break
        equations = sum(max(0, len(s) - r) for s in data)
        if equations < r + surplus:
            break
        sol = _fit_recurrence(data, r)
        if sol is not None:
            return sol
    return None


def gf_from_den(terms: Sequence[int], den: Sequence[int]) -> RationalGF:
    """num/den for a sequence known to obey den from its first term on:
    num = (den * series) truncated below r = deg den, read off the first r
    terms (at least r are needed).  The package's one numerator rule."""
    r = len(den) - 1
    if len(terms) < r:
        raise ValueError(f"a denominator of degree {r} needs at least {r} terms")
    num = [sum(den[i] * terms[j - i] for i in range(j + 1)) for j in range(r)]
    return RationalGF(num, den)


def seq_from_terms(terms: Sequence[int], max_order: int) -> RationalGF:
    """Reconstruct a generating function whose expansion reproduces every
    given term, by guessing a recurrence of order <= max_order.

    Reconstruction needs only one surplus equation (2r+1 terms for order r)
    instead of the default two: the recurrence [e1..er], which gives
    den = 1 - e1 t - ... - er t^r, holds exactly on every window of the
    terms (rational_solve), and gf_from_den matches the first r of them, so
    the expansion reproduces every given term.
    """
    if not terms:
        raise ValueError("terms must be nonempty")
    coeffs = joint_guess_recurrence([terms], max_order, surplus=1)
    if coeffs is None:
        raise GuessFailed(
            f"no recurrence of order <= {max_order} fits {len(terms)} terms"
        )
    if any(e.denominator != 1 for e in coeffs):
        raise NonIntegralGF("recurrence coefficients are not integers")
    if any(Fraction(t).denominator != 1 for t in terms):
        raise NonIntegralGF("terms are not integers")
    return gf_from_den([int(t) for t in terms], (1,) + tuple(-int(e) for e in coeffs))


def _symmetric_square(den: Coeffs) -> Coeffs:
    """The polynomial prod_(i <= j) (1 - a_i a_j t) of degree C(r+1, 2),
    for den = prod_i (1 - a_i t) of degree r with den[0] = 1.

    Multiplying den by sum_(k >= 1) p_k t^k, p_k = sum_i a_i^k, gives
    -t den'(t) (Newton's identities), so p_k = -k c_k - sum_(i<k) c_i p_(k-i)
    with c_k = den[k], zero past r.  The power sums of the products a_i a_j,
    i <= j, are q_k = (p_k^2 + p_(2k)) / 2, and the same identities run
    backwards give the coefficients: k d_k = -q_k - sum_(i<k) d_i q_(k-i).
    Every d_k is an integer symmetric function of the a_i, so both
    divisions are exact."""
    assert den and den[0] == 1, "den[0] must be 1"
    r = len(den) - 1
    rho = comb(r + 1, 2)
    c = list(den) + [0] * (2 * rho)
    p = [0]
    for k in range(1, 2 * rho + 1):
        p.append(-k * c[k] - sum(c[i] * p[k - i] for i in range(1, k)))
    q = [0] + [(p[k] * p[k] + p[2 * k]) // 2 for k in range(1, rho + 1)]
    d = [1]
    for k in range(1, rho + 1):
        acc = -q[k] - sum(d[i] * q[k - i] for i in range(1, k))
        assert acc % k == 0, "inexact symmetric-square coefficient"
        d.append(acc // k)
    return tuple(d)


def _compile(expr: MultiPoly, seqs: Mapping[str, RationalGF]):
    """(bound, places, even, odd) from one pass over the terms of ``expr``:
    the depth of certificate_bound, the (place in an exponent vector,
    sequence) of each used symbol in the order of expr.variables, and the
    term plan, once with each term's sign at even n and once at odd n.  A
    term's plan entry is its coefficient and its (place, exponent) pairs;
    the parity of its SIGN_SYMBOL exponent fixes its sign at odd n.
    UnboundSymbol is raised for a used symbol with no sequence."""
    variables = expr.variables
    sign = variables.index(SIGN_SYMBOL) if SIGN_SYMBOL in variables else -1
    used = [False] * len(variables)
    support = set()
    even, odd = [], []
    for ev, c in expr.terms.items():
        factors = []
        d = 0
        for k, e in enumerate(ev):
            if e and k != sign:
                factors.append((k, e))
                used[k] = True
                d += e
        p = ev[sign] & 1 if sign >= 0 else 0
        support.add((d, p))
        even.append((c, factors))
        odd.append((-c if p else c, factors))
    places = []
    dens = set()
    s = 0
    for k, v in enumerate(variables):
        if not used[k]:
            continue
        if v not in seqs:
            raise UnboundSymbol(f"no sequence bound to symbol {v!r}")
        g = seqs[v]
        places.append((k, g))
        dens.add(g.den)
        s = max(s, len(g.num) - len(g.den) + 1)
    l: Coeffs = (1,)
    for den in dens:  # the sequences of a theorem or an orbit mostly share one
        l = _poly_lcm(l, den) if len(l) > 1 else den
    r = len(l) - 1
    bound = s + sum(comb(r + d - 1, d) if d else 1 for d, _ in support)
    return bound, places, even, odd


def certificate_bound(expr: MultiPoly, seqs: Mapping[str, RationalGF]) -> int:
    """The number of initial indices whose zeros prove that ``expr`` vanishes
    for all n, each used symbol replaced by its sequence and SIGN_SYMBOL by
    (-1)^n: B = s + sum of C(r+d-1, d) over the support, a d = 0 pair
    counting 1.  certify_zero reads the same depth, with its term plan,
    from the one pass over the terms (``_compile``) that computes it here.

    The support is the set of pairs (d, p) over the terms of expr, with d
    the total degree without SIGN_SYMBOL and p its exponent mod 2, as
    (-1)^(2n) = 1.  r is the degree of the lcm L of the denominators of the
    sequences expr uses, and s their largest preperiod
    max(0, len(num) - len(den) + 1); a bound but unused sequence counts for
    neither.  UnboundSymbol is raised for a used symbol with no sequence.

    Proof.  den * A = num gives sum_j den_j a(n - j) = num_n, and num_n = 0
    from n = len(num) on, so a(n + s) obeys the recurrence of den, and of its
    multiple L, from n = 0 on.  Let V be the r-dimensional space of solutions
    of L; the shift S maps V into itself.  Products of exactly d elements of
    V factor through Sym^d V, so they span a space W_d of dimension at most
    C(r+d-1, d), and W_d is shift-invariant, as S(uv) = S(u) S(v).  W_0 is
    the constants, of dimension 1; for r = 0 every sequence vanishes from s
    on, and C(d-1, d) = 0 for d >= 1 is right.  (-1)^n W_d is
    shift-invariant too, as S((-1)^n w) = -(-1)^n S(w).  So from n = s on the
    values of expr lie in the sum U of (-1)^(pn) W_d over the support (the
    sign (-1)^s of the shift is a constant factor), a shift-invariant space
    of dimension N <= B - s.  The minimal polynomial of S on U is monic of
    degree k <= N, so every u in U obeys u(n + k) = -sum_(i<k) c_i u(n + i)
    and k zeros from its start force u = 0.  With n < s checked directly,
    zeros at every n < B prove that expr vanishes for all n.
    """
    return _compile(expr, seqs)[0]


# the kinds of right-hand side c*s_n of an identity: s_n = 1 or (-1)^n
RHS_KINDS = ("constant", "alternating")


def rhs_poly(c: int, kind: str) -> MultiPoly:
    """Right-hand side c*(-1)^n for kind "alternating", spelled
    c*SIGN_SYMBOL, and the constant c for any other kind."""
    if kind == "alternating":
        return c * MultiPoly.variable(SIGN_SYMBOL)
    return MultiPoly.constant(c)


def certify_zero(expr: MultiPoly, seqs: Mapping[str, RationalGF]) -> Certificate:
    """Prove or refute that ``expr`` vanishes for all n when each symbol is
    replaced by its sequence value and SIGN_SYMBOL by (-1)^n, by checking
    n < certificate_bound(expr, seqs), which carries the proof.

    SIGN_SYMBOL always stands for (-1)^n, in any power and any term: binding
    a sequence to it raises ValueError.  One pass over the terms
    (``_compile``) gives the depth, the used sequences and the term plan:
    per term its coefficient, its (place, exponent) pairs and its sign at
    even and at odd n.  The sequences are extended while the plan is
    evaluated on them, one term per checked index, so a refuted identity
    stops at its first nonzero value, the witness.  A sequence with
    den[0] = 1 (every integer sequence, by RationalGF's normal form) is
    extended as a list of ints, a(n) = num_n + sum_i w_i a(n-i) with the
    weights w_i = -den_i negated once, on r leading zeros that stand for
    a(-r), ..., a(-1); any other takes taylor_series's Fraction path.
    """
    if SIGN_SYMBOL in seqs:
        raise ValueError(f"{SIGN_SYMBOL!r} stands for (-1)^n and cannot be bound")
    bound, used, even, odd = _compile(expr, seqs)
    values = [0] * len(expr.variables)
    # (place, r, weights w_r .. w_1, r zeros then num then zeros) per
    # integer sequence
    ints = []
    series = []
    for k, g in used:
        den = g.den
        if den[0] == 1:
            r = len(den) - 1
            terms = [0] * (r + bound)
            terms[r : r + len(g.num)] = g.num
            ints.append((k, r, [-c for c in den[:0:-1]], terms))
        else:
            series.append((k, taylor_series(g)))
    for n in range(bound):
        for k, r, weights, terms in ints:
            i = n
            acc = terms[n + r]
            for w in weights:
                acc += w * terms[i]
                i += 1
            terms[i] = values[k] = acc
        for k, it in series:
            values[k] = next(it)
        total = 0
        for c, factors in odd if n & 1 else even:
            for k, e in factors:
                c *= values[k] ** e
            total += c
        if total:
            return Certificate(bound=bound, witness=n)
    return Certificate(bound=bound)
