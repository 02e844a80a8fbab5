import json
import random
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from cubeforge import (
    MultiPoly,
    RationalGF,
    certify_zero,
    seq_from_terms,
    taylor_coefficients,
)
from cubeforge import cfinite
from cubeforge.cfinite import (
    MAX_COEFFICIENT_DIGITS,
    MAX_NUMERATOR_LENGTH,
    MAX_VERIFY_ORDER,
    SIGN_SYMBOL,
    Certificate,
    certificate_bound,
    joint_guess_recurrence,
    read_gfs,
    taylor_series,
)
from cubeforge.errors import (
    GuessFailed,
    NonIntegralGF,
    PoleAtOrigin,
    UnboundSymbol,
)


def var(name):
    return MultiPoly.variable(name)


# --- the rational helpers that cfinite replaced with integer ones, kept as
# the oracle: division, gcd and lcm over Fraction, the Fraction
# normalisation of RationalGF, and the Fraction Taylor recurrence ---


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _content(a):
    g = 0
    for c in a:
        g = gcd(g, int(c))
    return g


def reference_divmod_q(a, b):
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and not a[-1]:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = f
        for i, y in enumerate(b):
            a[k + i] -= f * y
        a.pop()
    return _trim(q), _trim(a)


def reference_poly_gcd(a, b):
    x, y = _trim(a), _trim(b)
    while y:
        _, r = reference_divmod_q(x, y)
        x, y = y, r
    if not x:
        return ()
    scale = lcm(*(Fraction(c).denominator for c in x))
    ints = [int(Fraction(c) * scale) for c in x]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def reference_poly_lcm(a, b):
    g = reference_poly_gcd(a, b)
    q, r = reference_divmod_q(a, g)
    assert not r
    prod = _mul(_trim(q), _trim(b))
    scale = lcm(*(Fraction(c).denominator for c in prod)) if prod else 1
    return _trim(tuple(int(Fraction(c) * scale) for c in prod))


def reference_normal_form(num, den):
    """(num, den) as the Fraction RationalGF normalised them."""
    num_q = [Fraction(x) for x in num]
    den_q = [Fraction(x) for x in den]
    den_t = _trim(den_q)
    if not den_t or den_t[0] == 0:
        raise PoleAtOrigin("denominator vanishes at the origin")
    num_t = _trim(num_q)
    if not num_t:
        den_t = (Fraction(1),)  # the zero sequence: gcd(0, den) = den
    else:
        g = reference_poly_gcd(
            tuple(x * lcm(*(c.denominator for c in num_t)) for x in num_t),
            tuple(x * lcm(*(c.denominator for c in den_t)) for x in den_t),
        )
        if len(g) > 1:
            qn, rn = reference_divmod_q(num_t, g)
            qd, rd = reference_divmod_q(den_t, g)
            assert not rn and not rd
            num_t, den_t = qn, qd
    scale = 1
    for c in list(num_t) + list(den_t):
        scale = lcm(scale, Fraction(c).denominator)
    num_i = [int(Fraction(c) * scale) for c in num_t]
    den_i = [int(Fraction(c) * scale) for c in den_t]
    common = gcd(_content(num_i), _content(den_i))
    if common == 0:
        common = _content(den_i)
    sign = -1 if den_i[0] < 0 else 1
    common *= sign
    return tuple(c // common for c in num_i), tuple(c // common for c in den_i)


def reference_taylor(num, den, count):
    out = []
    for n in range(count):
        acc = Fraction(num[n]) if n < len(num) else Fraction(0)
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc / den[0])
    return [int(x) if x.denominator == 1 else x for x in out]


def reference_certificate_bound(expr, seqs):
    # s over the used sequences, plus, per (degree, sign parity) pair of the
    # terms, the number of multisets of d elements of r: the dimension of
    # Sym^d of the r-dimensional solution space
    exponents = [dict(zip(expr.variables, ev)) for ev in expr.terms]
    used = [v for v in expr.variables if v != SIGN_SYMBOL and any(e[v] for e in exponents)]
    l, s = (1,), 0
    for v in used:
        l = reference_poly_lcm(l, seqs[v].den)
        s = max(s, len(seqs[v].num) - len(seqs[v].den) + 1)
    r = len(l) - 1
    support = set()
    for e in exponents:
        sign = e.get(SIGN_SYMBOL, 0)
        support.add((sum(e.values()) - sign, sign % 2))
    return s + sum(_multisets(r, d) for d, _ in support)


def _multisets(r, d):
    # the coefficient of x^d in (1 + x + x^2 + ...)^r, by repeated prefix sums
    ways = [1] + [0] * d
    for _ in range(r):
        ways = list(accumulate(ways))
    return ways[d]


def reference_certify_zero(expr, seqs):
    """The finite check as it was before the term plan: at each n, an env
    of the expanded values and (-1)^n, and MultiPoly.evaluate on it."""
    if SIGN_SYMBOL in seqs:
        raise ValueError(f"{SIGN_SYMBOL!r} stands for (-1)^n and cannot be bound")
    bound = certificate_bound(expr, seqs)
    series = {v: taylor_series(seqs[v]) for v in expr.used_variables() if v != SIGN_SYMBOL}
    for n in range(bound):
        env = {name: next(values) for name, values in series.items()}
        env[SIGN_SYMBOL] = -1 if n % 2 else 1
        if expr.evaluate(env) != 0:
            return Certificate(bound=bound, witness=n)
    return Certificate(bound=bound)


small = st.integers(-9, 9)
nonzero_small = st.integers(1, 9) | st.integers(-9, -1)
polys = st.lists(small, min_size=0, max_size=5)
nonzero_polys = polys.filter(any)


def _as_fractions(values, denominators):
    return [Fraction(x, d) for x, d in zip(values, denominators)]


class TestIntegerLayerOracle:
    """The integer gcd, lcm, normalisation and Taylor recurrence against the
    Fraction versions they replaced, compared exactly."""

    @settings(max_examples=300, deadline=None)
    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    def test_gcd_and_lcm(self, a, b, shared):
        a, b = _mul(a, shared), _mul(b, shared)
        assert cfinite._poly_gcd(a, b) == reference_poly_gcd(a, b)
        assert cfinite._poly_lcm(a, b) == reference_poly_lcm(a, b)

    @settings(max_examples=400, deadline=None)
    @given(polys, polys, polys, small, st.sampled_from([None, "num", "den", "both"]), st.data())
    def test_normal_form(self, num, den, shared, scale, fractions, data):
        # products with a shared factor, scaled by any integer (negative,
        # zero or one), with Fraction entries on either side; den[0] may be
        # zero (PoleAtOrigin) or negative, and num may be zero
        num = [scale * c for c in _mul(num, shared)] + [0] * data.draw(st.integers(0, 2))
        den = list(_mul(den, shared)) + [0] * data.draw(st.integers(0, 2))
        dens = st.lists(st.integers(1, 12), min_size=len(num) + len(den), max_size=len(num) + len(den))
        d = data.draw(dens)
        if fractions in ("num", "both"):
            num = _as_fractions(num, d)
        if fractions in ("den", "both"):
            den = _as_fractions(den, d[len(num):])
        try:
            expected = reference_normal_form(num, den)
        except PoleAtOrigin:
            with pytest.raises(PoleAtOrigin):
                RationalGF(num, den)
            return
        g = RationalGF(num, den)
        assert (g.num, g.den) == expected
        assert all(type(c) is int for c in g.num + g.den)

    @settings(max_examples=300, deadline=None)
    @given(polys, st.lists(small, min_size=0, max_size=4), st.sampled_from([1, 2, 3, 6]),
           st.integers(1, 25))
    def test_taylor_terms(self, num, tail, d0, count):
        g = RationalGF(num, [d0] + tail)
        expected = reference_taylor(g.num, g.den, count)
        got = taylor_coefficients(g, count)
        assert got == expected
        assert [type(x) for x in got] == [type(x) for x in expected]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(polys, polys, polys), min_size=1, max_size=3),
        st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=4, max_size=4), small), max_size=5),
    )
    def test_certificate_bound(self, specs, terms):
        # one to three denominators, which share factors with each other
        # through the common third polynomial; the expression's terms in
        # X1, X2, X3 and the sign symbol use only the bound sequences, and
        # perhaps not all of them
        gfs = []
        for num, den, shared in specs:
            gfs.append(RationalGF(num, _mul((1,) + tuple(den), (1,) + tuple(shared))))
        names = ("X1", "X2", "X3")
        seqs = dict(zip(names, gfs))
        expr = MultiPoly(
            names + (SIGN_SYMBOL,),
            {tuple(e if i < len(gfs) or i == 3 else 0 for i, e in enumerate(ev)): c for ev, c in terms},
        )
        assert certificate_bound(expr, seqs) == reference_certificate_bound(expr, seqs)

    def test_pole_at_origin(self):
        for den in ((), (0,), (0, 0, 1), (Fraction(0), 3)):
            with pytest.raises(PoleAtOrigin):
                RationalGF((1,), den)

    def test_integer_input_builds_no_fraction(self, monkeypatch, alternating_triple):
        # normalisation, the lcm, and the expansion when den[0] == 1 run on
        # the ints alone
        from cubeforge import kernel

        monkeypatch.setattr(cfinite, "Fraction", None)
        monkeypatch.setattr(kernel, "Fraction", None)
        g = RationalGF(_mul((1, 53, 9), (2, -4)), _mul((1, -82, -82, 1), (2, -4)))
        assert (g.num, g.den) == ((1, 53, 9), (1, -82, -82, 1))
        cubic = var("A") ** 3 + var("B") ** 3 - var("C") ** 3 - var(SIGN_SYMBOL)
        assert certificate_bound(cubic, dict(zip("ABC", alternating_triple))) == 11
        assert [x for _, x in zip(range(4), taylor_series(g))] == [1, 135, 11161, 926271]

    def test_prs_keeps_coefficients_small(self, monkeypatch):
        # Each pseudo-remainder is divided by its content; without that the
        # coefficients of the remainder sequence grow exponentially with the
        # degree.  Two coprime degree-12 polynomials with digits 1..9.
        sizes = []
        prem = cfinite._prem

        def recording(a, b):
            sizes.append(max(abs(c) for c in a + b).bit_length())
            return prem(a, b)

        monkeypatch.setattr(cfinite, "_prem", recording)
        rng = random.Random(5)
        a = tuple(rng.randint(1, 9) for _ in range(13))
        b = tuple(rng.randint(1, 9) for _ in range(13))
        assert cfinite._poly_gcd(a, b) == reference_poly_gcd(a, b) == (1,)
        assert max(sizes) < 200


_P = (1 << 61) - 1  # the prime of the coprimality pre-test


class TestCoprimePretest:
    """Euclid mod p = 2^61 - 1, which RationalGF runs when both sides have
    at least 4 coefficients, proves num and den coprime or cannot tell; each
    edge of its proof is tested on it directly, and RationalGF gives the
    normal form of the Fraction oracle there."""

    def _check(self, num, den, proved):
        assert cfinite._coprime_mod_p(_trim(num), _trim(den)) is proved
        g = RationalGF(num, den)
        assert (g.num, g.den) == reference_normal_form(num, den)
        return g

    def test_prime_divides_the_leading_denominator_coefficient(self):
        # (1 + p t) divides both; mod p the numerator is the constant 1 and
        # den drops a degree, so without the p-does-not-divide-lc(den) test
        # Euclid would call the pair coprime
        g = self._check((1, _P), _mul((1, _P), (1, -1)), False)
        assert (g.num, g.den) == ((1,), (1, -1))

    @pytest.mark.parametrize(
        "num, den, proved",
        [
            ((_P, 2 * _P), (1, 3), False),  # coprime, found by the fallback
            ((_P, 3 * _P), _mul((1, 3), (1, -1)), False),  # a shared 1 + 3t
            ((_P, 2 * _P), (5,), True),  # a constant den is coprime to all
        ],
    )
    def test_numerator_divisible_by_the_prime(self, num, den, proved):
        self._check(num, den, proved)

    def test_common_factor_mod_p_only(self):
        # 1 + t and 1 + (1 + p) t are coprime over Q and equal mod p: the
        # pre-test cannot tell, and the PRS still finds the gcd 1
        g = self._check((1, 1), (1, 1 + _P), False)
        assert cfinite._poly_gcd((1, 1), (1, 1 + _P)) == (1,)
        assert (g.num, g.den) == ((1, 1), (1, 1 + _P))

    @settings(deadline=None)
    @given(polys, polys, nonzero_polys, st.sampled_from(["factor", "product"]), st.data())
    def test_normal_form_near_the_prime(self, num, den, shared, lifted, data):
        # Coefficients moved by +-p, each with probability 1/2, and a top
        # zero that may become +-p: either in the shared factor, a common
        # factor with huge coefficients, or in the products, which then
        # share a factor mod p but mostly not over Q.  Every edge of the
        # pre-test shows up: p | lc(den), num = 0 mod p, a factor mod p only.
        def lift(coeffs):
            signs = data.draw(st.lists(st.sampled_from([0, 0, 1, -1]),
                                       min_size=len(coeffs) + 1, max_size=len(coeffs) + 1))
            return [c + _P * k for c, k in zip(list(coeffs) + [0], signs)]

        if lifted == "factor":
            shared = lift(shared)
        num, den = _mul(num, shared), _mul(den, shared)
        if lifted == "product":
            num, den = lift(num), lift(den)
        try:
            expected = reference_normal_form(num, den)
        except PoleAtOrigin:
            with pytest.raises(PoleAtOrigin):
                RationalGF(num, den)
            return
        g = RationalGF(num, den)
        assert (g.num, g.den) == expected

    @pytest.mark.parametrize(
        "num, den, form",
        [
            ((6,), (4,), ((3,), (2,))),
            ((6,), (-4, 2), ((-3,), (2, -1))),
            ((3, 6), (9,), ((1, 2), (3,))),
        ],
    )
    def test_constant_numerator_or_denominator(self, num, den, form):
        g = self._check(num, den, True)
        assert (g.num, g.den) == form


_HALF = 10**15  # the roots' numerators and denominators
_WIDE = 10**30  # the other coefficients: products stay near 60 digits


@st.composite
def short_sides(draw):
    """(case, a, parts): a polynomial a of at most 3 coefficients of each
    kind the closed form tells apart, and its factors over Q up to
    constants, with a linear factor q*t - p listed once per root p/q."""
    nonzero = st.integers(1, _HALF) | st.integers(-_HALF, -1)

    def line():  # q*t - p: a root p/q, 0 and +-1 included, or a large one
        return (-draw(st.integers(-_HALF, _HALF) | st.sampled_from([0, 1, -1])), draw(nonzero))

    case = draw(st.sampled_from(
        ["constant", "linear", "distinct roots", "double root", "D < 0", "D > 0"]
    ))
    if case == "constant":
        return case, (draw(nonzero),), []
    if case == "linear":
        l1 = line()
        return case, l1, [l1]
    if case in ("distinct roots", "double root"):
        l1 = line()
        l2 = l1 if case == "double root" else line()
        assume(case == "double root" or l1[0] * l2[1] != l2[0] * l1[1])
        return case, _mul(l1, l2), [l1, l2]
    a1, a2 = draw(st.integers(-_WIDE, _WIDE)), draw(st.integers(1, _WIDE))
    if case == "D < 0":  # a1^2 < 4*a0*a2
        a0 = a1 * a1 // (4 * a2) + draw(st.integers(1, _WIDE))
    else:  # a1^2 + 4*|a0|*a2, not a square
        a0 = -draw(st.integers(1, _WIDE))
        disc = a1 * a1 - 4 * a0 * a2
        assume(isqrt(disc) ** 2 != disc)
    a = (a0, a1, a2)
    return case, a, [a]


@st.composite
def short_pairs(draw):
    """(a, b): a from short_sides times a constant, and b of degree up to 30
    that holds all, some or none of a's factors, times a random cofactor
    (a random b of up to 60 digits when it holds none)."""
    case, a, parts = draw(short_sides())
    a = tuple(draw(st.sampled_from([1, -1, 2, 6, -35])) * c for c in a)
    held = draw(st.sets(st.sampled_from(range(len(parts))))) if parts else set()
    shared = (1,)
    for i in held:
        shared = _mul(shared, parts[i])
    top = _WIDE if held else 10**MAX_COEFFICIENT_DIGITS
    lead = draw(st.integers(1, top) | st.integers(-top, -1))
    cofactor = draw(st.lists(st.integers(-top, top), max_size=31 - len(shared))) + [lead]
    event(f"{case}, {len(held)} of {len(parts)} factors held")
    return a, _mul(shared, cofactor)


class TestClosedFormCoprime:
    """When the shorter side has at most 3 coefficients, _coprime decides
    coprimality exactly by a root or divisibility test, with no Euclid; the
    primitive gcd is the oracle."""

    @settings(deadline=None)
    @given(short_pairs())
    @example(((0, 3), (0, 5, 1)))  # a shared root 0
    @example(((1, -3, 2), (3, -2, -1)))  # the root 1 of (1 - t)(1 - 2t) in b
    @example(((1, -3, 2), (3, -5, -2)))  # its root 1/2 in b
    @example(((4, -12, 9), (2, -1, -3)))  # the double root 2/3, once in b
    @example(((1, 1, 1), (1, 2, 2, 1)))  # 1 + t + t^2 divides (1 + t)(1 + t + t^2)
    @example(((-1, 0, 2), (1, 0, -2, 5)))  # D = 8, not a square
    def test_matches_gcd(self, pair):
        a, b = pair
        coprime = len(cfinite._poly_gcd(a, b)) == 1
        assert cfinite._coprime(a, b) is coprime
        assert cfinite._coprime(b, a) is coprime

    @settings(deadline=None)
    @given(short_pairs(), st.booleans())
    def test_normal_form_matches_prs_alone(self, pair, short_den):
        num, den = pair[::-1] if short_den else pair
        assume(den[0] != 0)
        g = RationalGF(num, den)
        with patch.object(cfinite, "_coprime", lambda num, den: False):
            prs = RationalGF(num, den)
        assert (g.num, g.den) == (prs.num, prs.den)

    def test_each_branch_at_verify_caps(self):
        # one side of degree <= 2 with 60-digit coefficients, the other of
        # degree 30 with 60-digit ones: each branch is one Horner pass,
        # 0.06-0.18 ms on a shared 2-core Xeon; best of 5 within 1 ms
        rng = random.Random(38)
        big = 10**MAX_COEFFICIENT_DIGITS

        def digits():
            return rng.randrange(big // 10, big)

        b = tuple(rng.choice((1, -1)) * digits() for _ in range(MAX_VERIFY_ORDER + 1))
        l1, l2 = (rng.randrange(_WIDE), rng.randrange(1, _WIDE)), (rng.randrange(_WIDE), 1)
        sides = {
            "linear": (digits(), digits()),
            "distinct roots": _mul(l1, l2),
            "double root": _mul(l1, l1),
            "D < 0": (digits(), 3, digits()),
            "D > 0": (-digits(), 3, digits()),
        }
        for case, a in sides.items():
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                got = cfinite._coprime(a, b)
                best = min(best, time.perf_counter() - start)
            assert got is (len(cfinite._poly_gcd(a, b)) == 1), case
            assert best < 1e-3, (case, best)


_CAPPED_INT = st.integers(-(10**MAX_COEFFICIENT_DIGITS) + 1, 10**MAX_COEFFICIENT_DIGITS - 1)


class TestRationalGF:
    def test_normalization(self):
        g = RationalGF((2, 2), (2, -2))
        assert g.num == (1, 1) and g.den == (1, -1)

    def test_polynomial_gcd_reduced(self):
        # (1+t)(1-t) / (1-t) = 1+t
        g = RationalGF((1, 0, -1), (1, -1))
        assert g.num == (1, 1) and g.den == (1,)

    def test_pole_rejected(self):
        with pytest.raises(PoleAtOrigin):
            RationalGF((1,), (0, 1))

    @pytest.mark.parametrize("den", [(1,), (1, -3, 1), (-2, 5), (7,)])
    def test_zero_sequence_has_one_normal_form(self, den):
        # the zero numerator keeps no denominator, whatever it came with
        g = RationalGF((0,), den)
        assert g == RationalGF((), (1,)) and g.num == () and g.den == (1,)
        assert hash(g) == hash(RationalGF((0, 0), (1, -1)))

    def test_bool_coefficients_come_out_as_ints(self):
        g = RationalGF((True, False), (True, -1))
        assert (g.num, g.den) == ((1,), (1, -1))
        assert all(type(c) is int for c in g.num + g.den)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_read_gfs_coefficient_at_the_cap(self, sign):
        # the cap is a magnitude: 10^60 - 1 has 60 digits and 10^60 has 61
        cap = MAX_COEFFICIENT_DIGITS
        edge = sign * (10**cap - 1)
        assert read_gfs([([edge], [1, -1]), ([1], [1, edge])]) == [
            RationalGF((edge,), (1, -1)),
            RationalGF((1,), (1, edge)),
        ]
        for pair in (([sign * 10**cap], [1, -1]), ([1], [1, sign * 10**cap])):
            with pytest.raises(ValueError) as info:
                read_gfs([pair])
            assert str(info.value) == f"a coefficient has {cap + 1} digits, which exceeds the cap {cap}"

    @settings(max_examples=200, deadline=None)
    @given(
        num=st.lists(_CAPPED_INT, max_size=MAX_NUMERATOR_LENGTH),
        den=st.lists(_CAPPED_INT, min_size=1, max_size=MAX_VERIFY_ORDER + 1),
    )
    def test_json_round_trip(self, num, den):
        # a generating function within the caps comes back from its JSON
        assume(den[0] != 0)
        g = RationalGF(num, den)
        assume(all(len(str(abs(c))) <= MAX_COEFFICIENT_DIGITS for c in g.num + g.den))
        data = json.loads(json.dumps(g.to_json()))
        assert read_gfs([(data["num"], data["den"])]) == [g]


class TestTaylor:
    def test_geometric(self):
        assert taylor_coefficients(RationalGF((1,), (1, -1)), 5) == [1, 1, 1, 1, 1]

    def test_degree_three_denominator(self):
        g = RationalGF((1, 53, 9), (1, -82, -82, 1))
        assert taylor_coefficients(g, 3) == [1, 135, 11161]

    def test_rational_values(self):
        # 1/(2 - t) has coefficients 1/2^(n+1)
        g = RationalGF((1,), (2, -1))
        assert taylor_coefficients(g, 3) == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
        ]


class TestGuess:
    def test_order_two(self):
        assert joint_guess_recurrence([[0, 1, 9, 82, 747, 6805]], 3) == [9, 1]

    def test_constant(self):
        assert joint_guess_recurrence([[1, 1, 1, 1, 1, 1]], 2) == [1]

    def test_no_fit(self):
        # hand-check: order 1 forces e=2 then fails at 9; order 2 forces
        # 4 = 2 e1 + e2 and 9 = 4 e1 + 2 e2, but 9 != 2 * 4
        assert joint_guess_recurrence([[1, 2, 4, 9, 17, 35, 60]], 2) is None

    def test_margin_rule(self):
        # five terms are not enough for order 2 (2r+2 = 6)
        assert joint_guess_recurrence([[0, 1, 9, 82, 747]], 3) is None

    def test_minimality(self):
        rng = random.Random(3)
        for _ in range(40):
            r = rng.randint(1, 3)
            coeffs = [rng.randint(-3, 3) for _ in range(r)]
            coeffs[-1] = coeffs[-1] or 1
            seq = [rng.randint(-5, 5) for _ in range(r)]
            while len(seq) < 2 * 4 + 2:
                seq.append(sum(c * seq[-1 - i] for i, c in enumerate(coeffs)))
            guessed = joint_guess_recurrence([seq], 4)
            assert guessed is not None and len(guessed) <= r


class TestJointGuess:
    FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_pooled_margin(self):
        # order r needs r + 2 equations pooled over all the sequences
        assert joint_guess_recurrence([[1, 2], [3, 6]], 2) is None
        assert joint_guess_recurrence([[1, 2], [3, 6, 12]], 2) == [2]
        assert joint_guess_recurrence([[0, 1, 1, 2], [2, 3, 5]], 3) is None
        assert joint_guess_recurrence([[0, 1, 1, 2], [2, 3, 5, 8]], 3) == [1, 1]

    def test_shortest_sequence_limits_order(self):
        # a sequence with fewer than r terms stops the search at order r,
        # even when the others alone give enough equations
        assert joint_guess_recurrence([[5], self.FIB], 3) is None
        assert joint_guess_recurrence([[5, 8], self.FIB], 3) == [1, 1]


class TestSeqFromTerms:
    def test_recurrence_reconstruction(self):
        g = seq_from_terms([0, 1, 9, 82, 747], 3)
        assert g == RationalGF((0, 1), (1, -9, -1))

    def test_constant_sequence(self):
        assert seq_from_terms([1, 1, 1, 1], 2) == RationalGF((1,), (1, -1))

    def test_margin_rule(self):
        # four terms are not enough for order 2 (2r+1 = 5); five are, see
        # test_recurrence_reconstruction
        with pytest.raises(GuessFailed):
            seq_from_terms([0, 1, 9, 82], 3)

    def test_insufficient_data(self):
        with pytest.raises(GuessFailed):
            seq_from_terms([1], 3)

    def test_non_integer_recurrence(self):
        # s(n+1) = (3/2) s(n) on integers: 4, 6, 9 ... stays integral long
        # enough to guess but reconstructs a non-integer denominator
        seq = [4 * 3**i * 2 ** (6 - i) for i in range(7)]
        with pytest.raises(NonIntegralGF):
            seq_from_terms(seq, 1)

    def test_round_trip_random(self):
        rng = random.Random(29)
        done = 0
        while done < 100:
            den = (1,) + tuple(rng.randint(-9, 9) for _ in range(4))
            num = tuple(rng.randint(-9, 9) for _ in range(4))
            if not any(num):
                continue
            g = RationalGF(num, den)
            terms = taylor_coefficients(g, 2 * 4 + 4)
            rebuilt = seq_from_terms(terms, 4)
            assert taylor_coefficients(rebuilt, 30) == taylor_coefficients(g, 30)
            done += 1


class TestGfFromDen:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.lists(st.integers(-50, 50), max_size=8),
        st.data(),
    )
    def test_matches_gf_from_recurrence(self, coeffs, extra, data):
        # the generating function of s(n) = e1 s(n-1) + ... + er s(n-r) with
        # the given first r terms: those come back unchanged, the rest follow
        # the recurrence, and terms past the first r are not read
        r = len(coeffs)
        terms = data.draw(st.lists(st.integers(-50, 50), min_size=r, max_size=r)) + extra
        den = (1,) + tuple(-e for e in coeffs)
        series = taylor_coefficients(cfinite.gf_from_den(terms, den), r + 6)
        assert series[:r] == terms[:r]
        for n in range(r, r + 6):
            assert series[n] == sum(e * series[n - i] for i, e in enumerate(coeffs, 1))

    def test_needs_deg_den_terms(self):
        assert cfinite.gf_from_den([1, 3], (1, -6, 1)) == RationalGF((1, -3), (1, -6, 1))
        with pytest.raises(ValueError):
            cfinite.gf_from_den([1], (1, -6, 1))


@st.composite
def checked_expressions(draw):
    """(expr, seqs): one to three sequences X1.. (den[0] in +-1, 2, -3, so
    some take Fraction values) and an expression in them and SIGN_SYMBOL,
    at exponents 0..3, of one of four shapes.  "identity" is P(X1, ..) -
    sgn^2 P(Y, ..) with Y bound to X1's sequence: zero for every n, so the
    whole depth is checked, though it is not the zero polynomial.  "mutated"
    binds Y to X1's sequence with one numerator coefficient moved, so the
    identity fails from some index on; "free" is P alone; "zero" is the
    zero polynomial."""
    k = draw(st.integers(1, 3))
    names = ("X1", "X2", "X3")[:k]
    gfs = [
        RationalGF(draw(st.lists(small, max_size=3)),
                   [draw(st.sampled_from([1, -1, 2, -3]))] + draw(st.lists(small, max_size=2)))
        for _ in names
    ]
    seqs = dict(zip(names, gfs))
    variables = names + (SIGN_SYMBOL,)
    exponents = st.tuples(*[st.integers(0, 2)] * k, st.integers(0, 3)).filter(
        lambda ev: sum(ev[:-1]) <= 3
    )
    terms = draw(st.dictionaries(exponents, small, max_size=4))
    shape = draw(st.sampled_from(["identity", "mutated", "free", "zero"]))
    if shape == "zero":
        return MultiPoly(variables, {}), seqs
    if shape == "free":
        return MultiPoly(variables, terms), seqs
    # X1 takes part, so that a mutation of Y shows
    terms[(1,) + (0,) * k] = terms.get((1,) + (0,) * k, 0) + draw(nonzero_small)
    num = list(gfs[0].num) + [0] * draw(st.integers(0, 3))
    if shape == "mutated" and num:
        num[draw(st.integers(0, len(num) - 1))] += draw(nonzero_small)
    seqs["Y"] = RationalGF(num, gfs[0].den)
    # (-1)^(2n) = 1: Y's terms carry SIGN_SYMBOL two powers higher
    shifted = {ev[:-1] + (ev[-1] + 2,): c for ev, c in terms.items()}
    return MultiPoly(variables, terms) - MultiPoly(("Y",) + variables[1:], shifted), seqs


class TestCertifyZero:
    @settings(deadline=None)
    @given(checked_expressions())
    def test_compiled_check_matches_reference(self, case):
        # the term plan against the per-n env and MultiPoly.evaluate it
        # replaced: the same depth and the same first witness
        expr, seqs = case
        cert = certify_zero(expr, seqs)
        assert cert == reference_certify_zero(expr, seqs)
        event("certified" if cert.certified else f"witness {'0' if not cert.witness else '> 0'}")
        event("Fraction values" if any(abs(g.den[0]) > 1 for g in seqs.values()) else "integers")

    def test_alternating_cubic_identity(self, alternating_triple):
        gf_a, gf_b, gf_c = alternating_triple
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3 - var(SIGN_SYMBOL)
        cert = certify_zero(expr, {"A": gf_a, "B": gf_b, "C": gf_c})
        assert cert.certified
        # r = 3: C(5, 3) for the cubes and 1 for the sign term
        assert cert.bound == 11

    def test_identically_zero(self, alternating_triple):
        expr = var("A") - var("A")
        cert = certify_zero(expr, {"A": alternating_triple[0]})
        assert cert.certified

    def test_zero_sequence_checks_depth_zero(self):
        # X = 0/(1 - 3t + t^2) is the zero sequence: r = 0 and s = 0, so
        # X^3 needs no index (C(2, 3) = 0), where its old denominator gave 4
        x = var("X")
        seqs = {"X": RationalGF((0,), (1, -3, 1))}
        assert certify_zero(x**3, seqs) == Certificate(bound=0)
        assert certify_zero(x**3 - 1, seqs) == Certificate(bound=1, witness=0)

    def test_no_terms(self, alternating_triple):
        # an empty support uses no sequence: nothing is left to check
        for seqs in ({}, {"A": alternating_triple[0]}):
            assert certify_zero(MultiPoly.constant(0), seqs) == Certificate(bound=0)

    def test_even_sign_power(self):
        # sgn^2 = 1 for every n: the pair (0, 0), one index, and no
        # sequence, so r = 0 takes the d = 0 count rather than C(-1, 0)
        assert certify_zero(var(SIGN_SYMBOL) ** 2 - 1, {}) == Certificate(bound=1)
        # sgn^3 is sgn, the pair (0, 1): sgn^3 - 1 needs both indices
        assert certify_zero(var(SIGN_SYMBOL) ** 3 - 1, {}) == Certificate(bound=2, witness=1)
        assert certify_zero(var(SIGN_SYMBOL) ** 3 - var(SIGN_SYMBOL), {}) == Certificate(bound=1)

    def test_finite_sequences(self):
        # r = 0: X = 2 + 3t and Y = 2 vanish from their preperiods 2 and 1
        # on, so only s = 2 and the d = 0 pair count, as C(d-1, d) = 0 for
        # d >= 1
        seqs = {"X": RationalGF((2, 3), (1,)), "Y": RationalGF((2,), (1,))}
        x, y = var("X"), var("Y")
        assert certify_zero((x - 2) * y, seqs) == Certificate(bound=2)
        assert certify_zero(x * y - 2 * x, seqs) == Certificate(bound=2, witness=1)
        # zero at n = 0, 1 and -12 from n = 2 on: refuted at the last index
        assert certify_zero(x * y + 4 * x - 12, seqs) == Certificate(bound=3, witness=2)

    def test_unused_sequence_leaves_the_depth(self, alternating_triple):
        # a bound but unused sequence adds neither to r nor to s
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3 - var(SIGN_SYMBOL)
        seqs = dict(zip("ABC", alternating_triple))
        wide = dict(seqs, Z=RationalGF((0,) * 20 + (1,), (1, -1, -1, 1, 5, 7)))
        assert certify_zero(expr, wide) == certify_zero(expr, seqs) == Certificate(bound=11)

    def test_missing_sign_refuted(self, alternating_triple):
        gf_a, gf_b, gf_c = alternating_triple
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3
        cert = certify_zero(expr, {"A": gf_a, "B": gf_b, "C": gf_c})
        assert not cert.certified
        assert cert.witness == 0

    def test_sign_symbol_only_linear(self):
        # The sign symbol was once allowed only in one linear term, because
        # the depth did not cover (-1)^n times products; it now counts each
        # (degree, sign parity) pair.  With m = 2^n,
        # (s - 1)(m - 2)(m - 8)(m - 32) vanishes at n = 0..6: s - 1 is zero at
        # even n and m hits a root at n = 1, 3, 5.  Its support is every
        # (d, p) with d <= 3, eight pairs of C(d, d) = 1 each at r = 1, so the
        # depth is 8 and n = 7 is the last index checked
        m, s = var("m"), var(SIGN_SYMBOL)
        expr = (s - 1) * (m - 2) * (m - 8) * (m - 32)
        assert expr.evaluate({"m": 2**7, SIGN_SYMBOL: -1}) == -2903040
        cert = certify_zero(expr, {"m": RationalGF((1,), (1, -2))})
        assert cert == Certificate(bound=8, witness=7)

    def test_sign_symbol_cannot_be_bound(self):
        # SIGN_SYMBOL always means (-1)^n: bound to the all-ones sequence it
        # would make the false sgn - 1 = 0 look true
        with pytest.raises(ValueError):
            certify_zero(var(SIGN_SYMBOL) - 1, {SIGN_SYMBOL: RationalGF((1,), (1, -1))})

    def test_improper_gf_refuted(self):
        # x^50/1 is 1 at n = 50 only; its recurrence (order 0) holds from
        # the preperiod s = 51 on, so the depth is 51 + C(0, 1) = 51 and the
        # witness is the last index checked
        cert = certify_zero(var("X"), {"X": RationalGF((0,) * 50 + (1,), (1,))})
        assert cert.bound == 51
        assert cert.witness == 50

    def test_preperiod_at_the_bound(self):
        # a(n) = 1 for n <= s and 2^(n-s) after: num = 1 - t - ... - t^s over
        # 1 - 2t, preperiod s.  X - 1 is zero at n = 0..s and first nonzero at
        # n = s + 1, the last index checked: the depth is s + C(1, 1) + 1
        # (r = 1, one pair of degree 1 and one of degree 0), and without s
        # it would be 2
        s = 10
        g = RationalGF((1,) + (-1,) * s, (1, -2))
        assert taylor_coefficients(g, s + 3) == [1] * (s + 1) + [2, 4]
        cert = certify_zero(var("X") - 1, {"X": g})
        assert cert.bound == s + 2
        assert cert.witness == s + 1

    def test_refutation_stops_at_the_witness(self):
        # 1/(1-t)^10 is C(n+9, 9): X^2 - 55 first fails at n = 0, depth
        # C(10+1, 2) + 1.  Every term after a(0) = 1 takes a product of a
        # recurrence weight, den_i up to sign, and an earlier nonzero term;
        # a(1) takes exactly one, w_1 * a(0).  The weights count such
        # products, so none means that a(0) was the only term computed.
        products = []

        class Weight(int):
            def __neg__(self):
                return Weight(-int(self))

            def __mul__(self, other):
                if self and other:
                    products.append(other)
                return int(self) * other

            __rmul__ = __mul__

        den = (1, -10, 45, -120, 210, -252, 210, -120, 45, -10, 1)
        g = RationalGF((1,), den)
        object.__setattr__(g, "den", tuple(map(Weight, den)))
        cert = certify_zero(var("X") ** 2 - 55, {"X": g})
        assert (cert.bound, cert.witness) == (56, 0)
        assert products == []
        # the count sees the weights: X - 1 first fails at a(1) = 10
        assert certify_zero(var("X") - 1, {"X": g}) == Certificate(bound=11, witness=1)
        assert products == [1]

    def test_unbound_symbol(self, alternating_triple):
        with pytest.raises(UnboundSymbol):
            certify_zero(var("A") + var("Q"), {"A": alternating_triple[0]})

    def test_soundness_beyond_bound(self, alternating_triple):
        gf_a, gf_b, gf_c = alternating_triple
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3 - var(SIGN_SYMBOL)
        cert = certify_zero(expr, {"A": gf_a, "B": gf_b, "C": gf_c})
        assert cert.certified
        rng = random.Random(59)
        depth = 40 * cert.bound
        seq_a = taylor_coefficients(gf_a, depth)
        seq_b = taylor_coefficients(gf_b, depth)
        seq_c = taylor_coefficients(gf_c, depth)
        for _ in range(10):
            n = rng.randint(cert.bound, depth - 1)
            assert seq_a[n] ** 3 + seq_b[n] ** 3 - seq_c[n] ** 3 == (-1) ** n
