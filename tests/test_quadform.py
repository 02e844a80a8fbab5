import contextlib
import itertools
import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import gcd, isqrt
from unittest.mock import patch

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import cubeforge.quadform as quadform
from cubeforge import (
    Certificate,
    QuadForm,
    RationalGF,
    enumerate_solutions,
    general_quadform,
    pell_special,
    sol_quad,
    taylor_coefficients,
)
from cubeforge.cfinite import certify_zero, gf_from_den, joint_guess_recurrence, rhs_poly
from cubeforge.cli import MAX_TARGET_CAP
from cubeforge.cubic import morph, search_quadruples
from cubeforge.errors import (
    DefiniteForm,
    DegenerateInitialVectors,
    InvalidForm,
    NoOrbitFound,
    ZeroB,
)
from cubeforge.parsing import parse_poly
from cubeforge.quadform import PellConstruction, PellOrbit, _orbit_from_solutions, _value_pattern

# the weight pairs of the forge workloads of perfbench/run.py
FORGE_WEIGHTS = [(1, -1), (1, 1), (1, 3), (1, -3), (1, 2), (2, 1), (1, -2), (2, -1)]


def reference_enumerate_solutions(form, targets, bound):
    """The windowed scan over m that the library used before reduction
    theory: with D = qb^2 - 4*qa*qc and t = 2*qc*n + qb*m,
    4*qc*Q(m, n) = t^2 - D*m^2, so |Q| <= cap confines t to two windows per m
    found by two isqrt calls; when qc = 0, |qa*m + qb*n| <= cap // m.  Its
    cost is O(bound + cap*log(bound)) whatever the targets."""
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


def naive_enumerate(form, targets, bound):
    out = []
    for m in range(1, bound + 1):
        for n in range(0, bound + 1):
            v = form.value(m, n)
            if v in targets:
                out.append((m, n, v))
    return out


def reference_sol_quad(form, bound, target_cap, enumerator=None):
    """The per-magnitude search: one enumeration per target magnitude
    (reference_enumerate_solutions unless another is given), no shortcut for
    one-variable forms, and every ladder candidate tried."""
    enumerator = enumerator or reference_enumerate_solutions
    if form.discriminant < 0:
        raise DefiniteForm(f"{form} is definite")
    for mag in range(1, target_cap + 1):
        sols = enumerator(form, {mag, -mag}, bound)
        if len(sols) < 3:
            continue
        ladder = [
            sols,
            sols[0::2],
            sols[1::2],
            [s for s in sols if s[2] > 0],
            [s for s in sols if s[2] < 0],
        ]
        seen = []
        candidates = []
        for cand in ladder:
            if cand in seen:
                continue
            seen.append(cand)
            orbit = _orbit_from_solutions(form, cand)
            if orbit is not None:
                candidates.append(orbit)
        if candidates:
            constant = [o for o in candidates if o.kind == "constant"]
            return constant[0] if constant else candidates[0]
    raise NoOrbitFound(f"no certified orbit for {form}")


def reference_orbit_from_solutions(form, sols):
    """The guessed orbit: one recurrence of order <= 4, the largest the
    read-off builds, fitted to both coordinate sequences by
    joint_guess_recurrence, then the same orbit from the first points,
    denominator check and certificate as _orbit_from_solutions."""
    if len(sols) < 3:
        return None
    pattern = _value_pattern([v for _, _, v in sols])
    if pattern is None:
        return None
    kind, target = pattern
    mseq = [m for m, _, _ in sols]
    nseq = [n for _, n, _ in sols]
    coeffs = joint_guess_recurrence([mseq, nseq], 4)
    if coeffs is None:
        return None
    if any(e.denominator != 1 for e in coeffs):
        return None
    den = (1,) + tuple(-int(e) for e in coeffs)
    start = tuple(zip(mseq, nseq))[: len(den) - 1]
    orbit = PellOrbit(form=form, den=den, start=start, target=target, kind=kind)
    assert (orbit.gf_m, orbit.gf_n) == (gf_from_den(mseq, den), gf_from_den(nseq, den))
    if orbit.gf_m.den != orbit.gf_n.den:
        return None
    expr = form.to_poly() - rhs_poly(target, kind)
    cert = certify_zero(expr, {"m": orbit.gf_m, "n": orbit.gf_n})
    if not cert.certified:
        return None
    assert orbit.certificate == cert
    return orbit


def reference_has_unit(table, top, norm_one=False):
    """_DiscTable.has_unit as a two-norm scan: every trace builds the pair
    of norm -1 and norm +1 candidates and tests each that is positive; a
    later pass overwrites an earlier one.  It keeps its state on the table
    it is given."""
    while table._least_unit is None and table._traced < top:
        table._traced = t = table._traced + 1
        for norm, w in ((-1, (t * t + 4) * table.disc), (1, (t * t - 4) * table.disc)):
            if w > 0 and isqrt(w) ** 2 == w:
                table._least_unit = (t, norm)
    if table._least_unit is None:
        return False
    t, norm = table._least_unit
    if norm_one and norm == -1:
        t = t * t + 2
    return t <= top


def _orbit_checks(form, bound, target_cap, tables=None):
    """The outcome of sol_quad on the form and, for every certify_zero call
    it made, the expression, its reference form.to_poly() - rhs_poly(c,
    kind) and both certificates.  c and kind are read off the sequences:
    the first value is c, and the second is c for a constant orbit and -c
    for an alternating one."""
    calls = []

    def recording(expr, seqs):
        cert = certify_zero(expr, seqs)
        calls.append((expr, seqs, cert))
        return cert

    with patch.object(quadform, "certify_zero", recording):
        got = _outcome(partial(sol_quad, _tables=tables), form, bound, target_cap)
    checks = []
    for expr, seqs, cert in calls:
        (m0, m1), (n0, n1) = (taylor_coefficients(seqs[v], 2) for v in "mn")
        c, second = form.value(m0, n0), form.value(m1, n1)
        kind = "constant" if second == c else "alternating"
        reference = form.to_poly() - rhs_poly(c, kind)
        checks.append((kind, expr, reference, cert, certify_zero(reference, seqs)))
    return got, checks


def _outcome(search, form, bound, target_cap):
    try:
        return search(form, bound=bound, target_cap=target_cap).to_json()
    except (DefiniteForm, NoOrbitFound) as exc:
        return type(exc)


class TestQuadForm:
    def test_from_poly(self):
        f = QuadForm.from_poly(parse_poly("m^2 - 9*m*n - n^2", ("m", "n")))
        assert (f.qa, f.qb, f.qc) == (1, -9, -1)

    def test_from_poly_rejects_inhomogeneous(self):
        with pytest.raises(InvalidForm):
            QuadForm.from_poly(parse_poly("m^2 + 1", ("m", "n")))

    def test_from_poly_reads_variables_by_name(self):
        # exponents follow the names m and n, not the positions of the
        # polynomial's variables
        f = QuadForm.from_poly(parse_poly("n^2 - 2*m^2", ("n", "m")))
        assert (f.qa, f.qb, f.qc) == (-2, 0, 1)

    def test_from_poly_rejects_other_variables(self):
        with pytest.raises(InvalidForm):
            QuadForm.from_poly(parse_poly("x^2 + 3*x*y", ("x", "y")))

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidForm):
            QuadForm(0, 0, 0)

    def test_discriminant(self):
        assert QuadForm(-1, 9, 1).discriminant == 85

    @pytest.mark.parametrize(
        "coeffs", [(1.0, 0, -2), (True, 0, -2), (1, False, -2), (1, 0, Fraction(-2)), (1, 0, "-2")]
    )
    def test_coefficient_not_an_int_rejected(self, coeffs):
        # a float would reach gcd, and True would be solved as 1
        with pytest.raises(InvalidForm, match="not an integer"):
            QuadForm(*coeffs)


class TestPellOrbit:
    """A PellOrbit's generating functions are gf_from_den of its first
    points over its denominator, and its certificate is certify_zero on
    Q(m, n) - e*(+-1)^n over its own sequences; none is an argument."""

    PELL = (QuadForm(1, 0, -2), (1, -6, 1), ((1, 0), (3, 2)))

    def test_certificate_argument_rejected(self):
        with pytest.raises(TypeError):
            PellOrbit(*self.PELL, 1, "constant", certificate=Certificate(bound=4))

    def test_generating_function_argument_rejected(self):
        with pytest.raises(TypeError):
            PellOrbit(*self.PELL, 1, "constant", gf_m=RationalGF((1, -3), (1, -6, 1)))

    def test_true_orbit_certified(self):
        orbit = PellOrbit(*self.PELL, 1, "constant")
        assert orbit.certificate == Certificate(bound=4)
        assert (orbit.gf_m, orbit.gf_n) == (
            RationalGF((1, -3), (1, -6, 1)),
            RationalGF((0, 2), (1, -6, 1)),
        )
        assert orbit == sol_quad(QuadForm(1, 0, -2))
        assert "form" not in orbit.to_json()

    @pytest.mark.parametrize("kind", ["Alternating", "Constant", "none", ""])
    def test_unknown_kind_rejected(self, kind):
        # certify_zero would check a constant right side for it, and to_json
        # would print the kind as given
        with pytest.raises(ValueError, match="bad kind"):
            PellOrbit(*self.PELL, 1, kind)

    @pytest.mark.parametrize("start", [((1, 0),), ((1, 0), (3, 2), (17, 12))])
    def test_start_of_another_length_rejected(self, start):
        # a third point would be ignored, not checked against the denominator
        with pytest.raises(ValueError, match="start points"):
            PellOrbit(QuadForm(1, 0, -2), (1, -6, 1), start, 1, "constant")

    def test_one_variable_orbit(self):
        # m = 1, n = i: m^2 = 1 along an orbit whose m reduces below the
        # denominator (1 - z)^2 that n needs
        orbit = PellOrbit(QuadForm(1, 0, 0), (1, -2, 1), ((1, 0), (1, 1)), 1, "constant")
        assert orbit.gf_m == RationalGF((1,), (1, -1))
        assert orbit.gf_n == RationalGF((0, 1), (1, -2, 1))
        assert orbit.certificate == Certificate(bound=2)
        assert orbit.pairs(4) == [(1, 0), (1, 1), (1, 2), (1, 3)]

    @pytest.mark.parametrize("target, kind", [(2, "constant"), (1, "alternating"), (-1, "constant")])
    def test_wrong_target_carries_a_witness(self, target, kind):
        # m^2 - 2n^2 is 1 at every point, so any other right side fails at
        # n = 0 (value 1) or n = 1 (the sign of an alternating target)
        orbit = PellOrbit(*self.PELL, target, kind)
        assert not orbit.certificate.certified
        assert orbit.certificate.witness == (1 if target == 1 else 0)
        assert orbit.to_json()["certified_depth"] == orbit.certificate.bound


class TestEnumerate:
    def test_pell_units(self):
        sols = enumerate_solutions(QuadForm(1, 0, -2), {1}, 100)
        assert sols == [(1, 0, 1), (3, 2, 1), (17, 12, 1), (99, 70, 1)]

    def test_alternating_units(self):
        sols = enumerate_solutions(QuadForm(-1, 9, 1), {1, -1}, 100)
        assert sols == [(1, 0, -1), (9, 1, 1), (82, 9, -1)]

    def test_unrepresentable(self):
        assert enumerate_solutions(QuadForm(1, 0, 1), {3}, 50) == []

    @pytest.mark.parametrize("targets", [{1.5}, {True}, [1, 1.0]])
    def test_non_int_targets_rejected(self, targets):
        # read as 1, each would list the solutions of Q = 1 under another value
        with pytest.raises(ValueError, match="targets must be ints"):
            enumerate_solutions(QuadForm(1, 0, -2), targets, 20)

    @pytest.mark.parametrize("bound", [20.5, True])
    def test_non_int_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be an int"):
            enumerate_solutions(QuadForm(1, 0, 1), {1}, bound)

    def test_matches_naive_oracle(self):
        rng = random.Random(61)
        forms = [
            QuadForm(1, 0, -2),
            QuadForm(-1, 9, 1),
            QuadForm(2, 1, -1),
            QuadForm(1, -9, -1),
            QuadForm(0, 3, -2),
            QuadForm(5, 0, 0),
        ]
        for _ in range(10):
            forms.append(
                QuadForm(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4) or 1)
            )
        for form in forms:
            targets = {rng.randint(-20, 20) for _ in range(4)}
            for bound in (37, 200):
                assert enumerate_solutions(form, targets, bound) == naive_enumerate(
                    form, targets, bound
                )

    def test_window_sweep_matches_naive_oracle(self):
        rng = random.Random(73)
        forms = [
            QuadForm(0, 5, 0),  # qc = 0
            QuadForm(3, -2, 0),
            QuadForm(-4, 0, 0),  # qb = qc = 0
            QuadForm(0, 0, 6),  # D = 0, one variable
            QuadForm(1, -2, 1),  # D = 0, (m - n)^2
            QuadForm(4, 4, 1),
            QuadForm(2, 1, -1),  # square D = 9
            QuadForm(1, 0, -4),  # square D = 16
            QuadForm(3, 1, 2),  # D < 0
            QuadForm(1, 0, -2),
        ]
        while len(forms) < 300:
            coeffs = [rng.randint(-6, 6) for _ in range(3)]
            if any(coeffs):
                forms.append(QuadForm(*coeffs))
        kinds = set()
        for i, form in enumerate(forms):
            d = form.discriminant
            if form.qc == 0:
                kinds.add("qb=qc=0" if form.qb == 0 else "qc=0")
            elif d <= 0:
                kinds.add("D<0" if d else "D=0")
            else:
                kinds.add("square D>0" if isqrt(d) ** 2 == d else "D>0")
            targets = {rng.randint(-40, 40) for _ in range(rng.randint(1, 6))}
            targets.add((40, -40, 0)[i % 3])
            bound = (1, 2, 13, 40)[i % 4]
            assert enumerate_solutions(form, targets, bound) == naive_enumerate(
                form, targets, bound
            ), (form, targets, bound)
        assert kinds == {"qc=0", "qb=qc=0", "D=0", "D<0", "square D>0", "D>0"}
        # |Q| = max |target| on the window's edge: t = 0 with D*m^2 = -4|qc|*cap
        assert enumerate_solutions(QuadForm(1, 0, 1), {4}, 5) == [(2, 0, 4)]


FORM_CLASSES = ("D<0", "D'=-3", "D'=-4", "D=0", "square D>0", "D>0", "qa=0", "qc=0", "one-sign")
DEFINITE_CLASSES = ("D<0", "D'=-3", "D'=-4")


@st.composite
def forms_of_every_class(draw, classes=FORM_CLASSES):
    """A form of one of the classes the enumerator treats apart, times a
    random content and sign."""
    kind = draw(st.sampled_from(classes))
    small = st.integers(-6, 6)
    if kind == "D<0":
        a, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        w = isqrt(4 * a * c - 1)
        coeffs = (a, draw(st.integers(-w, w)), c)
    elif kind in ("D'=-3", "D'=-4"):
        # the classes of x^2 + xy + y^2 and x^2 + y^2, moved by SL2(Z)
        a, b, c = (1, 1, 1) if kind == "D'=-3" else (1, 0, 1)
        for j in draw(st.lists(st.integers(-3, 3), max_size=4)):
            # f∘[[0, -1], [1, j]]
            a, b, c = c, -b + 2 * c * j, a - b * j + c * j * j
        coeffs = (a, b, c)
    elif kind == "D=0":
        r, s = draw(small), draw(small)
        coeffs = (r * r, 2 * r * s, s * s)
    elif kind == "square D>0":
        r1, s1, r2, s2 = (draw(small) for _ in range(4))
        assume(r1 * s2 != r2 * s1)
        coeffs = (r1 * r2, r1 * s2 + r2 * s1, s1 * s2)
    elif kind == "D>0":
        coeffs = tuple(draw(small) for _ in range(3))
        d = coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2]
        assume(d > 0 and isqrt(d) ** 2 != d)
    elif kind == "one-sign":
        # qa > 0, qb >= 0, qc >= 0 and D >= 0; the sign comes with k
        a, c = draw(st.integers(1, 7)), draw(st.integers(0, 11))
        b = draw(st.integers(isqrt(4 * a * c - 1) + 1 if c else 0, 24))
        coeffs = (a, b, c)
    elif kind == "qa=0":
        coeffs = (0, draw(small), draw(small))
    else:
        coeffs = (draw(small), draw(small), 0)
    assume(any(coeffs))
    k = draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
    return QuadForm(*(k * x for x in coeffs))


@st.composite
def pell_forms(draw):
    """m^2 - d*n^2 or m^2 + m*n - d*n^2 for d in 2..40, moved by up to two
    SL2(Z) steps, times a random content and sign: forms that often carry
    an orbit of either kind in the box."""
    d = draw(st.integers(2, 40))
    a, b, c = (1, draw(st.integers(0, 1)), -d)
    assume(isqrt(b * b + 4 * d) ** 2 != b * b + 4 * d)
    for j in draw(st.lists(st.integers(-2, 2), max_size=2)):
        # f∘[[0, -1], [1, j]]
        a, b, c = c, -b + 2 * c * j, a - b * j + c * j * j
    k = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
    return QuadForm(k * a, k * b, k * c)


def _content(form):
    return gcd(gcd(form.qa, form.qb), form.qc)


def _fundamental_u(disc):
    """u of the fundamental solution of t^2 - disc*u^2 = 4: the first
    convergent h/k of the continued fraction of w = (b + sqrt(disc))/2,
    b = disc mod 2, with (2h - b*k)^2 - disc*k^2 = 4, u = k."""
    b, root = disc % 2, isqrt(disc)
    p, q = b, 2  # the complete quotient (p + sqrt(disc))/q
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = (p + root) // q
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        if (2 * h1 - b * k1) ** 2 - disc * k1 * k1 == 4:
            return k1
        p = a * q - p
        q = (disc - p * p) // q


def _forge_forms():
    """Every form forge meets on the benchmark weight pairs."""
    forms = set()
    for a, b in FORGE_WEIGHTS:
        for seed in search_quadruples(a, b, 12):
            forms.update(morph(seed).polys)
    return sorted(forms, key=lambda f: (f.qa, f.qb, f.qc))


def _golden_forms():
    """Every form forge meets on the 60 weight pairs of tests/test_golden.py."""
    forms = set()
    for a, b in itertools.product(range(1, 6), range(-6, 7)):
        if b:
            for seed in search_quadruples(a, b, 12):
                forms.update(morph(seed).polys)
    return sorted(forms, key=lambda f: (f.qa, f.qb, f.qc))


def _sweep_data(form, tables):
    """The sweep data sol_quad builds for the form, with no unit or slope
    test before it: the classes over the _DiscTable of D' in ``tables`` for
    a "pell" form, the linear factor for a "line" form, and None for the
    kinds sol_quad never sweeps."""
    kind, k, f, disc = quadform._slot_kind(form)
    if kind == "pell":
        return quadform._Classes(f, k, quadform._table(tables, disc))
    if kind == "line":
        return quadform._Factored(f, k)
    return None


_SWEEP_DATA = {"pell": quadform._Classes, "line": quadform._Factored}


class TestSlotKind:
    """_slot_kind names the kind of a form with its content, primitive
    part and primitive discriminant, and the sweep data of a "pell" or
    "line" form build from them."""

    @settings(deadline=None)
    @given(
        # random coefficients rarely have a square discriminant, products
        # of two linear forms always do, and equal or axis factors give D = 0
        st.one_of(
            st.tuples(*[st.integers(-40, 40)] * 3),
            st.tuples(*[st.integers(-4, 4)] * 4).map(
                lambda v: (v[0] * v[2], v[0] * v[3] + v[1] * v[2], v[1] * v[3])
            ),
        ),
        st.integers(1, 12),
    )
    @example((1, 0, -2), 12)
    @example((0, 3, 0), 5)
    def test_slot_kind_matches_oracle(self, coeffs, content):
        assume(any(coeffs))
        form = QuadForm(*(content * x for x in coeffs))
        values = (form.qa, form.qb, form.qc)
        # the content by brute force, the largest d that divides all three,
        # and squareness by a search for a root, on D itself: D = k^2 D'
        k = max(d for d in range(1, 40 * 12 + 1) if all(x % d == 0 for x in values))
        d = form.discriminant
        if d < 0:
            kind = "definite"
        elif d == 0:
            kind = "line" if form.qb else "one-variable"
        elif any(r * r == d for r in range(d + 1)):
            kind = "square-disc"
        else:
            kind = "pell"
        f = tuple(x // k for x in values)
        assert quadform._slot_kind(form) == (kind, k, f, d // (k * k))
        data = _sweep_data(form, {})
        assert type(data) is _SWEEP_DATA.get(kind, type(None))
        if kind == "line":
            # Q = scale * (r*m + s*n)^2 with gcd(r, s) = 1
            r, s, scale = data.r, data.s, data.scale
            assert (scale * r * r, 2 * scale * r * s, scale * s * s) == values
            assert gcd(r, s) == 1
        event(kind)

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ((1, 0, 1), ("definite", 1, (1, 0, 1), -4)),
            ((1, 0, -2), ("pell", 1, (1, 0, -2), 8)),
            ((2, 5, 2), ("square-disc", 1, (2, 5, 2), 9)),
            ((1, -2, 1), ("line", 1, (1, -2, 1), 0)),
            ((3, 0, 0), ("one-variable", 3, (1, 0, 0), 0)),
            ((0, 0, -1), ("one-variable", 1, (0, 0, -1), 0)),
        ],
    )
    def test_one_form_per_kind(self, coeffs, expected):
        form = QuadForm(*coeffs)
        assert quadform._slot_kind(form) == expected
        assert type(_sweep_data(form, {})) is _SWEEP_DATA.get(expected[0], type(None))


class TestReductionTheory:
    @settings(max_examples=400, deadline=None)
    @given(
        forms_of_every_class(),
        st.lists(st.integers(-80, 80), min_size=1, max_size=6),
        st.booleans(),
        st.integers(1, 300),
    )
    def test_matches_reference_scan(self, form, targets, with_zero, bound):
        if with_zero:
            targets.append(0)
        assert enumerate_solutions(form, targets, bound) == reference_enumerate_solutions(
            form, targets, bound
        )

    @settings(max_examples=200, deadline=None)
    @given(forms_of_every_class(DEFINITE_CLASSES), st.integers(1, 300), st.data())
    def test_definite_large_targets_match_reference_scan(self, form, bound, data):
        # values at points of the box, up to (|qa| + |qb| + |qc|) * bound^2;
        # their negatives are not represented, as the form is definite
        box = st.tuples(st.integers(1, bound), st.integers(0, bound))
        values = [form.value(m, n) for m, n in data.draw(st.lists(box, min_size=1, max_size=4))]
        targets = values + [-v for v in values] + [v + 1 for v in values]
        got = enumerate_solutions(form, targets, bound)
        assert got == reference_enumerate_solutions(form, targets, bound)
        assert {v for _, _, v in got} >= set(values)
        assert not {v for _, _, v in got} & {-v for v in values}

    def test_forge_forms_match_reference_scan(self):
        targets = [e for mag in range(1, 31) for e in (mag, -mag)]
        forms = _forge_forms()
        for form in forms:
            assert enumerate_solutions(form, targets, 2000) == reference_enumerate_solutions(
                form, targets, 2000
            ), form
        huge_units = {
            d for d in {form.discriminant // _content(form) ** 2 for form in forms}
            if d > 0 and isqrt(d) ** 2 != d and _fundamental_u(d) > 2 * 10**5
        }
        assert len(forms) > 200 and len(huge_units) >= 4

    @pytest.mark.parametrize("target", [999983, 2**19])
    def test_large_target_matches_reference_scan(self, target):
        # 999983 is a prime = 7 (mod 8), so m^2 - 2n^2 represents it
        form = QuadForm(1, 0, -2)
        got = enumerate_solutions(form, {target}, 2000)
        assert got and got == reference_enumerate_solutions(form, {target}, 2000)

    def test_target_beyond_the_box_is_dropped(self):
        # |m^2 - 2n^2| <= 3 * 2000^2 < 10^9 on the box
        assert enumerate_solutions(QuadForm(1, 0, -2), {10**9}, 2000) == []

    @pytest.mark.parametrize(
        "form",
        [
            QuadForm(1, 0, -10000000019),
            QuadForm(3, 7, -1000000000007),
            QuadForm(-123457, 98765, 10**9 + 7),
            QuadForm(2, 1, -(10**17 + 3)),
        ],
    )
    def test_huge_regulators_match_reference_scan(self, form):
        # long cycles and huge units: only the window near the box is explored
        targets = [e for mag in range(0, 31) for e in (mag, -mag)]
        targets += [form.value(m, n) for m, n in ((1, 1), (7, 3), (250, 1))]
        assert enumerate_solutions(form, targets, 300) == reference_enumerate_solutions(
            form, targets, 300
        )


class TestBoundedScan:
    """enumerate_solutions scans m = 1..bound once per distinct target, with
    at most one isqrt per column, whatever the size of the target."""

    @settings(max_examples=300, deadline=None)
    @given(forms_of_every_class(), st.integers(1, 30), st.data())
    def test_matches_naive_oracle(self, form, bound, data):
        # values at points of the box, small targets and 0, on every kind
        points = data.draw(st.lists(st.tuples(st.integers(1, bound), st.integers(0, bound))))
        targets = {0, *data.draw(st.lists(st.integers(-60, 60), max_size=4))}
        targets.update(form.value(m, n) for m, n in points)
        event(quadform._slot_kind(form)[0])
        assert enumerate_solutions(form, targets, bound) == naive_enumerate(form, targets, bound)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, 0, -2),  # pell
            (3, -6, 3),  # line
            (2, -5, 2),  # square-disc
            (0, 4, -6),  # square-disc with qa = 0
            (2, 3, 0),  # square-disc with qc = 0
        ],
    )
    def test_isqrt_calls_within_the_work_bound(self, monkeypatch, coeffs):
        form, bound = QuadForm(*coeffs), 300
        targets = [0, 1, -1, 3, 12, -12, 48, 3, form.value(250, 17), 10**40]
        expected = reference_enumerate_solutions(form, targets, bound)
        calls = []
        monkeypatch.setattr(quadform, "isqrt", lambda n: calls.append(n) or isqrt(n))
        assert enumerate_solutions(form, targets, bound) == expected
        assert len(calls) <= bound * len(set(targets))

    def test_definite_scan_stops_at_the_first_negative_radicand(self, monkeypatch):
        # m^2 + n^2 = 25: the radicand 100 - 4m^2 is negative from m = 6 on
        calls = []
        monkeypatch.setattr(quadform, "isqrt", lambda n: calls.append(n) or isqrt(n))
        got = enumerate_solutions(QuadForm(1, 0, 1), {25}, 10**6)
        assert got == [(3, 4, 25), (4, 3, 25), (5, 0, 25)]
        assert len(calls) <= 6

    def test_two_prime_target_near_10_26_ends_in_time(self):
        # a product of two primes near 10^13 inside the box: its size does
        # not enter the scan
        big = (10**13 + 37) * (10**13 + 51)
        start = time.perf_counter()
        assert enumerate_solutions(QuadForm(1, 0, -(10**30 + 1)), {big}, 300) == []
        f = QuadForm(1, 1, -(10**30 + 1))
        assert enumerate_solutions(f, {big, f.value(7, 3)}, 300) == [(7, 3, f.value(7, 3))]
        assert time.perf_counter() - start < 2

    def test_huge_targets_end_in_time(self):
        # the large targets lie near 10^17; the scan costs at most 300 isqrt
        # calls per target, whatever its size
        form = QuadForm(-443522816873, -982260105182, 930848578435)
        targets = [-37824618397980917, -34748209332988136, -25, -6, -2, 41247816907507579]
        start = time.perf_counter()
        got = enumerate_solutions(form, targets, 300)
        assert time.perf_counter() - start < 2
        assert got == reference_enumerate_solutions(form, targets, 300) and len(got) == 3


def _sweep(form, bound, target_cap, tables=None):
    """The lists of _by_magnitude on a "pell" or "line" form, over class
    data from ``tables`` if given."""
    data = _sweep_data(form, {} if tables is None else tables)
    return list(quadform._by_magnitude(form, data, bound, target_cap))


def _per_magnitude(form, bound, target_cap):
    """The solutions of each |value| = 1..target_cap from one run of the
    windowed scan over all of them, split by |value|: an oracle that shares
    no code with _Classes.primitive, which the sweep and
    enumerate_solutions both run."""
    out = [[] for _ in range(target_cap)]
    targets = [sign * mag for mag in range(1, target_cap + 1) for sign in (1, -1)]
    for sol in reference_enumerate_solutions(form, targets, bound):
        out[abs(sol[2]) - 1].append(sol)
    return out


def _swept(form):
    """Whether sol_quad can sweep the form: a "pell" or "line" form."""
    return quadform._slot_kind(form)[0] in _SWEEP_DATA


SWEPT_CLASSES = ("D=0", "D>0", "one-sign")


class TestMagnitudeSweep:
    # sol_quad sweeps only "pell" and "line" forms, so the sweep is checked
    # on those, against the windowed scan

    def test_forge_forms_match_enumeration(self):
        forms = [form for form in _forge_forms() if _swept(form)]
        for form in forms:
            assert _sweep(form, 2000, 30) == _per_magnitude(form, 2000, 30), form
        # 136 "pell" and 12 "line" forms
        assert len(forms) == 148

    @settings(max_examples=300, deadline=None)
    @given(forms_of_every_class(SWEPT_CLASSES), st.integers(1, 300), st.integers(1, 60))
    def test_matches_enumeration(self, form, bound, target_cap):
        # contents up to 4 with caps that are no multiples of them, lines,
        # and bounds small enough to cut orbits
        assume(_swept(form))
        event(quadform._slot_kind(form)[0])
        assert _sweep(form, bound, target_cap) == _per_magnitude(form, bound, target_cap)

    def test_shared_table_matches_fresh(self):
        forms = [form for form in _forge_forms() if _swept(form)]
        fresh = {form: _sweep(form, 2000, 30) for form in forms}
        for order in (forms, forms[::-1]):
            tables = {}
            for form in order:
                assert _sweep(form, 2000, 30, tables) == fresh[form], form
        # the swept forms have far fewer primitive discriminants than forms
        assert len(tables) < len(forms) // 2

    @pytest.mark.parametrize("target_cap, swept", [(30, 2), (MAX_TARGET_CAP, 5)])
    def test_one_sign_forms_swept_by_classes(self, target_cap, swept):
        # a one-sign form has |Q| >= |qa|*m^2 and |Q| >= |qc|*n^2 on the box,
        # so its points with |Q| <= cap lie in the box of B = max(isqrt(cap
        # // |qa|), isqrt(cap // |qc|)): on every one-sign "pell" form of the
        # golden pairs' seeds each magnitude's list over the 2000-box is the
        # one over B's box, and a form that passes the unit test is swept by
        # its classes over the 2000-box
        tables = {}
        forms = []
        for form in _golden_forms():
            kind, k, f, disc = quadform._slot_kind(form)
            if kind != "pell" or f[0] * f[1] < 0 or f[0] * f[2] < 0:
                continue
            forms.append(form)
            box = max(isqrt(target_cap // abs(form.qa)), isqrt(target_cap // abs(form.qc)))
            classes = quadform._Classes(f, k, quadform._table(tables, disc))
            assert list(quadform._by_magnitude(form, classes, box, target_cap)) == list(
                quadform._by_magnitude(form, classes, 2000, target_cap)
            ), form
            with _recording((quadform, "_by_magnitude")) as sweeps:
                with contextlib.suppress(NoOrbitFound):
                    sol_quad(form, target_cap=target_cap)
            if sweeps:
                swept -= 1
                ((data, bound, _),) = sweeps
                assert type(data) is quadform._Classes and bound == 2000, form
        assert len(forms) == 66 and swept == 0

    def test_content_spreads_magnitudes(self):
        # 3*(m^2 - 2n^2): only multiples of 3; 12 = 3 * 2^2 * 1 holds the
        # doubled points of |e1| = 1, as +-4 has no primitive representation
        form = QuadForm(3, 0, -6)
        sweep = _sweep(form, 100, 13)
        assert [mag for mag, sols in enumerate(sweep, 1) if sols] == [3, 6, 12]
        assert (2, 0, 12) in sweep[11] and (6, 4, 12) in sweep[11]
        assert sweep == _per_magnitude(form, 100, 13)


def _in_box(points, limit):
    """The points of ``points`` in the box of ``limit``, each taken with the
    sign that makes x positive, as _Classes.primitive lists them."""
    out = []
    for x, y in points:
        if x < 0:
            x, y = -x, -y
        if 0 < x <= limit and 0 <= y <= limit:
            out.append((x, y))
    return sorted(out)


def _pell_discs():
    """The first 8 primitive discriminants of the "pell" forms forge meets
    on the benchmark weight pairs."""
    kinds = (quadform._slot_kind(form) for form in _forge_forms())
    return sorted({disc for kind, _, _, disc in kinds if kind == "pell"})[:8]


def _completion(x, y):
    """(u, v) with x*v - y*u = 1, for gcd(x, y) = 1."""
    r0, r1, s0, s1, t0, t1 = x, y, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    # x*s0 + y*t0 = r0 = +-1
    return -t0 * r0, s0 * r0


class TestClassIndex:
    """_Classes keeps one index of its explored cycle positions, keyed by
    the first coefficient of their reduced form, and _DiscTable one memo,
    the bases per target."""

    def test_lagrange_read_off_matches_bases(self):
        # when 2|e1| <= isqrt(disc) every f_B is reduced already, so the
        # forms of the class with first coefficient e1 are the f_B
        # (Lagrange's criterion): the read-off gives the points P z of the
        # bases, with z = (1, 0)
        checked = nonempty = 0
        for form in _forge_forms():
            kind = _sweep_data(form, {})
            if not isinstance(kind, quadform._Classes):
                continue
            for a in range(1, 31):
                if 2 * a > kind.root:
                    break
                for e1 in (a, -a):
                    got = kind.primitive(e1, 2000)
                    assert len(set(got)) == len(got)
                    bases = kind.table.bases(e1)
                    assert all(reduced[0] == e1 and z == (1, 0) for reduced, z in bases)
                    from_bases = [
                        (p[0] * z[0] + p[1] * z[1], p[2] * z[0] + p[3] * z[1])
                        for reduced, z in bases
                        for g, p in kind.positions.get(reduced[0], ())
                        if g == reduced
                    ]
                    assert sorted(got) == _in_box(from_bases, 2000), (form, e1)
                    checked += 1
                    nonempty += bool(got)
        # 136 forms of non-square discriminant; 415 of the 3028 targets have
        # points in the box
        assert (checked, nonempty) == (3028, 415)

    def test_bases_of_both_signs_from_one_root_scan(self, monkeypatch):
        discs = _pell_discs()
        signed = [a if a % 3 else -a for a in range(1, 31)]
        fresh = {
            disc: {e: quadform._DiscTable(disc).bases(e) for a in signed for e in (a, -a)}
            for disc in discs
        }
        reduced = []
        reduce = quadform._reduce_indefinite
        monkeypatch.setattr(
            quadform, "_reduce_indefinite", lambda *args: reduced.append(args) or reduce(*args)
        )
        for disc in discs:
            table = quadform._DiscTable(disc)
            for e in signed:
                reduced.clear()
                assert table.bases(e) == fresh[disc][e]
                # one scan reduces the f_B of e and of -e
                assert len(reduced) == 2 * len(fresh[disc][e]), (disc, e)
                reduced.clear()
                # -e is held already: no new work
                assert table.bases(-e) == fresh[disc][-e]
                assert reduced == [], (disc, e)
        assert len(discs) == 8

    def test_bases_match_residue_oracle(self):
        # every B mod 2|e1| with B^2 = disc (mod 4|e1|), from all residues
        # mod 4|e1| mapped into the window, against the B that each (g, z)
        # of bases fixes: z completed to M in SL2(Z) gives g∘M = (e1, B', .)
        # with B' = B (mod 2|e1|) whatever the completion
        listed = 0
        for disc in _pell_discs() + [5, 8, 125, 213, 4 * (10**13 + 37) * (10**13 + 51)]:
            table, root = quadform._DiscTable(disc), isqrt(disc)
            for a in range(1, MAX_TARGET_CAP + 1):
                roots = (x for x in range(4 * a) if (x * x - disc) % (4 * a) == 0)
                want = sorted({root - (root - x) % (2 * a) for x in roots})
                for e1 in (a, -a):
                    got = []
                    for (ga, gb, gc), (x, y) in table.bases(e1):
                        assert 0 < gb <= root and root - gb < 2 * abs(ga) <= root + gb
                        assert ga * x * x + gb * x * y + gc * y * y == e1
                        u, v = _completion(x, y)
                        b = 2 * ga * x * u + gb * (x * v + y * u) + 2 * gc * y * v
                        got.append(root - (root - b) % (2 * a))
                    assert sorted(got) == want, (disc, e1)
                    listed += len(got)
        assert listed


def _met_candidates(forms, bound=2000, target_cap=30):
    """Every ladder candidate the magnitude sweep of sol_quad meets on the
    forms when nothing is decided before it, as (form, candidate) pairs:
    the ladders of _by_magnitude up to the first magnitude that certifies,
    each cut after its first constant orbit, the forms sharing their class
    data as in forge.  A "square-disc" form, which sol_quad refuses before
    any sweep, meets the ladders of enumerate_solutions per magnitude.
    Definite and one-variable forms meet none."""
    met = []
    tables = {}
    for form in forms:
        if form.discriminant < 0 or (form.qb == 0 and form.qa * form.qc == 0):
            continue
        data = _sweep_data(form, tables)
        if data is None:
            lists = (
                enumerate_solutions(form, (mag, -mag), bound) for mag in range(1, target_cap + 1)
            )
        else:
            lists = quadform._by_magnitude(form, data, bound, target_cap)
        for sols in lists:
            found = None
            for cand in quadform._ladder(sols):
                met.append((form, cand))
                orbit = _orbit_from_solutions(form, cand)
                found = found or orbit
                if orbit is not None and orbit.kind == "constant":
                    break
            if found:
                break
    return met


def _orbit_key(orbit):
    return None if orbit is None else (orbit.gf_m, orbit.gf_n, orbit.kind, orbit.target)


class TestUnitReadOff:
    def test_forge_forms_match_guess(self):
        met = _met_candidates(_forge_forms())
        certified = 0
        for form, cand in met:
            got = _orbit_from_solutions(form, cand)
            assert _orbit_key(got) == _orbit_key(
                reference_orbit_from_solutions(form, cand)
            ), (form, cand[:4])
            certified += got is not None
        # 777 candidates, 32 of them certified
        assert len(met) > 700 and certified > 30

    @settings(max_examples=500, deadline=None)
    @given(forms_of_every_class(), st.integers(1, 300), st.integers(1, 40))
    def test_drawn_forms_match_guess(self, form, bound, target_cap):
        for _, cand in _met_candidates([form], bound, target_cap):
            got = _orbit_from_solutions(form, cand)
            ref = reference_orbit_from_solutions(form, cand)
            if _orbit_key(got) != _orbit_key(ref):
                # the guess also fits recurrences of another shape: a shifted
                # one (an improper generating function, the list's first
                # points off the orbit) or one of odd order, e.g. on two
                # parallel lines of a D = 0 form from fewer than 3p + 1
                # points; the read-off leaves those candidates out
                assert got is None
                gfs = (ref.gf_m, ref.gf_n)
                assert any(len(g.num) >= len(g.den) for g in gfs) or len(ref.gf_m.den) % 2 == 0

    def test_unit_trace(self):
        assert quadform._unit_trace(([1, 3, 17, 99], [0, 2, 12, 70]), 1, 1) == 6
        # t must be one integer on every window
        assert quadform._unit_trace(([1, 3, 17, 99], [0, 2, 12, 71]), 1, 1) is None
        assert quadform._unit_trace(([2, 3, 5],), 1, 1) is None
        # a zero middle term needs a zero outer sum, and fixes no t
        assert quadform._unit_trace(([1, 0, 1, 0, 1],), 1, 1) is None
        assert quadform._unit_trace(([1, 0, -1, 0, 1],), 1, 1) == 0
        assert quadform._unit_trace(([1, 0, -1], [1, 2, 3]), 1, 1) == 2

    def test_margin_is_three_p_plus_one(self):
        form = QuadForm(1, 0, -2)
        sols = [(1, 0, 1), (3, 2, 1), (17, 12, 1)]
        assert _orbit_from_solutions(form, sols) is None
        orbit = _orbit_from_solutions(form, sols + [(99, 70, 1)])
        assert orbit.gf_m.den == (1, -6, 1) and orbit.gf_n.den == (1, -6, 1)

    def test_interleaved_orbit(self):
        # forge(1, -6) meets 5m^2 + 6mn - 3n^2 = 5 on two interleaved orbits of
        # the unit 5 + 2*sqrt(6): seven points, just 3p + 1 for p = 2
        form = QuadForm(5, 6, -3)
        sols = enumerate_solutions(form, (5, -5), 2000)
        assert len(sols) == 7
        orbit = _orbit_from_solutions(form, sols)
        assert orbit.gf_m.den == (1, 0, -10, 0, 1) and orbit.kind == "constant"
        assert orbit.gf_m.num == (1, 1, -8, -2) and orbit.gf_n.num == (0, 2, 5, 1)
        assert _orbit_from_solutions(form, sols[:6]) is None
        assert sol_quad(form).to_json() == orbit.to_json()

    def test_interleaved_alternating_orbit_has_norm_one(self):
        # 7m^2 - 5mn - 7n^2 = +-7 alternates along the full list, two orbits
        # of the norm-1 unit (15 + sqrt(221))/2 interleaved: after p = 2
        # steps the value is back, so N = (-1)^2 = 1, not -1
        form = QuadForm(7, -5, -7)
        sols = enumerate_solutions(form, (7, -7), 3000)
        assert len(sols) == 7 and [v for _, _, v in sols[:3]] == [7, -7, 7]
        orbit = _orbit_from_solutions(form, sols)
        assert orbit.kind == "alternating" and orbit.gf_m.den == (1, 0, -15, 0, 1)
        assert _orbit_key(orbit) == _orbit_key(reference_orbit_from_solutions(form, sols))


@contextlib.contextmanager
def _recording(*methods):
    """The arguments of every call of the (class, name) methods made inside
    the block, in one list.  A (module, name) function is recorded the same
    way, without its first argument."""
    asked = []
    with contextlib.ExitStack() as stack:
        for cls, name in methods:
            method = getattr(cls, name)

            def recorded(self, *args, method=method):
                asked.append(args)
                return method(self, *args)

            stack.enter_context(patch.object(cls, name, recorded))
        yield asked


class TestSolQuad:
    def test_classic_pell(self):
        orbit = sol_quad(QuadForm(1, 0, -2))
        assert orbit.gf_m.num == (1, -3) and orbit.gf_m.den == (1, -6, 1)
        assert orbit.gf_n.num == (0, 2) and orbit.gf_n.den == (1, -6, 1)
        assert orbit.target == 1 and orbit.kind == "constant"

    def test_alternating_orbit(self):
        orbit = sol_quad(QuadForm(-1, 9, 1))
        assert orbit.gf_m.num == (1,) and orbit.gf_m.den == (1, -9, -1)
        assert orbit.gf_n.num == (0, 1) and orbit.gf_n.den == (1, -9, -1)
        assert orbit.target == -1 and orbit.kind == "alternating"

    def test_ladder_skips_candidates_that_cannot_win(self):
        # At |e| = 12 the even-indexed points certify an alternating orbit.
        # The odd-indexed ones alternate too, so they could only tie, and
        # the later ladder position loses a tie: they are not certified.
        # The two constant sign classes are still tried (and fail the
        # read-off), as a constant orbit would replace the held one.
        with _recording((quadform, "certify_zero")) as asked:
            orbit = sol_quad(QuadForm(12, -10, -5))
        assert len(asked) == 1
        assert orbit.to_json() == {
            "gf_m": {"num": [1, -2], "den": [1, -9, -1]},
            "gf_n": {"num": [0, 6], "den": [1, -9, -1]},
            "target": 12,
            "kind": "alternating",
            "certified_depth": 4,
        }

    def test_definite_rejected(self):
        with pytest.raises(DefiniteForm):
            sol_quad(QuadForm(1, 0, 1))

    def test_refusal_text(self):
        # the text is formatted when read, and reads as it always did (the
        # NoOrbitFound text is pinned by the refusal tests below)
        with pytest.raises(DefiniteForm) as definite:
            sol_quad(QuadForm(1, 0, 1))
        assert str(definite.value) == (
            "m^2 + n^2 has negative discriminant -4; "
            "every target admits only finitely many solutions"
        )
        # a single argument is the text itself, braces and all
        assert str(NoOrbitFound("no {orbit}")) == "no {orbit}"

    @pytest.mark.parametrize("cap", [0, -5])
    def test_target_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="target_cap must be at least 1"):
            sol_quad(QuadForm(1, 0, -2), target_cap=cap)

    @pytest.mark.parametrize(
        "option, value",
        [("bound", 100.5), ("bound", True), ("target_cap", 2.0), ("target_cap", True), ("bound", "9")],
    )
    def test_work_option_not_an_int_rejected(self, option, value):
        # bound=100.5 used to return the orbit of target 1, and a float
        # target_cap raised TypeError deep in the sweep
        with pytest.raises(ValueError, match=f"{option} must be an int, not {type(value).__name__}"):
            sol_quad(QuadForm(1, 0, -2), **{option: value})

    def test_no_orbit_for_factorable_form(self):
        # (2m - n)(m + n): every target has finitely many representations
        with pytest.raises(NoOrbitFound):
            sol_quad(QuadForm(2, 1, -1), target_cap=5)

    def test_stops_at_the_winning_magnitude(self, monkeypatch):
        # m^2 - 2n^2 wins at |e| = 1, so the sweep handles only |e1| = 1
        asked = []
        primitive = quadform._Classes.primitive

        def counting(self, e1, limit):
            asked.append(e1)
            return primitive(self, e1, limit)

        monkeypatch.setattr(quadform._Classes, "primitive", counting)
        assert sol_quad(QuadForm(1, 0, -2)).target == 1
        assert asked == [1, -1]

    def _counting_ladder(self, monkeypatch):
        calls = []
        orbit_from_solutions = quadform._orbit_from_solutions

        def counting(form, cand):
            orbit = orbit_from_solutions(form, cand)
            calls.append((cand, orbit and orbit.kind))
            return orbit

        monkeypatch.setattr(quadform, "_orbit_from_solutions", counting)
        return calls

    @staticmethod
    def _ladder(form, mag):
        sols = enumerate_solutions(form, (mag, -mag), 2000)
        ladder = []
        for cand in (sols, sols[0::2], sols[1::2], [s for s in sols if s[2] > 0],
                     [s for s in sols if s[2] < 0]):
            if cand not in ladder:
                ladder.append(cand)
        return ladder

    def test_ladder_stops_at_first_constant(self, monkeypatch):
        # m^2 - 2n^2 = +-1: the full list certifies as alternating, the even
        # subsequence as constant, and the odd one is never tried
        calls = self._counting_ladder(monkeypatch)
        form = QuadForm(1, 0, -2)
        orbit = sol_quad(form)
        assert orbit.kind == "constant"
        ladder = self._ladder(form, 1)
        assert [cand for cand, _ in calls] == ladder[:2] and len(ladder) == 3
        assert [kind for _, kind in calls] == ["alternating", "constant"]

    @pytest.mark.parametrize("form", [QuadForm(-1, 9, 1), QuadForm(1, 0, -5)])
    def test_ladder_runs_to_the_end_without_constant(self, monkeypatch, form):
        calls = self._counting_ladder(monkeypatch)
        orbit = sol_quad(form)
        assert orbit.kind == "alternating"
        assert [cand for cand, _ in calls] == self._ladder(form, abs(orbit.target))
        assert "constant" not in [kind for _, kind in calls]

    def test_forge_forms_match_reference(self):
        # enumeration on these forms is pinned by
        # test_forge_forms_match_reference_scan, so the library enumerator
        # stands in for the slow reference scan here; the forms share their
        # class data as in forge
        tables = {}
        for form in _forge_forms():
            got = _outcome(partial(sol_quad, _tables=tables), form, 2000, 30)
            assert got == _outcome(
                partial(reference_sol_quad, enumerator=enumerate_solutions), form, 2000, 30
            ), form

    def test_matches_per_magnitude_reference(self):
        rng = random.Random(79)
        forms = []
        while len(forms) < 30:
            form = QuadForm(*(rng.randint(-6, 6) for _ in range(3)))
            if form.discriminant > 0 and form.qa and form.qc:
                forms.append(form)
        found = 0
        for form in forms:
            got = _outcome(sol_quad, form, 120, 12)
            assert got == _outcome(reference_sol_quad, form, 120, 12), form
            found += isinstance(got, dict)
        assert 0 < found < len(forms)

    @pytest.mark.parametrize(
        "form, bound, points, den",
        [
            # D = 12: the unit 2 + sqrt(3) has trace 4 = 1 + isqrt(15)
            (QuadForm(1, 2, -2), 15, [(1, 0), (1, 1), (3, 4), (11, 15)], (1, -4, 1)),
            # D = 21: the unit (5 + sqrt(21))/2 has trace 5 = 1 + isqrt(24)
            (QuadForm(1, 3, -3), 24, [(1, 0), (1, 1), (4, 5), (19, 24)], (1, -5, 1)),
        ],
    )
    def test_unit_trace_at_the_bound(self, form, bound, points, den):
        # the fourth point of the orbit is the last in the box, and the
        # least trace of a unit of the field is the largest the test admits
        orbit = sol_quad(form, bound=bound)
        assert orbit.pairs(4) == points and orbit.gf_m.den == orbit.gf_n.den == den
        assert (orbit.target, orbit.kind) == (1, "constant")
        table = quadform._DiscTable(form.discriminant)
        assert table.has_unit(1 + isqrt(bound)) and not table.has_unit(isqrt(bound))
        with pytest.raises(NoOrbitFound, match=f"enumeration bound {bound - 1}$"):
            sol_quad(form, bound=bound - 1)

    def test_no_small_unit_enumerates_nothing(self, monkeypatch):
        # D = 457 is prime and Q(sqrt(457)) has no unit of trace <= 45, so the
        # form is refused before the sweep asks for a single representation
        asked = []
        monkeypatch.setattr(quadform._Classes, "primitive", lambda *args: asked.append(args))
        form = QuadForm(4, 11, -21)
        with pytest.raises(NoOrbitFound) as refused:
            sol_quad(form)
        assert asked == []
        assert str(refused.value) == (
            f"no certified orbit for {form} with |target| <= 30, enumeration bound 2000"
        )

    def test_unit_test_is_memoised_per_discriminant(self):
        tables = {}
        for form in (QuadForm(4, 11, -21), QuadForm(8, 22, -42), QuadForm(-4, 11, 21)):
            with pytest.raises(NoOrbitFound):
                sol_quad(form, _tables=tables)
        # one table for D' = 457, scanned once up to 1 + isqrt(2000) = 45
        assert list(tables) == [457] and tables[457]._traced == 45
        # (1 + sqrt(5))/2 has trace 1 and norm -1, so the scan stops at t = 1
        table = quadform._DiscTable(5)
        assert table.has_unit(10**6) and table._traced == 1

    @settings(deadline=None)
    @given(forms_of_every_class(("D>0",)), st.integers(1, 400), st.integers(1, 40))
    @example(QuadForm(4, 11, -21), 400, 40)
    @example(QuadForm(2, 4, -4), 15, 2)
    def test_matches_reference_with_unit_test(self, form, bound, target_cap):
        # the reference enumerates every magnitude and knows no unit test
        got = _outcome(sol_quad, form, bound, target_cap)
        assert got == _outcome(reference_sol_quad, form, bound, target_cap)
        table = quadform._DiscTable(quadform._slot_kind(form)[3])
        if not table.has_unit(1 + isqrt(bound)):
            event("no small unit")
        else:
            event("orbit" if isinstance(got, dict) else "no orbit after the sweep")

    @settings(deadline=None)
    @given(
        forms_of_every_class(("square D>0", "D=0", "qa=0", "qc=0")),
        st.integers(1, 300),
        st.integers(1, 40),
    )
    @example(QuadForm(1, -2, 1), 60, 30)
    @example(QuadForm(2, 5, 2), 300, 40)
    @example(QuadForm(0, 1, 0), 300, 40)
    def test_square_discriminants_match_reference(self, form, bound, target_cap):
        # only a line of a D = 0 form off the axes can carry an orbit: every
        # other form of square discriminant is refused before the sweep
        # lists a single point, with the message the sweep would end in
        with _recording((quadform._Factored, "primitive")) as asked:
            got = _outcome(sol_quad, form, bound, target_cap)
        assert got == _outcome(reference_sol_quad, form, bound, target_cap)
        if form.discriminant != 0 or form.qb == 0:
            event("refused")
            assert asked == []
            with pytest.raises(NoOrbitFound) as refused:
                sol_quad(form, bound=bound, target_cap=target_cap)
            assert str(refused.value) == (
                f"no certified orbit for {form} with |target| <= {target_cap}, "
                f"enumeration bound {bound}"
            )
        else:
            event("orbit" if isinstance(got, dict) else "no orbit after the sweep")

    def test_one_sign_line_at_the_bound(self):
        # (m + n)^2 = 16 holds (1, 3), (2, 2), (3, 1), (4, 0): the fourth
        # point has m = isqrt(16) = M, and 1 + 3|s| = 4 <= M
        form = QuadForm(1, 2, 1)
        orbit = sol_quad(form, target_cap=16)
        assert orbit.pairs(4) == [(1, 3), (2, 2), (3, 1), (4, 0)]
        assert (orbit.target, orbit.kind) == (16, "constant")
        # at 15, M = 3 < 4: refused before the factor lists a point
        with _recording((quadform._Factored, "primitive")) as asked:
            with pytest.raises(NoOrbitFound) as refused:
                sol_quad(form, target_cap=15)
        assert asked == []
        assert str(refused.value) == (
            "no certified orbit for m^2 + 2*m*n + n^2 with |target| <= 15, enumeration bound 2000"
        )

    @pytest.mark.parametrize(
        "coeffs, target_cap, outcome, built",
        [
            ((1, 0, 1), 30, DefiniteForm, set()),  # definite
            ((2, 5, 2), 30, NoOrbitFound, set()),  # square-disc
            ((3, 0, 0), 30, NoOrbitFound, set()),  # one-variable
            ((0, 0, -1), 30, NoOrbitFound, set()),  # one-variable
            ((1, 6, 9), 30, NoOrbitFound, set()),  # line, 1 + 3*3 > M = 5
            ((1, -1400, 490000), 30, NoOrbitFound, set()),  # line, 1 + 3*700 > 2000
            ((1, 13, 11), 15, NoOrbitFound, {"_DiscTable"}),  # pell, no unit of trace <= 2
            ((1, -2, 1), 30, PellOrbit, {"_Factored"}),  # line
            ((1, 0, -2), 30, PellOrbit, {"_DiscTable", "_Classes"}),  # pell
        ],
    )
    def test_each_kind_builds_only_its_data(self, coeffs, target_cap, outcome, built):
        # a refusal builds no enumeration data, and a sweep builds only the
        # data of its kind
        classes = (quadform._DiscTable, quadform._Classes, quadform._Factored)
        with contextlib.ExitStack() as stack:
            calls = {c.__name__: stack.enter_context(_recording((c, "__init__"))) for c in classes}
            try:
                got = sol_quad(QuadForm(*coeffs), target_cap=target_cap)
            except (DefiniteForm, NoOrbitFound) as refused:
                got = refused
        assert type(got) is outcome
        assert {name for name, asked in calls.items() if asked} == built

    @pytest.mark.parametrize("cap, swept", [(16, True), (15, False)])
    def test_one_sign_unit_at_the_bound(self, cap, swept):
        # D = 125 lies in Q(sqrt(5)), whose least norm +1 unit, the square
        # of (1 + sqrt(5))/2, has trace 3 = 1 + isqrt(4): at cap 16, M = 4
        # and the form is swept by its classes; at 15, M = 3 and it is
        # refused before the classes are asked anything.  Both end in the
        # same message.
        with _recording((quadform._Classes, "primitive")) as asked:
            with pytest.raises(NoOrbitFound) as refused:
                sol_quad(QuadForm(1, 13, 11), target_cap=cap)
        assert bool(asked) == swept
        assert str(refused.value) == (
            f"no certified orbit for m^2 + 13*m*n + 11*n^2 with |target| <= {cap}, "
            "enumeration bound 2000"
        )

    @pytest.mark.parametrize("disc, least, norm_one", [(5, 1, 3), (340, 9, 83)])
    def test_norm_one_trace_closed_form(self, disc, least, norm_one):
        # the fundamental units (1 + sqrt(5))/2 and (9 + sqrt(85))/2 have
        # norm -1, so the least norm +1 trace is least^2 + 2, found by the
        # scan that stopped at least
        table = quadform._DiscTable(disc)
        assert not table.has_unit(least - 1) and table.has_unit(least)
        assert table.has_unit(norm_one, norm_one=True)
        assert not table.has_unit(norm_one - 1, norm_one=True)
        assert table._traced == least
        squares = [(t * t - 4) * disc for t in range(3, norm_one + 1)]
        assert [w for w in squares if isqrt(w) ** 2 == w] == [squares[-1]]

    def test_unit_scan_matches_reference(self):
        # one table per D' keeps its scan across calls, so tops asked out
        # of order test the resumed scan as well as the verdicts
        tested = 0
        for disc in range(2, 3000):
            if isqrt(disc) ** 2 == disc:
                continue
            table, reference = quadform._DiscTable(disc), quadform._DiscTable(disc)
            for top in (7, 3, 45, 1, 60):
                for norm_one in (False, True):
                    got = table.has_unit(top, norm_one)
                    assert got == reference_has_unit(reference, top, norm_one), (disc, top)
                    assert table._traced == reference._traced, (disc, top)
                    assert table._least_unit == reference._least_unit, (disc, top)
            tested += 1
        assert tested == 2998 - 53

    def test_orbit_check_on_forge_forms(self):
        # the expression each orbit is certified on is built in one step;
        # it and its certificate (bound and witness) are those of
        # form.to_poly() - rhs_poly(c, kind)
        forms = [form for form in _forge_forms() if form.discriminant >= 0]
        tables = {}
        kinds = set()
        for form in forms:
            got, checks = _orbit_checks(form, 2000, 30, tables)
            assert isinstance(got, dict) == bool(checks), form
            for kind, expr, reference, cert, reference_cert in checks:
                assert expr == reference and cert == reference_cert, form
                kinds.add(kind)
        assert len(forms) == 158 and kinds == {"constant", "alternating"}

    @settings(deadline=None)
    @given(
        st.one_of(pell_forms(), forms_of_every_class(("D>0", "D=0", "one-sign"))),
        st.integers(30, 2000),
        st.integers(1, 40),
    )
    @example(QuadForm(1, 0, -2), 2000, 30)
    @example(QuadForm(1, -2, 1), 60, 30)
    def test_orbit_check_matches_reference(self, form, bound, target_cap):
        _, checks = _orbit_checks(form, bound, target_cap)
        for kind, expr, reference, cert, reference_cert in checks:
            event(kind)
            assert expr == reference and cert == reference_cert

    @settings(deadline=None)
    @given(forms_of_every_class(("one-sign",)), st.integers(1, 400), st.integers(1, 80))
    @example(QuadForm(1, 2, 1), 2000, 16)
    @example(QuadForm(1, 2, 1), 3, 16)
    @example(QuadForm(-1, -13, -11), 2000, 16)
    @example(QuadForm(1, 4, 1), 60, 81)
    @example(QuadForm(1, 4, 1), 60, 80)
    @example(QuadForm(-3, -12, -3), 400, 243)
    def test_one_sign_forms_match_reference(self, form, bound, target_cap):
        # a one-sign form is swept only when a norm +1 unit, or the step of
        # a D = 0 line, fits the box of M = min(bound, isqrt(cap // |qa|))
        with _recording((quadform._Classes, "__init__"), (quadform._Factored, "__init__")) as built:
            got = _outcome(sol_quad, form, bound, target_cap)
        assert got == _outcome(reference_sol_quad, form, bound, target_cap)
        d, k = form.discriminant, _content(form)
        reach = min(bound, isqrt(target_cap // abs(form.qa)))
        if isqrt(d) ** 2 != d:
            squares = [(t * t - 4) * d for t in range(3, 2 + isqrt(reach))]
            fits = any(isqrt(w) ** 2 == w for w in squares)
        else:
            fits = d == 0 and form.qb != 0 and 1 + 3 * isqrt(abs(form.qc) // k) <= reach
        assert bool(built) == fits
        if not fits:
            event("refused")
            assert got is NoOrbitFound
        else:
            event("orbit" if isinstance(got, dict) else "no orbit after the sweep")

    @pytest.mark.parametrize(
        "bound, target_cap", [(2000, 30), (60, 40), (15, 40), (400, 12), (8, 5)]
    )
    def test_small_one_sign_forms_match_reference(self, bound, target_cap):
        # every one-sign form with |qa| <= 7, |qb| <= 14, |qc| <= 11 and
        # D >= 0; the library enumerator stands in for the slow reference
        # scan, as enumeration is pinned by TestReductionTheory
        reference = partial(reference_sol_quad, enumerator=enumerate_solutions)
        tables = {}
        count = 0
        for sign, a, b, c in itertools.product((1, -1), range(1, 8), range(15), range(12)):
            form = QuadForm(sign * a, sign * b, sign * c)
            if form.discriminant >= 0:
                got = _outcome(partial(sol_quad, _tables=tables), form, bound, target_cap)
                assert got == _outcome(reference, form, bound, target_cap), form
                count += 1
        assert count == 1102

    @pytest.mark.parametrize("text", ["m^2", "-3*m^2", "n^2", "-n^2"])
    def test_one_variable_form_rejected(self, text):
        form = QuadForm.from_poly(parse_poly(text, ("m", "n")))
        with pytest.raises(NoOrbitFound):
            sol_quad(form)
        assert _outcome(reference_sol_quad, form, 60, 30) is NoOrbitFound

    @pytest.mark.parametrize(
        "form",
        [QuadForm(1, 0, -2), QuadForm(-1, 9, 1), QuadForm(1, 1, -1), QuadForm(1, 0, -5)],
    )
    def test_orbit_pattern_holds_to_fifty(self, form):
        orbit = sol_quad(form)
        pairs = orbit.pairs(50)
        for i, (m, n) in enumerate(pairs):
            expected = orbit.target * ((-1) ** i if orbit.kind == "alternating" else 1)
            assert form.value(m, n) == expected


class TestGeneralQuadform:
    def test_unit_vectors(self):
        form, c = general_quadform(1, 0, 0, 1, 7)
        assert (form.qa, form.qb, form.qc) == (1, -7, 1) and c == 1

    def test_worked_example(self):
        form, c = general_quadform(2, 1, 1, 1, 3)
        assert (form.qa, form.qb, form.qc) == (5, -15, 11) and c == 1
        # n = 0 and n = 1 by hand
        assert form.value(2, 1) == 1
        assert form.value(7, 4) == 1

    def test_degenerate(self):
        with pytest.raises(DegenerateInitialVectors):
            general_quadform(1, 2, 2, 4, 5)

    def test_guarantee_random(self):
        rng = random.Random(67)
        from cubeforge import RationalGF

        for _ in range(100):
            while True:
                c0, c1, d0, d1 = (rng.randint(-5, 5) for _ in range(4))
                k = rng.choice([-5, -4, -3, 3, 4, 5])
                if c0 * d1 - c1 * d0 != 0:
                    break
            form, c = general_quadform(c0, c1, d0, d1, k)
            seq_a = taylor_coefficients(RationalGF((c0, c1), (1, -k, 1)), 31)
            seq_b = taylor_coefficients(RationalGF((d0, d1), (1, -k, 1)), 31)
            for n in range(31):
                assert form.value(seq_a[n], seq_b[n]) == c


class TestPellSpecial:
    def test_three_two(self):
        pc = pell_special(3, 2)
        assert pc.modulus == 2 and pc.integral
        pairs = list(
            zip(taylor_coefficients(pc.gf_a, 3), taylor_coefficients(pc.gf_b, 3))
        )
        assert pairs == [(1, 0), (3, 2), (17, 12)]
        assert 17 * 17 - 2 * 144 == 1

    def test_two_one(self):
        pc = pell_special(2, 1)
        assert pc.modulus == 3
        pairs = list(
            zip(taylor_coefficients(pc.gf_a, 3), taylor_coefficients(pc.gf_b, 3))
        )
        assert pairs == [(1, 0), (2, 1), (7, 4)]

    def test_zero_b(self):
        with pytest.raises(ZeroB):
            pell_special(5, 0)

    def test_integral_follows_the_modulus(self):
        pc = pell_special(3, 2)
        with pytest.raises(TypeError):
            PellConstruction(pc.gf_a, pc.gf_b, pc.modulus, integral=False)
        assert not replace(pc, modulus=Fraction(8, 9)).integral

    def test_rational_modulus(self):
        pc = pell_special(3, 3)
        assert pc.modulus == Fraction(8, 9) and not pc.integral
        a = taylor_coefficients(pc.gf_a, 10)
        b = taylor_coefficients(pc.gf_b, 10)
        for n in range(10):
            assert a[n] ** 2 - pc.modulus * b[n] ** 2 == 1
