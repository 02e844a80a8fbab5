import random
from fractions import Fraction
from math import isqrt

import pytest

from cubeforge import (
    QuadForm,
    enumerate_solutions,
    general_quadform,
    pell_special,
    sol_quad,
    taylor_coefficients,
)
from cubeforge.errors import (
    DefiniteForm,
    DegenerateInitialVectors,
    InvalidForm,
    NoOrbitFound,
    ZeroB,
)
from cubeforge.parsing import parse_poly
from cubeforge.quadform import _orbit_from_solutions


def naive_enumerate(form, targets, bound):
    out = []
    for m in range(1, bound + 1):
        for n in range(0, bound + 1):
            v = form.value(m, n)
            if v in targets:
                out.append((m, n, v))
    return out


def reference_sol_quad(form, guess_order, bound, target_cap):
    """The per-magnitude search: one enumeration per target magnitude and no
    shortcut for one-variable forms."""
    if form.discriminant < 0:
        raise DefiniteForm(f"{form} is definite")
    for mag in range(1, target_cap + 1):
        sols = enumerate_solutions(form, {mag, -mag}, bound)
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
            orbit = _orbit_from_solutions(form, cand, guess_order)
            if orbit is not None:
                candidates.append(orbit)
        if candidates:
            constant = [o for o in candidates if o.kind == "constant"]
            return constant[0] if constant else candidates[0]
    raise NoOrbitFound(f"no certified orbit for {form}")


def _outcome(search, form, guess_order, bound, target_cap):
    try:
        return search(form, guess_order, bound=bound, target_cap=target_cap).to_json()
    except (DefiniteForm, NoOrbitFound) as exc:
        return type(exc)


class TestQuadForm:
    def test_from_poly(self):
        f = QuadForm.from_poly(parse_poly("m^2 - 9*m*n - n^2", ("m", "n")))
        assert (f.qa, f.qb, f.qc) == (1, -9, -1)

    def test_from_poly_rejects_inhomogeneous(self):
        with pytest.raises(InvalidForm):
            QuadForm.from_poly(parse_poly("m^2 + 1", ("m", "n")))

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidForm):
            QuadForm(0, 0, 0)

    def test_discriminant(self):
        assert QuadForm(-1, 9, 1).discriminant == 85


class TestEnumerate:
    def test_pell_units(self):
        sols = enumerate_solutions(QuadForm(1, 0, -2), {1}, 100)
        assert sols == [(1, 0, 1), (3, 2, 1), (17, 12, 1), (99, 70, 1)]

    def test_alternating_units(self):
        sols = enumerate_solutions(QuadForm(-1, 9, 1), {1, -1}, 100)
        assert sols == [(1, 0, -1), (9, 1, 1), (82, 9, -1)]

    def test_unrepresentable(self):
        assert enumerate_solutions(QuadForm(1, 0, 1), {3}, 50) == []

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


class TestSolQuad:
    def test_classic_pell(self):
        orbit = sol_quad(QuadForm(1, 0, -2), 3)
        assert orbit.gf_m.num == (1, -3) and orbit.gf_m.den == (1, -6, 1)
        assert orbit.gf_n.num == (0, 2) and orbit.gf_n.den == (1, -6, 1)
        assert orbit.target == 1 and orbit.kind == "constant"

    def test_alternating_orbit(self):
        orbit = sol_quad(QuadForm(-1, 9, 1), 3)
        assert orbit.gf_m.num == (1,) and orbit.gf_m.den == (1, -9, -1)
        assert orbit.gf_n.num == (0, 1) and orbit.gf_n.den == (1, -9, -1)
        assert orbit.target == -1 and orbit.kind == "alternating"

    def test_definite_rejected(self):
        with pytest.raises(DefiniteForm):
            sol_quad(QuadForm(1, 0, 1), 3)

    def test_no_orbit_for_factorable_form(self):
        # (2m - n)(m + n): every target has finitely many representations
        with pytest.raises(NoOrbitFound):
            sol_quad(QuadForm(2, 1, -1), 4, target_cap=5)

    def test_matches_per_magnitude_reference(self):
        rng = random.Random(79)
        forms = []
        while len(forms) < 30:
            form = QuadForm(*(rng.randint(-6, 6) for _ in range(3)))
            if form.discriminant > 0 and form.qa and form.qc:
                forms.append(form)
        found = 0
        for form in forms:
            got = _outcome(sol_quad, form, 3, 120, 12)
            assert got == _outcome(reference_sol_quad, form, 3, 120, 12), form
            found += isinstance(got, dict)
        assert 0 < found < len(forms)

    @pytest.mark.parametrize("text", ["m^2", "-3*m^2", "n^2", "-n^2"])
    def test_one_variable_form_rejected(self, text):
        form = QuadForm.from_poly(parse_poly(text, ("m", "n")))
        for order in (2, 3, 4):
            with pytest.raises(NoOrbitFound):
                sol_quad(form, order)
            assert _outcome(reference_sol_quad, form, order, 60, 30) is NoOrbitFound

    @pytest.mark.parametrize(
        "form",
        [QuadForm(1, 0, -2), QuadForm(-1, 9, 1), QuadForm(1, 1, -1), QuadForm(1, 0, -5)],
    )
    def test_orbit_pattern_holds_to_fifty(self, form):
        orbit = sol_quad(form, 4)
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

    def test_rational_modulus(self):
        pc = pell_special(3, 3)
        assert pc.modulus == Fraction(8, 9) and not pc.integral
        a = taylor_coefficients(pc.gf_a, 10)
        b = taylor_coefficients(pc.gf_b, 10)
        for n in range(10):
            assert a[n] ** 2 - pc.modulus * b[n] ** 2 == 1
