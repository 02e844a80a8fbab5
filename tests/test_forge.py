import dataclasses
import functools
import importlib
import itertools
import json
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubeforge import (
    Certificate,
    CubicTheorem,
    MultiPoly,
    RationalGF,
    certify_theorem,
    forge,
    render,
    seq_from_terms,
    taylor_coefficients,
    theorem_from_json,
    theorem_to_json,
)
from cubeforge import cfinite, cli
from cubeforge.cfinite import (
    _mul,
    _symmetric_square,
    certify_zero,
    gf_from_den,
    read_gfs,
    rhs_poly,
)
from cubeforge.cubic import search_quadruples
from cubeforge.errors import DefiniteForm, EmptySeedSet, MalformedTheorem, NoOrbitFound
from cubeforge.forge import _poly_text, _value_gfs, json_text
from cubeforge.parsing import parse_poly
from cubeforge.quadform import PellOrbit, QuadForm, sol_quad


def make_theorem(a, b, c, kind, gfs):
    return CubicTheorem(
        a=a,
        b=b,
        c=c,
        rhs_kind=kind,
        gf_a=gfs[0],
        gf_b=gfs[1],
        gf_c=gfs[2],
        provenance={},
    )


class TestCertifyTheorem:
    def test_alternating_classic(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple)
        cert = certify_theorem(thm)
        assert cert.certified and cert.bound == 11

    def test_constant_6859(self, constant_triple_6859):
        gf_a, gf_b, gf_c = constant_triple_6859
        # weights (1, 2, 2): the paired sequences carry weight 2
        thm = make_theorem(2, 1, 6859, "constant", (gf_b, gf_c, gf_a))
        cert = certify_theorem(thm)
        assert cert.certified and cert.bound == 11

    def test_mutated_numerator_refuted(self, alternating_triple):
        broken = (
            RationalGF((2, 53, 9), (1, -82, -82, 1)),
            alternating_triple[1],
            alternating_triple[2],
        )
        thm = make_theorem(1, -1, 1, "alternating", broken)
        cert = certify_theorem(thm)
        assert not cert.certified and cert.witness == 0

    @pytest.mark.parametrize("kind", ["alternating", "constant", "other"])
    @pytest.mark.parametrize("a, b, c", [(1, -1, 1), (1, -1, 0), (0, 2, 7), (3, 0, -1)])
    def test_matches_the_expression_built_by_arithmetic(self, alternating_triple, kind, a, b, c):
        # certify_theorem builds a*A^3 + a*B^3 + b*C^3 - c*sgn^k in one
        # step and drops zero weights; the sum of polynomials gives the
        # same certificate, zero weights included.  A kind other than
        # "constant" and "alternating" is refused before certify_theorem runs
        if kind == "other":
            with pytest.raises(MalformedTheorem, match="bad rhs_kind 'other'"):
                make_theorem(a, b, c, kind, alternating_triple)
            return
        A, B, C = (MultiPoly.variable(v) for v in "ABC")
        expr = a * A**3 + a * B**3 + b * C**3 - rhs_poly(c, kind)
        thm = make_theorem(a, b, c, kind, alternating_triple)
        expected = certify_zero(expr, dict(zip("ABC", alternating_triple)))
        assert certify_theorem(thm) == expected


class TestDerivedCertificate:
    """A CubicTheorem's certificate is certify_theorem on its own
    statement, never an argument."""

    def test_certificate_argument_rejected(self, alternating_triple):
        with pytest.raises(TypeError):
            CubicTheorem(1, -1, 1, "alternating", *alternating_triple, {},
                         certificate=Certificate(bound=11))

    def test_hand_built_false_theorem_is_refuted(self):
        # 1 + 1 + 1 = 5 fails at n = 0, however the theorem is built
        g = RationalGF((1,), (1, -1))
        thm = CubicTheorem(1, 1, 5, "constant", g, g, g, provenance={})
        assert thm.certificate == Certificate(bound=2, witness=0)
        text = render(thm, "text")
        assert text.startswith("Refuted:") and text.endswith("fails at n = 0")
        assert "certified by checking" not in text

    def test_replace_recertifies(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple)
        assert thm.certificate == Certificate(bound=11)
        wrong = dataclasses.replace(thm, c=2)
        assert wrong.certificate == certify_theorem(wrong)
        assert not wrong.certificate.certified and wrong.certificate.witness == 0
        assert dataclasses.replace(wrong, c=1) == thm
        with pytest.raises(ValueError):
            dataclasses.replace(thm, certificate=Certificate(bound=11))

    @pytest.mark.parametrize("kind", ["Constant", "weird", "none", ["constant"]])
    def test_unknown_kind_rejected(self, kind):
        # certify_theorem would check the constant right side, and render
        # would print c*(-1)^n under "certified by checking n = 0 .. 10"
        thm = forge(1, 2)[0]
        assert thm.rhs_kind == "constant"
        with pytest.raises(MalformedTheorem, match=r"^bad rhs_kind "):
            dataclasses.replace(thm, rhs_kind=kind)


class TestSerialization:
    def test_round_trip(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple)
        assert theorem_from_json(json.loads(render(thm, "json"))) == thm

    def test_schema_fields(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple)
        data = theorem_to_json(thm)
        assert set(data) == {
            "a",
            "b",
            "c",
            "rhs_kind",
            "gfs",
            "certified_depth",
            "provenance",
        }
        assert data["gfs"][0] == {"num": [1, 53, 9], "den": [1, -82, -82, 1]}

    def test_malformed_rejected(self):
        with pytest.raises(MalformedTheorem):
            theorem_from_json({"a": 1, "b": 1, "c": 0, "rhs_kind": "constant", "gfs": []})
        with pytest.raises(MalformedTheorem):
            theorem_from_json(
                {
                    "a": 1,
                    "b": 1,
                    "c": 1,
                    "rhs_kind": "constant",
                    "gfs": [
                        {"num": [1], "den": [0, 1]},
                        {"num": [1], "den": [1]},
                        {"num": [1], "den": [1]},
                    ],
                }
            )

    def test_input_depth_is_not_trusted(self):
        # 1 + 1 + 1 = 5 is false at n = 0, whatever depth the input claims
        ones = {"num": [1], "den": [1, -1]}
        data = {"a": 1, "b": 1, "c": 5, "rhs_kind": "constant", "gfs": [ones] * 3,
                "certified_depth": 7}
        thm = theorem_from_json(data)
        assert thm.certificate.certified is False
        assert thm.certificate.witness == 0
        text = render(thm, "text")
        assert text.startswith("Refuted:")
        assert "for all n" not in text and "certified by checking" not in text
        assert text.endswith("fails at n = 0")
        latex = render(thm, "latex")
        assert r"&\ne 5 \quad (n = 0)" in latex
        assert latex.endswith("Refuted: the identity fails at $n = 0$.")

    @pytest.mark.parametrize("value", [1.9, "1", "1/3", True, None])
    @pytest.mark.parametrize("where", ["a", "num"])
    def test_non_integer_rejected(self, value, where):
        # with a = 1.9 read as 1, 1 + 1 + 1 = 3 would be certified
        ones = {"num": [1], "den": [1, -1]}
        data = {"a": 1, "b": 1, "c": 3, "rhs_kind": "constant", "gfs": [ones] * 3}
        if where == "a":
            data["a"] = value
        else:
            data["gfs"] = [{"num": [value], "den": [1, -1]}, ones, ones]
        with pytest.raises(MalformedTheorem):
            theorem_from_json(data)

    def test_render_text_contains_constant(self, constant_triple_6859):
        gf_a, gf_b, gf_c = constant_triple_6859
        thm = make_theorem(2, 1, 6859, "constant", (gf_b, gf_c, gf_a))
        text = render(thm, "text")
        assert "= 6859" in text
        assert text.startswith("Theorem:") and "then for all n >= 0" in text
        assert text.endswith(f"(certified by checking n = 0 .. {thm.certificate.bound - 1})")
        latex = render(thm, "latex")
        assert r"\frac" in latex
        assert r"&= 6859 \quad (n \ge 0)" in latex
        assert latex.endswith(f"Certified by checking $n = 0, \\dots, {thm.certificate.bound - 1}$.")


class TestForge:
    @pytest.mark.parametrize(
        "a, b, options",
        [
            (True, -1, {}),
            (1, False, {}),
            (1.5, 2, {}),
            (1, 2.0, {}),
            ("1", -1, {}),
            (1, -1, {"search_bound": 2.5}),
            (1, -1, {"search_bound": True}),
        ],
    )
    def test_weights_and_bound_not_ints_rejected(self, a, b, options):
        # a = True would be written "a": true, which verify refuses, and a
        # float would reach range
        with pytest.raises(ValueError):
            forge(a, b, **options)

    def test_empty_seed_set(self):
        with pytest.raises(EmptySeedSet):
            forge(1, 1, search_bound=2)

    def test_taxicab_weights_emit(self):
        theorems = forge(1, -1)
        assert theorems
        for thm in theorems:
            assert thm.c != 0
            assert thm.rhs_kind in ("constant", "alternating")
            assert certify_theorem(thm).certified
            # weight bookkeeping: c = -w_j * e^3 up to the sign normalization
            e = thm.provenance["orbit"]["target"]
            w = thm.provenance["solved_weight"]
            assert abs(thm.c) == abs(w * e**3)
            if thm.rhs_kind == "alternating":
                assert thm.provenance["orbit"]["kind"] == "alternating"

    def test_equal_weights_emit(self):
        theorems = forge(1, 1)
        assert theorems
        assert all(certify_theorem(t).certified for t in theorems)

    def test_deterministic(self):
        assert forge(1, 1) == forge(1, 1)

    def test_refusals_format_no_form(self, monkeypatch):
        # every sol_quad call of forge(1, 3) is refused, and forge drops the
        # error unread, so no form is ever printed
        forge_module = importlib.import_module("cubeforge.forge")
        printed, refused = [], []
        to_text = QuadForm.__str__
        monkeypatch.setattr(QuadForm, "__str__", lambda form: printed.append(form) or to_text(form))
        solve = forge_module.sol_quad

        def recording(form, **options):
            try:
                return solve(form, **options)
            except (DefiniteForm, NoOrbitFound):
                refused.append(form)
                raise

        monkeypatch.setattr(forge_module, "sol_quad", recording)
        assert forge(1, 3) == []
        assert len(refused) == 4 * len(search_quadruples(1, 3, 12)) > 0
        assert printed == []

    def test_spot_checks_beyond_depth(self):
        rng = random.Random(7)
        for thm in forge(1, -1)[:2]:
            cert = certify_theorem(thm)
            depth = 10 * cert.bound
            seqs = thm.sequences(depth)
            for _ in range(10):
                n = rng.randint(cert.bound, depth - 1)
                rhs = thm.c * (
                    -1 if (thm.rhs_kind == "alternating" and n % 2) else 1
                )
                lhs = (
                    thm.a * seqs[0][n] ** 3
                    + thm.a * seqs[1][n] ** 3
                    + thm.b * seqs[2][n] ** 3
                )
                assert lhs == rhs

    def test_max_theorems_cap_is_canonical_prefix(self):
        full = forge(1, 1)
        assert forge(1, 1, max_theorems=1) == full[:1]

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"max_theorems": 0}, "max_theorems must be at least 1"),
            ({"max_theorems": -1}, "max_theorems must be at least 1"),
            ({"target_cap": 0}, "target_cap must be at least 1"),
            ({"target_cap": -5}, "target_cap must be at least 1"),
        ],
    )
    def test_work_option_below_one_rejected(self, option, message):
        # max_theorems=-1 used to drop the last theorem through result[:-1]
        with pytest.raises(ValueError, match=message):
            forge(1, -1, **option)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("max_theorems", True),
            ("max_theorems", 2.0),
            ("target_cap", 30.5),
            ("search_bound", 12.0),
            ("search_bound", None),
        ],
    )
    def test_work_option_not_an_int_rejected(self, option, value):
        # max_theorems=True used to run as 1
        with pytest.raises(ValueError, match=f"{option} must be an int, not {type(value).__name__}"):
            forge(1, -1, **{option: value})

    def test_extra_seed_accepted(self):
        from cubeforge import WeightedQuadruple

        extra = WeightedQuadruple(1, -1, 9, 10, 12, 1)
        theorems = forge(1, -1, extra_seeds=[extra])
        assert all(certify_theorem(t).certified for t in theorems)

    def test_extra_seed_outside_the_search_box(self):
        # (-2, 4, -1, -3) lies beyond search_bound 3, which finds only
        # (1, 1, 0, -1): the extra seed is appended and forged too
        from cubeforge import WeightedQuadruple

        assert len(forge(1, 2, search_bound=3, max_theorems=100)) == 2
        extra = WeightedQuadruple(1, 2, -2, 4, -1, -3)
        theorems = forge(1, 2, search_bound=3, max_theorems=100, extra_seeds=[extra])
        assert len(theorems) == 4
        seeds = [t.provenance["seed"] for t in theorems]
        assert seeds.count([-2, 4, -1, -3]) == 2
        assert all(t.certificate.certified for t in theorems)

    def test_sequences_never_identically_zero(self):
        for thm in forge(1, 1):
            for seq in thm.sequences(12):
                assert any(v != 0 for v in seq)

    def test_golden_pairs_within_verify_caps(self, tmp_path, capsys):
        # the orbit read-off stops at p = 2, so every forged theorem passes
        # verify's caps (quadform._unit_recurrence) and verify re-certifies
        # it at the depth forge recorded; the pairs of tests/test_golden.py
        theorems = []
        for a, b in itertools.product(range(1, 6), range(-6, 7)):
            if b:
                try:
                    theorems += forge(a, b)
                except EmptySeedSet:
                    pass
        payload = [theorem_to_json(t) for t in theorems]
        assert len(payload) > 100
        for thm, item in zip(theorems, payload):
            assert read_gfs((g["num"], g["den"]) for g in item["gfs"]) == list(thm.gfs)
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["verify", "--file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"certified, depth {item['certified_depth']}" for item in payload]


    def test_golden_orbits_carry_their_read_off(self, monkeypatch):
        # every orbit forge builds on the pairs of tests/test_golden.py holds
        # the read-off's denominator 1 - t*z^p + N*z^(2p), p <= 2, N = +-1,
        # its first 2p points, and the generating functions they give
        forge_module = importlib.import_module("cubeforge.forge")
        orbits = []

        def recording(form, **options):
            orbit = sol_quad(form, **options)
            orbits.append(orbit)
            return orbit

        monkeypatch.setattr(forge_module, "sol_quad", recording)
        for a, b in itertools.product(range(1, 6), range(-6, 7)):
            if b:
                try:
                    forge(a, b)
                except EmptySeedSet:
                    pass
        assert len(orbits) > 100
        for orbit in orbits:
            den, p = orbit.den, (len(orbit.den) - 1) // 2
            assert p in (1, 2) and len(orbit.start) == 2 * p
            assert den == (1,) + (0,) * (p - 1) + (den[p],) + (0,) * (p - 1) + (den[-1],)
            assert den[-1] in (1, -1)
            assert orbit.gf_m == gf_from_den([m for m, _ in orbit.start], den)
            assert orbit.gf_n == gf_from_den([n for _, n in orbit.start], den)

    def test_euclid_mod_p_only_when_both_sides_pass_degree_two(self, monkeypatch):
        # RationalGF decides coprimality in closed form when one side has
        # at most 3 coefficients (cfinite._coprime); over forge on the pairs
        # of tests/test_golden.py, Euclid mod p is left 30 of its 1562
        # normal forms, of degrees (3, 4) and (9, 10)
        euclid, coprime = cfinite._coprime_mod_p, cfinite._coprime
        shapes, tests = [], []

        def recording_euclid(num, den):
            shapes.append((len(num) - 1, len(den) - 1))
            return euclid(num, den)

        def recording_coprime(num, den):
            tests.append(min(len(num), len(den)))
            return coprime(num, den)

        monkeypatch.setattr(cfinite, "_coprime_mod_p", recording_euclid)
        monkeypatch.setattr(cfinite, "_coprime", recording_coprime)
        for a, b in itertools.product(range(1, 6), range(-6, 7)):
            if b:
                try:
                    forge(a, b)
                except EmptySeedSet:
                    pass
        assert all(min(shape) >= 3 for shape in shapes)
        assert Counter(shapes) == {(3, 4): 12, (9, 10): 18}
        assert len(tests) == 1562 and sum(length <= 3 for length in tests) == 1532


def reference_value_gfs(forms, den, gf_m, gf_n):
    """The reconstruction by guessing that forge used before the symmetric
    square: with r = deg den, the orbit's recurrence, expand
    2*(C(r+1, 2) + 1) + 6 terms of the orbit, evaluate the quadratics there
    and guess each value sequence with seq_from_terms up to order
    C(r+1, 2) + 1; None when a value sequence vanishes on every term."""
    r = len(den) - 1
    order_cap = comb(r + 1, 2) + 1
    count = 2 * order_cap + 6
    ms = taylor_coefficients(gf_m, count)
    ns = taylor_coefficients(gf_n, count)
    seqs = [[f.value(mv, nv) for mv, nv in zip(ms, ns)] for f in forms]
    if any(all(v == 0 for v in s) for s in seqs):
        return None
    return [seq_from_terms(s, order_cap) for s in seqs]


# factors of orbit denominators, each with constant term 1: roots 1, -1, 2,
# -3 and 3 +- 2*sqrt(2) (Pell), (3 +- sqrt(5))/2, 1 +- sqrt(2), (1 +- sqrt(5))/2
DEN_FACTORS = [(1, -1), (1, 1), (1, -2), (1, 3), (1, -6, 1), (1, -3, 1), (1, -2, -1), (1, -1, -1)]


@st.composite
def orbit_dens(draw):
    """A product of DEN_FACTORS (repeats allowed) of order 1 to 4."""
    den, order = (1,), draw(st.integers(1, 4))
    while len(den) - 1 < order:
        factor = draw(st.sampled_from(DEN_FACTORS))
        if len(den) - 1 + len(factor) - 1 <= order:
            den = _mul(den, factor)
        elif len(den) - 1 == order - 1:
            den = _mul(den, draw(st.sampled_from(DEN_FACTORS[:4])))
    return den


@st.composite
def orbit_pairs(draw):
    """(den, gf_m, gf_n): proper integer generating functions gf_m, gf_n
    whose lowest-terms denominator is den, as sol_quad builds them."""
    den = draw(orbit_dens())
    nums = st.lists(st.integers(-5, 5), min_size=len(den) - 1, max_size=len(den) - 1)
    gf_m, gf_n = RationalGF(draw(nums), den), RationalGF(draw(nums), den)
    assume(gf_m.den == den and gf_n.den == den)
    return den, gf_m, gf_n


forms = st.tuples(*[st.integers(-4, 4)] * 3).filter(any).map(lambda t: QuadForm(*t))


@functools.cache
def solved_small_orbits():
    """The orbits sol_quad finds, at forge's options, for the indefinite
    forms with coefficients in [-6, 6] (448 of 1388 forms)."""
    orbits, tables = [], {}
    for coeffs in itertools.product(range(-6, 7), repeat=3):
        if coeffs[1] ** 2 > 4 * coeffs[0] * coeffs[2]:
            try:
                orbits.append(sol_quad(QuadForm(*coeffs), _tables=tables))
            except NoOrbitFound:
                pass
    return orbits


class TestValueGFs:
    # examples: (1-t)^2, (1+t)^2(1-3t+t^2), roots 1 and -1 with n = 0 and
    # n = 2m, and m^2 - mn, which is zero along n = m
    @settings(max_examples=300, deadline=None)
    @given(orbit_pairs(), st.lists(forms, min_size=1, max_size=3))
    @example(((1, -2, 1), RationalGF((1, 0), (1, -2, 1)), RationalGF((0, 1), (1, -2, 1))),
             [QuadForm(1, 0, 0), QuadForm(0, 1, 0), QuadForm(2, -3, 1)])
    @example(((1, -1, -4, -1, 1), RationalGF((1, 0, 0, 0), (1, -1, -4, -1, 1)),
              RationalGF((0, 1, 0, 0), (1, -1, -4, -1, 1))),
             [QuadForm(1, 0, -1), QuadForm(3, 1, 2)])
    @example(((1, -1), RationalGF((1,), (1, -1)), RationalGF((0,), (1, -1))), [QuadForm(1, 0, 0)])
    @example(((1, 1), RationalGF((1,), (1, 1)), RationalGF((2,), (1, 1))), [QuadForm(1, 1, -1)])
    @example(((1, -6, 1), RationalGF((1, -3), (1, -6, 1)), RationalGF((1, -3), (1, -6, 1))),
             [QuadForm(1, 0, 1), QuadForm(1, -1, 0)])
    def test_matches_the_guess(self, orbit, polys):
        assert _value_gfs(polys, *orbit) == reference_value_gfs(polys, *orbit)

    @settings(max_examples=100, deadline=None)
    @given(orbit_pairs(), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    def test_vanishing_value_sequence(self, orbit, k, x, y):
        # n = k*m makes (k*m - n)(x*m + y*n) vanish along the whole orbit;
        # with k = 0, n is the zero sequence, which obeys den too
        den, gf_m, _ = orbit
        gf_n = RationalGF([k * c for c in gf_m.num], gf_m.den)
        assume((x, y) != (0, 0))
        vanishing = QuadForm(k * x, k * y - x, -y)
        polys = [QuadForm(1, 0, 1), vanishing]
        assert _value_gfs(polys, den, gf_m, gf_n) is None
        assert reference_value_gfs(polys, den, gf_m, gf_n) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data(), forms)
    def test_solved_orbit_values_never_vanish(self, data, poly):
        # _build_theorem's proof: the orbit holds three points of |Q| = |e|
        # on three distinct lines through the origin, and a nonzero
        # quadratic vanishes on at most two such lines
        orbit = data.draw(st.sampled_from(solved_small_orbits()))
        assert _value_gfs([poly], orbit.den, orbit.gf_m, orbit.gf_n) is not None

    @settings(max_examples=200, deadline=None)
    @given(orbit_pairs())
    def test_symmetric_square_annihilates_products(self, orbit):
        den, gf_m, gf_n = orbit
        den2 = _symmetric_square(den)
        rho = comb(len(den), 2)
        assert len(den2) == rho + 1
        ms = taylor_coefficients(gf_m, 3 * rho)
        ns = taylor_coefficients(gf_n, 3 * rho)
        for v in ([x * x for x in ms], [x * y for x, y in zip(ms, ns)], [y * y for y in ns]):
            for k in range(rho, 3 * rho):
                assert sum(den2[i] * v[k - i] for i in range(rho + 1)) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    def test_symmetric_square_of_integer_roots(self, roots):
        den = (1,)
        for a in roots:
            den = _mul(den, (1, -a))
        expected = (1,)
        for i, a in enumerate(roots):
            for b in roots[i:]:
                expected = _mul(expected, (1, -a * b))
        assert _symmetric_square(den) == expected

    def test_degree_reaches_the_bound(self):
        # the tribonacci roots a_i have six distinct products a_i a_j, so a
        # value sequence can need the whole symmetric square: degree 6 = rho
        den = (1, -1, -1, -1)
        gf_m, gf_n = RationalGF((1,), den), RationalGF((0, 1, 1), den)
        polys = [QuadForm(1, 0, 0), QuadForm(1, 1, 0), QuadForm(2, -1, 3)]
        gfs = _value_gfs(polys, den, gf_m, gf_n)
        assert [len(g.den) - 1 for g in gfs] == [6, 6, 6]
        assert all(g.den == _symmetric_square(den) for g in gfs)
        assert gfs == reference_value_gfs(polys, den, gf_m, gf_n)

    def test_one_variable_orbit(self):
        # m = 1, n = i: gf_m = 1/(1 - z) reduces below the orbit's
        # denominator (1 - z)^2, which only gf_n keeps; the value sequences
        # have order 3, which a guess up to order C(1 + 1, 2) + 1 = 2 from
        # gf_m's denominator could not reach
        orbit = PellOrbit(QuadForm(1, 0, 0), (1, -2, 1), ((1, 0), (1, 1)), 1, "constant")
        assert orbit.gf_m.den == (1, -1) and orbit.certificate.certified
        polys = [QuadForm(0, 0, 1), QuadForm(1, 1, 0), QuadForm(2, -3, 1)]
        gfs = _value_gfs(polys, orbit.den, orbit.gf_m, orbit.gf_n)
        assert gfs == reference_value_gfs(polys, orbit.den, orbit.gf_m, orbit.gf_n)
        assert gfs[0].den == (1, -3, 3, -1)

    def test_reduced_pair_gives_the_same_values(self):
        # (m - n)^2 = 1: the read-off fits (1 - z^2)^2, and both generating
        # functions reduce to (1 - z)^2 (1 + z), which their sequences obey
        # from index 0 as well
        orbit = sol_quad(QuadForm(1, -2, 1))
        assert orbit.den == (1, 0, -2, 0, 1) and len(orbit.start) == 4
        assert orbit.gf_m.den == orbit.gf_n.den == (1, -1, -1, 1)
        polys = [QuadForm(1, 0, 0), QuadForm(0, 1, 0), QuadForm(2, -3, 1), QuadForm(1, -2, 1)]
        gfs = _value_gfs(polys, orbit.den, orbit.gf_m, orbit.gf_n)
        assert gfs == _value_gfs(polys, orbit.gf_m.den, orbit.gf_m, orbit.gf_n)
        assert gfs == reference_value_gfs(polys, orbit.den, orbit.gf_m, orbit.gf_n)


class TestLatexWeights:
    @pytest.mark.parametrize(
        "b, term", [(-1, "A_n^3 + B_n^3 - C_n^3 "), (-3, r"A_n^3 + B_n^3 - 3\,C_n^3 ")]
    )
    def test_negative_b(self, alternating_triple, b, term):
        thm = make_theorem(1, b, 1, "alternating", alternating_triple)
        latex = render(thm, "latex")
        assert term in latex and "+ -" not in latex
        # the text format is unchanged
        assert f"A(n)^3 + B(n)^3 + ({b})*C(n)^3" in render(thm, "text")

    @pytest.mark.parametrize(
        "a, term", [(-1, "-A_n^3 - B_n^3 + C_n^3 "), (-2, r"-2\,A_n^3 - 2\,B_n^3 + C_n^3 ")]
    )
    def test_negative_a_from_json(self, alternating_triple, a, term):
        data = {"a": a, "b": 1, "c": -1, "rhs_kind": "alternating",
                "gfs": [g.to_json() for g in alternating_triple]}
        latex = render(theorem_from_json(data), "latex")
        assert term in latex and "+ -" not in latex

    def test_forged_negative_weight(self):
        latex = "\n".join(render(t, "latex") for t in forge(1, -1))
        assert r"A_n^3 + B_n^3 - C_n^3 &=" in latex and "+ -" not in latex


# Reference printers, each with its own copy of the sign and unit-coefficient
# rules: the oracles for MultiPoly.__str__, forge._poly_text (its LaTeX form
# is the text with "*" replaced by a space) and the LaTeX left side of
# render, joined from reference_latex_term.

def reference_multipoly_str(p):
    if not p.terms:
        return "0"
    pieces = []
    for ev, c in p.sorted_terms():
        factors = []
        for v, e in zip(p.variables, ev):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if factors:
            mono = "*".join(factors)
            body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        else:
            body = str(abs(c))
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def reference_poly_text(coeffs):
    if not coeffs:
        return "0"
    pieces = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            v = "t" if i == 1 else f"t^{i}"
            body = v if abs(c) == 1 else f"{abs(c)}*{v}"
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def reference_latex_term(w, body, first):
    coeff = "" if abs(w) == 1 else f"{abs(w)}\\,"
    if first:
        return f"{'-' if w < 0 else ''}{coeff}{body}"
    return f" {'-' if w < 0 else '+'} {coeff}{body}"


# coefficients at the edges of the sign and unit rules: +-1, +-2, 0, and
# magnitudes of at least 10^30
_printed_coeffs = st.one_of(
    st.sampled_from([1, -1, 2, -2, 0]),
    st.integers(10**30, 10**40).flatmap(lambda c: st.sampled_from([c, -c])),
)


class TestSignedSum:
    @settings(deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
            _printed_coeffs,
            max_size=8,
        ),
        st.sampled_from([("x", "y", "z"), ("m", "n", "t")]),
    )
    @example({}, ("x", "y", "z"))
    @example({(0, 0, 0): -1}, ("x", "y", "z"))
    @example({(0, 0, 0): 1, (1, 0, 0): -1, (0, 2, 1): 10**30}, ("x", "y", "z"))
    def test_multipoly_text_matches_reference(self, terms, variables):
        p = MultiPoly(variables, terms)
        assert str(p) == reference_multipoly_str(p)

    @settings(deadline=None)
    @given(st.lists(_printed_coeffs, max_size=8))
    @example([])
    @example([0, 0])
    @example([-1])
    @example([0, -1, 0, 2])
    @example([-(10**30), 1, -2])
    def test_poly_text_matches_reference(self, coeffs):
        text = reference_poly_text(coeffs)
        assert _poly_text(coeffs) == text
        assert _poly_text(coeffs, " ") == text.replace("*", " ")
        poly = MultiPoly(("t",), {(i,): c for i, c in enumerate(coeffs)})
        assert parse_poly(_poly_text(coeffs), ("t",)) == poly

    @settings(deadline=None)
    @given(_printed_coeffs, _printed_coeffs)
    @example(1, -1)
    @example(-2, 1)
    @example(0, 0)
    def test_latex_left_side_matches_reference(self, alternating_triple, a, b):
        lhs = "".join(
            reference_latex_term(w, f"{v}_n^3", i == 0)
            for i, (w, v) in enumerate(((a, "A"), (a, "B"), (b, "C")))
        )
        thm = make_theorem(a, b, 1, "alternating", alternating_triple)
        assert render(thm, "latex").splitlines()[4].startswith(lhs + " &")


# JSON values the CLI can print: str keys, lists and tuples, str with
# non-ASCII text, quotes, backslashes and control characters, ints of both
# signs, and bools and None, also inside int lists
_json_text_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600a'),
)
_json_text_values = st.recursive(
    _json_text_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonText:
    @settings(deadline=None)
    @given(_json_text_values)
    @example([])
    @example({})
    @example({"a": [], "b": {}, "c": ()})
    @example([1, True, -2, False, None])
    @example({"\u00e9\"\x01": "\U0001f600\\\n"})
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_other_scalars_fall_back_to_json_dumps(self):
        value = {"x": [1.5, float("inf")]}
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_non_str_key_is_refused(self):
        with pytest.raises(TypeError):
            json_text({"a": {1: 2}})

    def test_forge_output_is_json_dumps(self):
        value = [theorem_to_json(t) for t in forge(1, 2)]
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)
