from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubeforge import (
    MultiPoly,
    ParamQuadruple,
    WeightedQuadruple,
    morph,
    search_quadruples,
    verify_param,
)
from cubeforge.cubic import _param_from_triples
from cubeforge.errors import InvalidQuadruple
from cubeforge.kernel import content_primitive
from cubeforge.parsing import parse_poly


def P(text):
    return parse_poly(text, ("m", "n"))


CLASSIC = ParamQuadruple(
    1,
    1,
    P("m^2 + 7*m*n - 9*n^2"),
    P("2*m^2 - 4*m*n + 12*n^2"),
    P("-2*m^2 - 10*n^2"),
    P("-(m^2) + 9*m*n + n^2"),
)


def naive_search(a, b, bound):
    """Independent oracle: full solution set in the box, no quotient."""
    sols = set()
    rng = range(-bound, bound + 1)
    for x in rng:
        for y in rng:
            s = a * (x**3 + y**3)
            for z in rng:
                zc = b * z**3
                for w in rng:
                    if s + zc + b * w**3 != 0:
                        continue
                    if (x, y, z, w) == (0, 0, 0, 0):
                        continue
                    if gcd(gcd(abs(x), abs(y)), gcd(abs(z), abs(w))) != 1:
                        continue
                    t1, t2 = a * x**3, a * y**3
                    t3, t4 = b * z**3, b * w**3
                    if (
                        (t1 == -t2 and t3 == -t4)
                        or (t1 == -t3 and t2 == -t4)
                        or (t1 == -t4 and t2 == -t3)
                    ):
                        continue
                    sols.add((x, y, z, w))
    return sols


def reference_morph(s):
    """morph built with MultiPoly arithmetic and checked by verify_param:
    the oracle for the coefficient-triple morph.  The degeneracies that
    morph's docstring rules out for nontrivial seeds are asserted, so the
    oracle checks that proof on every seed it sees."""
    a, b = s.a, s.b
    x, y, z, w = s.coords
    m = MultiPoly.variable("m", ("m", "n"))
    n = MultiPoly.variable("n", ("m", "n"))
    c = a * (x + y) * m * m + b * (z + w) * n * n
    d = -(a * (x * x - y * y) * m + b * (z * z - w * w) * n)
    polys = [c * x + d * m, c * y - d * m, c * z + d * n, c * w - d * n]
    assert not all(p.is_zero for p in polys), "morph collapsed to zero"
    assert not ((polys[0] + polys[1]).is_zero and (polys[2] + polys[3]).is_zero), (
        "morph is proportional to the trivial pattern"
    )
    assert not any(p.is_zero for p in polys), "morph produced a vanishing component"
    common = 0
    for p in polys:
        common = gcd(common, content_primitive(p)[0])
    polys = [
        MultiPoly(p.variables, {ev: coeff // common for ev, coeff in p.terms.items()})
        for p in polys
    ]
    pq = ParamQuadruple(a, b, *polys)
    assert verify_param(pq)
    return pq


QUADRATIC = ((2, 0), (1, 1), (0, 2))


def _triples(pq):
    return [[p.terms.get(ev, 0) for ev in QUADRATIC] for p in pq.polys]


def _param(a, b, triples):
    polys = [MultiPoly(("m", "n"), dict(zip(QUADRATIC, t))) for t in triples]
    return ParamQuadruple(a, b, *polys)


def _sextic_holds(a, b, triples):
    try:
        _param_from_triples(a, b, triples)
    except AssertionError:
        return False
    return True


SEEDS = [seed for a, b in ((1, 1), (1, -1), (2, 3), (3, -5)) for seed in search_quadruples(a, b, 8)]


@st.composite
def wide_seeds(draw):
    """A seed of search_quadruples(a, b, 12) for weights |a| <= 9, |b| <= 15."""
    a = draw(st.integers(-9, 9).filter(bool))
    b = draw(st.integers(-15, 15).filter(bool))
    seeds = search_quadruples(a, b, 12)
    assume(seeds)
    return draw(st.sampled_from(seeds))


def expand_orbit(t):
    x, y, z, w = t
    reps = set()
    for xx, yy in ((x, y), (y, x)):
        for zz, ww in ((z, w), (w, z)):
            reps.add((xx, yy, zz, ww))
            reps.add((-xx, -yy, -zz, -ww))
    return reps


class TestWeightedQuadruple:
    def test_equation_enforced(self):
        with pytest.raises(InvalidQuadruple):
            WeightedQuadruple(1, 1, 1, 1, 1, 1)

    def test_primitivity_enforced(self):
        with pytest.raises(InvalidQuadruple):
            WeightedQuadruple(1, 1, 6, 8, 10, -12)

    def test_trivial_patterns(self):
        assert WeightedQuadruple(1, 1, 1, -1, 2, -2).trivial
        assert WeightedQuadruple(1, 1, 1, 1, -1, -1).trivial
        assert WeightedQuadruple(1, -1, 1, 2, 2, 1).trivial
        assert not WeightedQuadruple(1, 1, 3, 4, 5, -6).trivial
        assert not WeightedQuadruple(1, -1, 9, 10, 12, 1).trivial


class TestSearch:
    def test_contains_famous_seeds(self):
        coords = [q.coords for q in search_quadruples(1, 1, 12)]
        assert (3, 4, 5, -6) in coords
        assert (9, 10, -1, -12) in coords

    def test_taxicab_weights(self):
        coords = [q.coords for q in search_quadruples(1, -1, 12)]
        assert (9, 10, 12, 1) in coords

    def test_empty_below_smallest_seed(self):
        assert search_quadruples(1, 1, 2) == []

    def test_sorted_and_canonical(self):
        seeds = search_quadruples(1, 1, 12)
        keys = [(max(abs(c) for c in q.coords), q.coords) for q in seeds]
        assert keys == sorted(keys)
        for q in seeds:
            assert q.x <= q.y and q.z >= q.w

    @pytest.mark.parametrize(
        "a,b,bound", [(1, 1, 15), (1, -1, 13), (1, 2, 10), (2, 3, 8)]
    )
    def test_matches_naive_oracle(self, a, b, bound):
        oracle = naive_search(a, b, bound)
        reps = search_quadruples(a, b, bound)
        covered = set()
        for q in reps:
            orbit = expand_orbit(q.coords)
            assert not (orbit & covered), f"orbit of {q.coords} listed twice"
            covered |= orbit
        assert covered == oracle


class TestMorph:
    def test_worked_example(self):
        pq = morph(WeightedQuadruple(1, 1, -9, 12, -10, 1))
        assert pq.polys == (
            P("12*m^2 - 33*m*n + 27*n^2"),
            P("-9*m^2 + 33*m*n - 36*n^2"),
            P("-10*m^2 + 21*m*n - 3*n^2"),
            P("m^2 - 21*m*n + 30*n^2"),
        )
        # spot values from the identity
        assert 1728 - 729 - 1000 + 1 == 0
        assert 19683 - 46656 - 27 + 27000 == 0

    def test_taxicab_example(self):
        pq = morph(WeightedQuadruple(1, -1, 9, 10, 12, 1))
        assert pq.polys == (
            P("190*m^2 + 143*m*n - 117*n^2"),
            P("171*m^2 - 143*m*n - 130*n^2"),
            P("228*m^2 + 19*m*n - 13*n^2"),
            P("19*m^2 - 19*m*n - 156*n^2"),
        )
        assert 190**3 + 171**3 - 228**3 - 19**3 == 0

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            morph(WeightedQuadruple(1, 1, 1, -1, 2, -2))

    def test_all_morphs_verify_with_unit_content(self):
        for a, b in ((1, 1), (1, -1), (2, 1)):
            for seed in search_quadruples(a, b, 10):
                pq = morph(seed)
                assert verify_param(pq)
                g = 0
                for p in pq.polys:
                    for c in p.terms.values():
                        g = gcd(g, c)
                assert g == 1


    def test_matches_reference_on_sixty_pairs(self):
        seeds = 0
        for a in range(1, 6):
            for b in range(-6, 7):
                if b == 0:
                    continue
                for seed in search_quadruples(a, b, 12):
                    assert morph(seed).polys == reference_morph(seed).polys
                    seeds += 1
        assert seeds == 452

    @settings(max_examples=200, deadline=None)
    @given(wide_seeds())
    def test_matches_reference_on_wide_weights(self, seed):
        assert morph(seed).polys == reference_morph(seed).polys

    def test_off_by_one_coefficient_fails(self):
        seed = WeightedQuadruple(1, 1, -9, 12, -10, 1)
        triples = _triples(morph(seed))
        assert _sextic_holds(1, 1, triples)
        for i in range(4):
            for j in range(3):
                for delta in (1, -1):
                    broken = [list(t) for t in triples]
                    broken[i][j] += delta
                    with pytest.raises(AssertionError):
                        _param_from_triples(1, 1, broken)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(SEEDS),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(-2, 2)), max_size=2),
    )
    def test_sextic_decides_like_verify_param_near_morphs(self, seed, nudges):
        triples = _triples(morph(seed))
        for i, j, delta in nudges:
            triples[i][j] += delta
        assert _sextic_holds(seed.a, seed.b, triples) == verify_param(
            _param(seed.a, seed.b, triples)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-5, 5).filter(bool),
        st.integers(-5, 5).filter(bool),
        st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=4, max_size=4),
    )
    def test_sextic_decides_like_verify_param(self, a, b, triples):
        assert _sextic_holds(a, b, triples) == verify_param(_param(a, b, triples))


class TestVerifyParam:
    def test_classic_quadruple(self):
        assert verify_param(CLASSIC)

    def test_perturbation_breaks_identity(self):
        broken = ParamQuadruple(
            1,
            1,
            CLASSIC.p1 + MultiPoly(("m", "n"), {(2, 0): 1}),
            CLASSIC.p2,
            CLASSIC.p3,
            CLASSIC.p4,
        )
        assert not verify_param(broken)

    def test_morph_outputs_verify(self):
        for seed in search_quadruples(1, -1, 12):
            assert verify_param(morph(seed))
