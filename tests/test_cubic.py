from dataclasses import replace
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubeforge import (
    MultiPoly,
    ParamQuadruple,
    QuadForm,
    WeightedQuadruple,
    morph,
    search_quadruples,
    verify_param,
)
from cubeforge.errors import InvalidQuadruple
from cubeforge.kernel import content_primitive
from cubeforge.parsing import parse_poly


def P(text):
    return QuadForm.from_poly(parse_poly(text, ("m", "n")))


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


def reference_search_quadruples(a, b, bound):
    """The search before representatives were fixed by x + y > 0: every
    row x <= y, the lexicographic representative test against the
    negation (-y, -x, -w, -z), and the trivial test on the built
    quadruple."""
    cubes = {v: v**3 for v in range(-bound, bound + 1)}
    by_value = {}
    for z in range(-bound, bound + 1):
        for w in range(-bound, z + 1):
            by_value.setdefault(b * (cubes[z] + cubes[w]), []).append((z, w))
    del by_value[0]
    found = []
    for x in range(-bound, bound + 1):
        for y in range(x, bound + 1):
            s = a * (cubes[x] + cubes[y])
            for z, w in by_value.get(-s, ()):
                if gcd(x, y, z, w) != 1 or (x, y, z, w) < (-y, -x, -w, -z):
                    continue
                q = WeightedQuadruple(a, b, x, y, z, w)
                if not q.trivial:
                    found.append(q)
    found.sort(key=lambda q: (max(abs(c) for c in q.coords), q.coords))
    return found


def expansion(pq):
    """Independent oracle for verify_param: the full symbolic expansion of
    a*P1^3 + a*P2^3 + b*P3^3 + b*P4^3 in MultiPoly arithmetic."""
    total = MultiPoly.constant(0, ("m", "n"))
    for weight, p in zip(pq.weights, pq.polys):
        total = total + weight * p.to_poly() ** 3
    return total


def expansion_holds(pq):
    return expansion(pq).is_zero


def reference_morph(s):
    """morph built with MultiPoly arithmetic and checked by the full
    expansion: the oracle for the coefficient-triple morph.  The
    degeneracies that morph's docstring rules out for nontrivial seeds are
    asserted, so the oracle checks that proof on every seed it sees."""
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
    forms = [
        QuadForm.from_poly(
            MultiPoly(p.variables, {ev: coeff // common for ev, coeff in p.terms.items()})
        )
        for p in polys
    ]
    pq = ParamQuadruple(a, b, *forms)
    assert expansion_holds(pq)
    return pq


def _triples(pq):
    return [[f.qa, f.qb, f.qc] for f in pq.polys]


def _param(a, b, triples):
    return ParamQuadruple(a, b, *(QuadForm(*t) for t in triples))


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

    @pytest.mark.parametrize(
        "values", [(True, -1, -4, 6, 5, 3), (1, -1.0, -4, 6, 5, 3), (1, -1, -4, 6, 5, 3.0)]
    )
    def test_not_ints_rejected(self, values):
        # a seed of weight True passes forge(1, -1)'s weight test, as
        # True == 1, and its theorems would carry a = True
        with pytest.raises(InvalidQuadruple, match="must be ints"):
            WeightedQuadruple(*values)

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

    @pytest.mark.parametrize(
        "a, b, bound",
        [(True, -1, 3), (1, True, 3), (1.5, 2, 3), (0, 1, 3), (1, -1, 2.5), (1, -1, True), (1, -1, 0)],
    )
    def test_weights_and_bound_not_ints_rejected(self, a, b, bound):
        # a bound True would read as 1, and a float weight or bound would
        # reach range
        with pytest.raises(ValueError):
            search_quadruples(a, b, bound)

    def test_sorted_and_canonical(self):
        seeds = search_quadruples(1, 1, 12)
        keys = [(max(abs(c) for c in q.coords), q.coords) for q in seeds]
        assert keys == sorted(keys)
        for q in seeds:
            assert q.x <= q.y and q.z >= q.w and q.x + q.y > 0

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

    @settings(deadline=None)
    @given(
        st.integers(1, 9),
        st.sampled_from([1, -1]),
        st.sampled_from([b for b in range(-15, 16) if b]),
        st.integers(1, 12),
    )
    @example(1, 1, 1, 12)
    @example(1, -1, -1, 12)
    @example(9, -1, 15, 12)
    def test_matches_reference_search(self, a, sign, b, bound):
        # one representative per negation pair, and the trivial matches
        # dropped before any quadruple is built: the same list
        seeds = search_quadruples(sign * a, b, bound)
        assert seeds == reference_search_quadruples(sign * a, b, bound)
        for q in seeds:
            assert q.x + q.y > 0 and not q.trivial


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
                assert gcd(*(c for t in _triples(pq) for c in t)) == 1


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
        assert verify_param(_param(1, 1, triples))
        for i in range(4):
            for j in range(3):
                for delta in (1, -1):
                    broken = [list(t) for t in triples]
                    broken[i][j] += delta
                    assert not verify_param(_param(1, 1, broken))


class TestVerifyParam:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(SEEDS),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(-2, 2)), max_size=2),
    )
    def test_decides_like_expansion_near_morphs(self, seed, nudges):
        triples = _triples(morph(seed))
        for i, j, delta in nudges:
            triples[i][j] += delta
        assume(all(any(t) for t in triples))
        pq = _param(seed.a, seed.b, triples)
        assert verify_param(pq) == expansion_holds(pq)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-5, 5).filter(bool),
        st.integers(-5, 5).filter(bool),
        st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any),
            min_size=4,
            max_size=4,
        ),
    )
    def test_decides_like_expansion(self, a, b, triples):
        pq = _param(a, b, triples)
        assert verify_param(pq) == expansion_holds(pq)

    # a = b = 1 quadruples whose sextic has the one term m^(6-k) n^k
    @pytest.mark.parametrize(
        "k, triples",
        [
            (0, [(-1, -1, 2), (-1, 1, 2), (0, 0, -2), (1, 0, -2)]),
            (1, [(-1, -1, 0), (0, 1, 0), (0, 1, 0), (1, -1, 0)]),
            (2, [(-1, -1, 0), (-1, 1, 0), (1, 0, 0), (1, 0, 0)]),
            (3, [(-2, -2, -2), (0, -1, 0), (0, -1, 0), (2, 2, 2)]),
            (4, [(-1, 0, -1), (-1, 0, 1), (1, 0, 0), (1, 0, 0)]),
            (5, [(0, -1, -1), (0, -1, 1), (0, 1, 0), (0, 1, 0)]),
            (6, [(-2, -1, 1), (-2, 1, 1), (2, 0, -1), (2, 0, 0)]),
        ],
    )
    def test_every_coefficient_counts(self, k, triples):
        pq = _param(1, 1, triples)
        assert list(expansion(pq).terms) == [(6 - k, k)]
        assert not verify_param(pq)

    def test_classic_quadruple(self):
        assert verify_param(CLASSIC)

    def test_perturbation_breaks_identity(self):
        broken = replace(CLASSIC, p1=replace(CLASSIC.p1, qa=CLASSIC.p1.qa + 1))
        assert not verify_param(broken)

    def test_morph_outputs_verify(self):
        for seed in search_quadruples(1, -1, 12):
            assert verify_param(morph(seed))
