import random
from contextlib import contextmanager
from functools import cache
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeforge import (
    MultiPoly,
    content_primitive,
    divides,
    exact_div,
    implicitize,
    kernel,
    rational_nullspace,
    resultant,
)
from cubeforge.cfinite import RationalGF, joint_guess_recurrence, taylor_coefficients
from cubeforge.errors import DegenerateInput, InexactDivision, ZeroPolynomial
from cubeforge.kernel import (
    _degree,
    _fold,
    _monomial_key,
    _nonzero,
    _Packing,
    _pdiv,
    _pmul,
    _remap,
    _unfold,
    rational_solve,
    try_exact_div,
)
from cubeforge.parsing import parse_poly


def P(text, variables=("m", "n")):
    return parse_poly(text, variables)


def random_poly(rng, variables, max_degree=3, max_coeff=9, terms=4):
    out = MultiPoly.constant(0, variables)
    for _ in range(terms):
        evec = tuple(rng.randint(0, max_degree) for _ in variables)
        out = out + MultiPoly(variables, {evec: rng.randint(-max_coeff, max_coeff)})
    return out


# --- oracle: determinant by permutation expansion, for small matrices ---

def naive_det(rows):
    n = len(rows)
    total = MultiPoly.constant(0, rows[0][0].variables)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = MultiPoly.constant(sign, rows[0][0].variables)
        for i in range(n):
            prod = prod * rows[i][perm[i]]
        total = total + prod
    return total


def sylvester_rows(p, q, var):
    vs = p._aligned(q)[0]
    zero = MultiPoly(vs, {})
    dp, dq = p.degree_in(var), q.degree_in(var)
    cp = list(reversed((p + zero).coefficients_in(var)))
    cq = list(reversed((q + zero).coefficients_in(var)))
    rows = []
    for r in range(dq):
        rows.append([zero] * r + cp + [zero] * (dq - r - 1))
    for r in range(dp):
        rows.append([zero] * r + cq + [zero] * (dp - r - 1))
    return rows


# --- oracle: the determinant by packed Bareiss elimination alone, first
# nonzero pivot, as resultant computed it before expansion by minors ---

def bareiss_det(rows):
    vs = tuple(dict.fromkeys(v for row in rows for p in row for v in p.variables))
    bound = 2 * sum(max(p.total_degree() for p in row) for row in rows)
    pk = _Packing(len(vs), bound)
    m = [[pk.pack(_remap(p, vs)) for p in row] for row in rows]
    n = len(m)
    sign = 1
    prev = {0: 1}
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return MultiPoly(vs, {})
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            neg_ik = {t: -c for t, c in row_i[k].items()}
            for j in range(k + 1, n):
                acc = _pmul(neg_ik.items(), row_k[j].items(), _pmul(pivot.items(), row_i[j].items(), {}))
                quot = _pdiv(_nonzero(acc), prev, pk.guard)
                assert quot is not None
                row_i[j] = quot
            row_i[k] = {}
        prev = pivot
    det = pk.unpack(m[n - 1][n - 1])
    return MultiPoly(vs, {ev: sign * c for ev, c in det.items()})


# --- oracle: substitution term by term, each term's image the product of
# power tables of the images ---

def reference_substitute(p, values):
    subs = {}
    result_vars = [v for v in p.variables if v not in values]
    for name, val in values.items():
        q = MultiPoly.constant(val) if isinstance(val, int) else val
        subs[name] = q
        for v in q.variables:
            if v not in result_vars:
                result_vars.append(v)
    vs = tuple(result_vars)
    images = [
        _remap(subs[v], vs) if v in subs else {tuple(int(u == v) for u in vs): 1}
        for v in p.variables
    ]
    weights = [_degree(img) for img in images]
    degree = max([0, *weights] + [sum(w * e for w, e in zip(weights, ev)) for ev in p.terms])
    pk = _Packing(len(vs), degree)
    packed = [pk.pack(img) for img in images]
    powers = [[{0: 1}] for _ in images]
    out = {}
    for ev, c in p.terms.items():
        prod = {0: c}
        factors = []
        for i, e in enumerate(ev):
            if e:
                table = powers[i]
                while len(table) <= e:
                    table.append(_nonzero(_pmul(table[-1].items(), packed[i].items(), {})))
                factors.append(table[e])
        last = factors.pop() if factors else {0: 1}
        for f in factors:
            prod = _pmul(prod.items(), f.items(), {})
        _pmul(prod.items(), last.items(), out)
    return MultiPoly(vs, pk.unpack(_nonzero(out)))


@contextmanager
def determinant_paths():
    """Record the size of every block the determinant expands by minors."""
    sizes = []
    expand = kernel._expand_by_minors

    def spy(block, *plan):
        sizes.append(len(block))
        return expand(block, *plan)

    kernel._expand_by_minors = spy
    try:
        yield sizes
    finally:
        kernel._expand_by_minors = expand


@contextmanager
def minor_plans():
    """Record (size, limit, cost) of every matrix the determinant costs."""
    plans = []
    plan = kernel._minor_plan

    def spy(block, limit):
        out = plan(block, limit)
        plans.append((len(block), limit, out[0]))
        return out

    kernel._minor_plan = spy
    try:
        yield plans
    finally:
        kernel._minor_plan = plan


def determinant_route(route, t=0):
    """Force the determinant's route by patching its selection: the one it
    selects, integer pivots then expansion by minors ("unpacked"), or
    variable t folded into the coefficients ("packed")."""
    select = {
        "selected": kernel._folded_variable,
        "unpacked": lambda entries, nvars: None,
        "packed": lambda entries, nvars: t,
    }[route]
    return patch.object(kernel, "_folded_variable", select)


def m_resultants(*components):
    """The two polynomials whose n-resultant ``implicitize`` takes for the
    parametrization (x, y, z) = components, each a text in m and n."""
    vs = ("m", "n", "x", "y", "z")
    x, y, z = (MultiPoly.variable(v, vs) - parse_poly(c, vs) for v, c in zip("xyz", components))
    return resultant(x, y, "m"), resultant(x, z, "m")


# --- oracle: exact division by the plain leading-term loop, which rescans
# the remainder for its graded-lex maximum at every step ---

def reference_exact_div(num, den):
    vs, a, b = num._aligned(den)
    num = MultiPoly(vs, a)
    den = MultiPoly(vs, b)
    if num.is_zero:
        return num
    if den.is_constant():
        d = den.constant_value()
        out = {}
        for ev, c in num.terms.items():
            q, r = divmod(c, d)
            if r:
                return None
            out[ev] = q
        return MultiPoly(vs, out)
    lev = max(den.terms, key=_monomial_key)
    lc = den.terms[lev]
    quot = {}
    rem = dict(num.terms)
    while rem:
        rev = max(rem, key=_monomial_key)
        rc = rem[rev]
        qev = tuple(a - b for a, b in zip(rev, lev))
        if any(e < 0 for e in qev):
            return None
        qc, leftover = divmod(rc, lc)
        if leftover:
            return None
        quot[qev] = qc
        for ev, c in den.terms.items():
            tgt = tuple(a + b for a, b in zip(qev, ev))
            s = rem.get(tgt, 0) - qc * c
            if s:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return MultiPoly(vs, quot)


# --- hypothesis strategies: exponent vectors and polynomials in up to five
# variables, with total degrees up to 2^k - 1, the top of a k-bit field ---

VARS = ("a", "b", "c", "d", "e")


@st.composite
def exponents(draw, nvars, degree):
    """An exponent vector of total degree at most ``degree``."""
    left = draw(st.integers(0, degree))
    ev = []
    for _ in range(nvars - 1):
        e = draw(st.integers(0, left))
        ev.append(e)
        left -= e
    ev.append(left)
    return tuple(draw(st.permutations(ev)))


@st.composite
def polys(draw, variables, degree, max_terms=4):
    """A polynomial of total degree exactly ``degree`` whose leading term is
    the pure power of the first variable, plus up to max_terms - 1 terms."""
    nvars = len(variables)
    lead = (degree,) + (0,) * (nvars - 1)
    terms = {lead: draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))}
    for ev in draw(st.lists(exponents(nvars, degree), max_size=max_terms - 1)):
        if ev != lead:
            terms[ev] = draw(st.integers(-5, 5))
    return MultiPoly(variables, terms)


def reference_rref(matrix):
    """Gauss-Jordan over Fraction: the reduced rows and the pivot columns.
    The oracle for the fraction-free elimination in the kernel."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def naive_rank(matrix):
    return len(reference_rref(matrix)[1])


def reference_solve(matrix, rhs):
    if not matrix:
        return []
    ncols = len(matrix[0])
    rref, pivots = reference_rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = rref[r][ncols]
    return x


def reference_nullspace(matrix):
    ncols = len(matrix[0])
    rref, pivots = reference_rref(matrix)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        scale = lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = gcd(*ints)
        if next(x for x in ints if x) < 0:
            g = -g
        basis.append([x // g for x in ints])
    return basis


def reference_joint_guess(seqs, max_order, surplus=2):
    data = [[Fraction(t) for t in s] for s in seqs]
    if not data or any(not s for s in data):
        return None
    for r in range(1, max_order + 1):
        if min(len(s) for s in data) < r:
            break
        if sum(max(0, len(s) - r) for s in data) < r + surplus:
            break
        rows = [[s[n + r - 1 - i] for i in range(r)] for s in data for n in range(len(s) - r)]
        rhs = [s[n + r] for s in data for n in range(len(s) - r)]
        sol = reference_solve(rows, rhs)
        if sol is not None:
            return sol
    return None


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def matrices(draw):
    """Tall, wide, one-row, rank-deficient (a product of thin factors) and
    zero-row matrices, with int or Fraction entries."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dense", "low-rank", "zero-rows"]))
    if kind == "low-rank":
        rank = draw(st.integers(0, min(nrows, ncols)))
        left = [[draw(ENTRIES) for _ in range(rank)] for _ in range(nrows)]
        right = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(rank)]
        return [
            [sum((left[i][k] * right[k][j] for k in range(rank)), 0) for j in range(ncols)]
            for i in range(nrows)
        ]
    matrix = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "zero-rows":
        for i in draw(st.lists(st.integers(0, nrows - 1), min_size=1)):
            matrix[i] = [0] * ncols
    return matrix


def c_finite(coeffs, initial, length):
    seq = list(initial)
    while len(seq) < length:
        seq.append(sum(e * seq[-1 - i] for i, e in enumerate(coeffs)))
    return seq[:length]


class TestFractionFreeElimination:
    """rational_solve, rational_nullspace and joint_guess_recurrence against
    the Fraction Gauss-Jordan oracle."""

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.data())
    def test_solve_matches_reference(self, matrix, data):
        ncols = len(matrix[0])
        kind = data.draw(st.sampled_from(["random", "consistent", "last-row-inconsistent"]))
        if kind == "random":
            rhs = [data.draw(ENTRIES) for _ in matrix]
        else:
            x0 = [data.draw(ENTRIES) for _ in range(ncols)]
            rhs = [sum((c * x for c, x in zip(row, x0)), 0) for row in matrix]
            if kind == "last-row-inconsistent":
                # a combination of the rows above, with its rhs off by one
                weights = [data.draw(ENTRIES) for _ in matrix]
                matrix = matrix + [
                    [sum((w * row[j] for w, row in zip(weights, matrix)), 0) for j in range(ncols)]
                ]
                rhs = rhs + [sum((w * b for w, b in zip(weights, rhs)), 0) + 1]
        expected = reference_solve(matrix, rhs)
        got = rational_solve(matrix, rhs)
        assert got == expected
        if kind == "consistent":
            assert got is not None
        if kind == "last-row-inconsistent":
            assert got is None
            assert rational_solve(matrix[:-1], rhs[:-1]) is not None

    def test_solve_free_unknowns_are_zero(self):
        # x1 and x3 are free; the pivots are the leftmost independent columns
        matrix = [[0, 2, 4, 0], [0, 1, 2, 1], [0, 3, 6, 1]]
        assert rational_solve(matrix, [2, 3, 5]) == [0, 1, 0, 2]
        assert rational_solve(matrix[::-1], [5, 3, 2]) == [0, 1, 0, 2]

    def test_solve_inconsistent_first_rows(self):
        assert rational_solve([[1, 1], [1, 1], [1, 0]], [1, 2, 0]) is None
        assert rational_solve([[0, 0]], [Fraction(1, 3)]) is None
        assert rational_solve([[0, 0]], [0]) == [0, 0]

    def test_solve_fraction_rows(self):
        # the first row is 3x + 2y = 1 once scaled, the second 3x + 2y = rhs
        matrix = [[Fraction(1, 2), Fraction(1, 3)], [3, 2], [Fraction(2, 5), 1]]
        assert rational_solve(matrix, [Fraction(1, 6), 1, Fraction(7, 5)]) == [
            Fraction(-9, 11), Fraction(19, 11)
        ]
        assert rational_solve(matrix, [Fraction(1, 6), 2, 1]) is None

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_nullspace_matches_reference(self, matrix):
        assert rational_nullspace(matrix) == reference_nullspace(matrix)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.randoms(use_true_random=False))
    def test_nullspace_independent_of_row_order(self, matrix, rng):
        shuffled = rng.sample(matrix, len(matrix))
        assert rational_nullspace(shuffled) == rational_nullspace(matrix)

    def test_nullspace_work_on_a_findform_matrix(self, monkeypatch):
        # the 11 x 11 matrix of findform --degree 3 --target constant on
        # (0 - 2t + 3t^2, 3t + 4t^2, 1 - 4t + 2t^2) / (1 + 2t - 3t^2 - t^3):
        # the ten cubic monomials and the constant column at n = 0..10.
        # The forward echelon eliminates each row against at most the rows
        # before it, C(11, 2) = 55 calls in all; clearing it to the rref as
        # well would make 91.
        den = (1, 2, -3, -1)
        seqs = [RationalGF(num, den) for num in ((0, -2, 3), (0, 3, 4), (1, -4, 2))]
        terms = [taylor_coefficients(g, 11) for g in seqs]
        monomials = [(i, j, 3 - i - j) for i in range(3, -1, -1) for j in range(3 - i, -1, -1)]
        matrix = [
            [terms[0][n] ** i * terms[1][n] ** j * terms[2][n] ** k for i, j, k in monomials] + [1]
            for n in range(11)
        ]
        calls = []
        eliminate = kernel._eliminate

        def counting(*args):
            calls.append(1)
            return eliminate(*args)

        monkeypatch.setattr(kernel, "_eliminate", counting)
        assert rational_nullspace(matrix) == [
            [24613, -24350, -45186, 6677, 30209, 26299, -543, -3995, -8670, -4913, 4913]
        ]
        assert len(calls) <= comb(11, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_joint_guess_matches_reference(self, data):
        order = data.draw(st.integers(1, 4))
        coeffs = [data.draw(st.integers(-3, 3)) for _ in range(order)]
        seqs = []
        for _ in range(data.draw(st.integers(1, 3))):
            initial = [data.draw(st.integers(-5, 5)) for _ in range(order)]
            seq = c_finite(coeffs, initial, data.draw(st.integers(1, 14)))
            scale = data.draw(st.sampled_from([1, 1, -2, Fraction(1, 3), Fraction(-5, 4)]))
            seq = [t * scale for t in seq]
            if data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(seq) - 1))
                seq[i] += data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
            seqs.append(seq)
        max_order = data.draw(st.integers(1, 6))
        surplus = data.draw(st.integers(1, 2))
        expected = reference_joint_guess(seqs, max_order, surplus)
        assert joint_guess_recurrence(seqs, max_order, surplus) == expected


class TestMultiPoly:
    def test_canonical_equality(self):
        assert P("m^2 - 9*m*n - n^2") == P("-(n^2) + m^2 - 9*n*m")
        assert P("m + 1", ("m",)) == P("m + 1", ("m", "n"))
        assert P("0", ("m",)).is_zero

    def test_arithmetic(self):
        a = P("m + n")
        assert a * a == P("m^2 + 2*m*n + n^2")
        assert a**3 == P("m^3 + 3*m^2*n + 3*m*n^2 + n^3")
        assert a - a == 0
        assert 2 * a == P("2*m + 2*n")

    def test_evaluate_and_substitute(self):
        q = P("m^2 - 2*n^2")
        assert q.evaluate({"m": 17, "n": 12}) == 1
        assert q.evaluate({"m": Fraction(1, 2), "n": 0}) == Fraction(1, 4)
        s = q.substitute({"m": P("m + n"), "n": P("n")})
        assert s == P("m^2 + 2*m*n - n^2")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_substitute_matches_evaluation(self, data):
        # images of degree up to 3 in a polynomial of degree up to 3: the
        # output degree, up to 9, is what the packing must hold
        p = data.draw(polys(("x", "y", "z"), data.draw(st.integers(0, 3))))
        names = data.draw(st.sampled_from([("x", "y", "z"), ("x", "y"), ("y",)]))
        images = {v: data.draw(polys(("m", "n"), data.draw(st.integers(0, 3)))) for v in names}
        point = {v: data.draw(st.integers(-4, 4)) for v in ("m", "n", "x", "y", "z")}
        values = {v: images[v].evaluate(point) if v in images else point[v] for v in "xyz"}
        assert p.substitute(images).evaluate(point) == p.evaluate(values)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_substitute_matches_per_term_reference(self, data):
        # substitution gives the same polynomial over the same variables as
        # the per-term product of power tables, for any mix of images
        p = data.draw(polys(("x", "y", "z"), data.draw(st.integers(0, 4)), max_terms=8))
        names = data.draw(st.sampled_from([("x", "y", "z"), ("x", "z"), ("y",), ()]))
        values = {}
        for v in names:
            kind = data.draw(st.sampled_from(["poly", "int", "self"]))
            if kind == "int":
                values[v] = data.draw(st.integers(-3, 3))
            elif kind == "self":
                values[v] = MultiPoly.variable(data.draw(st.sampled_from(("x", "n"))))
            else:
                values[v] = data.draw(polys(("m", "n"), data.draw(st.integers(0, 3))))
        got = p.substitute(values)
        want = reference_substitute(p, values)
        assert got.variables == want.variables
        assert got.terms == want.terms
        assert str(got) == str(want)

    @settings(deadline=None)
    @given(st.data())
    def test_last_variable_level_matches_reference(self, data):
        # the last variable's level sums c * Z**e from the power table: up to
        # three monomials in x, y, each with up to nine exponents of z, and
        # z's image dense, the int 0, another int, a variable, or z itself
        terms = {}
        outer = st.tuples(st.integers(0, 2), st.integers(0, 2))
        for a, b in data.draw(st.lists(outer, min_size=1, max_size=3, unique=True)):
            for e in data.draw(st.sets(st.integers(0, 8), min_size=1, max_size=9)):
                terms[a, b, e] = data.draw(st.integers(-5, 5).filter(bool))
        p = MultiPoly(("x", "y", "z"), terms)
        values = {}
        kind = data.draw(st.sampled_from(["dense", "zero", "int", "variable", "self"]))
        if kind == "dense":
            degree = data.draw(st.integers(1, 3))
            values["z"] = MultiPoly(("m", "n"), {
                (a, b): data.draw(st.integers(-3, 3).filter(bool))
                for a in range(degree + 1) for b in range(degree + 1 - a)
            })
        elif kind == "zero":
            values["z"] = 0
        elif kind == "int":
            values["z"] = data.draw(st.integers(-3, 3).filter(bool))
        elif kind == "variable":
            values["z"] = MultiPoly.variable(data.draw(st.sampled_from(("x", "n"))))
        for v in data.draw(st.sampled_from([(), ("x",), ("x", "y")])):
            values[v] = data.draw(polys(("m", "n"), data.draw(st.integers(0, 2))))
        got = p.substitute(values)
        want = reference_substitute(p, values)
        assert got.variables == want.variables
        assert got.terms == want.terms

    @settings(deadline=None)
    @given(st.data())
    def test_nesting_order_never_changes_the_result(self, data):
        # up to twelve terms in x, y, z with exponents up to 3, so that inner
        # groups hold several terms in every order; each of x, y, z goes to
        # a dense image, the int 0, another int, a variable, or itself, as in
        # the reference tests.  The six variable orders of the polynomial,
        # the six nesting orders forced on _horner, and the orders the
        # estimate picks with no term floor all give the reference result.
        exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
        p = MultiPoly(("x", "y", "z"), {
            ev: data.draw(st.integers(-5, 5).filter(bool))
            for ev in data.draw(st.sets(exps, min_size=1, max_size=12))
        })
        values = {}
        for v in ("x", "y", "z"):
            kind = data.draw(st.sampled_from(["dense", "zero", "int", "variable", "self"]))
            if kind == "dense":
                degree = data.draw(st.integers(1, 2))
                values[v] = MultiPoly(("m", "n"), {
                    (a, b): data.draw(st.integers(-3, 3).filter(bool))
                    for a in range(degree + 1) for b in range(degree + 1 - a)
                })
            elif kind == "zero":
                values[v] = 0
            elif kind == "int":
                values[v] = data.draw(st.integers(-3, 3).filter(bool))
            elif kind == "variable":
                values[v] = MultiPoly.variable(data.draw(st.sampled_from(("x", "n"))))
            else:
                values[v] = MultiPoly.variable(v)
        want = reference_substitute(p, values)
        for order in permutations(("x", "y", "z")):
            got = p.restricted(order).substitute(values)
            assert got.variables == want.variables
            assert got.terms == want.terms
            assert str(got) == str(want)
        for nesting in permutations(range(3)):
            with patch.object(kernel, "_nesting_order", lambda cols, images: nesting):
                assert p.substitute(values).terms == want.terms
        with patch.object(kernel, "_NESTING_MIN_TERMS", 0):
            for order in permutations(("x", "y", "z")):
                assert p.restricted(order).substitute(values).terms == want.terms

    def test_last_variable_top_power_at_the_packing_bound(self):
        # z**5 under a degree-3 image has degree 15, the largest weighted
        # degree of a term, so substitute packs for exactly 15 = 2**4 - 1:
        # the top power fills every value bit of its fields
        z = P("m^3 + n^3 + m + n + 1")
        p = MultiPoly(("x", "y", "z"), {(0, 0, 5): 1, (1, 1, 1): -2, (0, 1, 3): 3, (0, 0, 0): 7})
        values = {"x": P("m"), "y": P("n - 1"), "z": z}
        got = p.substitute(values)
        assert _Packing(2, 15).mask == 15
        assert got.total_degree() == 15
        assert got.terms == reference_substitute(p, values).terms
        assert got == z**5 - 2 * P("m") * P("n - 1") * z + 3 * P("n - 1") * z**3 + 7
        for point in ({"m": 2, "n": -3}, {"m": -1, "n": 4}):
            vals = {v: q.evaluate(point) for v, q in values.items()}
            assert got.evaluate(point) == p.evaluate(vals)

    def test_equality_with_int_is_a_bool(self):
        zero = MultiPoly(("m",), {})
        assert (zero == 5) is False
        assert (zero == 0) is True
        assert (P("m + 1") == 1) is False
        assert (P("3", ("m",)) == 3) is True

    def test_hash_agrees_with_equality_to_an_int(self):
        # equal objects hash equal: a polynomial equal to an int is the
        # same set member and dict key as that int
        five = MultiPoly.constant(5, ("m",))
        assert len({five, 5}) == 1
        assert 5 in {five}
        assert five in {5: "five"}
        zero = MultiPoly(("m", "n"), {})
        assert hash(zero) == hash(0) and 0 in {zero}
        assert hash(P("m + 1")) == hash(P("1 + m", ("n", "m")))

    def test_restricted_refuses_a_duplicate_variable(self):
        p = MultiPoly(("x", "y"), {(2, 0): 1})
        with pytest.raises(ValueError, match=r"^duplicate variable in \('x', 'x'\)$"):
            p.restricted(("x", "x"))

    def test_restricted_refuses_an_unknown_variable(self):
        p = MultiPoly(("x", "y"), {(2, 0): 1})
        with pytest.raises(ValueError, match=r"^'w' is not a variable of this polynomial$"):
            p.restricted(("x", "w"))

    def test_restricted_refuses_a_dropped_variable(self):
        p = MultiPoly(("x", "y"), {(2, 1): 1})
        with pytest.raises(ValueError, match=r"^polynomial involves a dropped variable$"):
            p.restricted(("x",))

    def test_substitute_dense_implicit_check(self):
        # the vanishing check of an eliminate input with constant terms, and
        # the same polynomial plus 1, in both methods
        ps = [P(t) for t in ("m^2 + n^2 + m + 1", "m^2 - n^2 + m*n", "m*n + n + 1")]
        s = implicitize(*ps)
        images = dict(zip("xyz", ps))
        assert s.substitute(images).is_zero
        assert reference_substitute(s, images).is_zero
        shifted = s + MultiPoly.constant(1, s.variables)
        assert shifted.substitute(images).terms == reference_substitute(shifted, images).terms

    def test_nesting_order_saves_products(self, monkeypatch):
        # work counted, not timed: the term pairs _pmul multiplies, and the
        # scalar multiply-adds of the innermost level, |X**e| for a term
        # whose exponent of the innermost variable is e
        def work(s, images, nesting=None):
            pairs, chosen = [0], []
            pmul, choose = kernel._pmul, kernel._nesting_order

            def counted(a, b, acc):
                pairs[0] += len(a) * len(b)
                return pmul(a, b, acc)

            def spy(cols, imgs):
                chosen.append(choose(cols, imgs) if nesting is None else nesting)
                return chosen[-1]

            monkeypatch.setattr(kernel, "_pmul", counted)
            monkeypatch.setattr(kernel, "_nesting_order", spy)
            assert s.substitute(images).is_zero
            monkeypatch.undo()
            inner = chosen[0][-1]
            image = images["xyz"[inner]]
            sizes = {e: len((image ** e).terms) for e in {ev[inner] for ev in s.terms}}
            return pairs[0], sum(sizes[ev[inner]] for ev in s.terms), chosen[0]

        # the 1026-term check of eliminate m^3 + n, m*n^2 - 1, m + n^3: y,
        # whose image has a constant term, goes innermost
        images = dict(zip("xyz", (P("m^3 + n"), P("m*n^2 - 1"), P("m + n^3"))))
        s = implicitize(*images.values())
        assert len(s.terms) == 1026
        pairs, scalar, order = work(s, images)
        fixed_pairs, fixed_scalar, _ = work(s, images, (0, 1, 2))
        assert order == (0, 2, 1)
        assert (pairs, fixed_pairs) == (11016, 47628)
        assert 2 * (pairs + scalar) <= fixed_pairs + fixed_scalar
        # the 926-term check of the CI input whose n-resultant has no integer
        # pivot: y innermost multiplies more term pairs in _pmul than
        # (x, y, z), but far fewer at the innermost level, and less in all
        images = dict(zip("xyz", (
            P("-2*m^2*n + m^3 - 3*m*n"), P("-2*m*n^2 + 3*m*n"), P("2*m*n + 3*m*n^2 + 2*m^2*n")
        )))
        s = implicitize(*images.values())
        assert len(s.terms) == 926
        pairs, scalar, order = work(s, images)
        fixed_pairs, fixed_scalar, _ = work(s, images, (0, 1, 2))
        assert order == (0, 2, 1)
        assert (pairs, scalar, fixed_pairs, fixed_scalar) == (83745, 8227, 64335, 44027)
        assert pairs + scalar <= fixed_pairs + fixed_scalar

    def test_str_round_trip(self):
        rng = random.Random(5)
        for _ in range(40):
            p = random_poly(rng, ("m", "n", "x"))
            assert parse_poly(str(p), ("m", "n", "x")) == p


# --- the exact zero test of a substitution ---

# _KRONECKER_MIN_DENSITY as set by the tests: the selection's own, every
# substitution packed, or every one expanded (no density exceeds 1)
PATHS = {"selected": kernel._KRONECKER_MIN_DENSITY, "packed": 0, "expanded": 2}

# parametrisations whose implicit equations the zero test must accept:
# criterion 8's four, two random ones of the eliminate benchmark, an m-free
# first component and one with a constant term in every component
PARAMETRIZATIONS = [
    ("m^2 - n^2", "2*m*n", "m^2 + n^2"),
    ("2*m^2 - 3*n^2", "2*m*n", "m^2 + n^2"),
    ("m^3 - n^3", "m^2*n + m*n^2", "m^3 + n^3"),
    ("m^3 + n", "m*n^2 - 1", "m + n^3"),
    ("m^2*n - 2*n", "-3*m*n + 3*n^2", "3*m^2 + 2*m*n - 3*m"),
    ("m^2 - 2*n^2", "-2*m^2 - 2*m*n - 3*n", "-3*m^3 - 3*n"),
    ("3*n^3 - 2", "-m*n - 3*m^2*n", "3*m^2 + n^2 + 2 + 2*n^3"),
    ("m^2 + n^2 + m + 1", "m^2 - n^2 + m*n", "m*n + n + 1"),
]


@cache
def implicit_equation(k):
    ps = [P(text) for text in PARAMETRIZATIONS[k]]
    return implicitize(*ps), dict(zip("xyz", ps))


@contextmanager
def zero_test_path(path):
    with patch.object(kernel, "_KRONECKER_MIN_DENSITY", PATHS[path]):
        yield


@st.composite
def images_in_m_n(draw):
    """An image for a substitution: a polynomial of degree <= 3 in m, n,
    an int, or the variable x, left symbolic."""
    kind = draw(st.sampled_from(["poly", "poly", "int", "symbolic"]))
    if kind == "int":
        return draw(st.integers(-3, 3))
    if kind == "symbolic":
        return MultiPoly.variable("x")
    return draw(polys(("m", "n"), draw(st.integers(0, 3))))


class TestVanishesOn:
    """MultiPoly.vanishes_on against substitute(values).is_zero, on each of
    its two paths and on the one it selects."""

    @pytest.mark.parametrize("path", PATHS)
    @settings(deadline=None)
    @given(st.data())
    def test_matches_substitution(self, path, data):
        # S of degree <= 6 in x, y, z with coefficients of up to 60 digits:
        # random, or a multiple of a relation the images satisfy, with one
        # coefficient moved by -1, 0 or 1
        big = st.integers(-10**60, 10**60).filter(bool)
        y, z = data.draw(images_in_m_n()), data.draw(images_in_m_n())
        relation, x = data.draw(st.sampled_from([
            ({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): -1}, y + z),
            ({(1, 0, 0): 1, (0, 1, 1): -1}, y * z),
            ({}, data.draw(images_in_m_n())),
        ]))
        degree = 4 if relation else 6
        factor = MultiPoly(("x", "y", "z"), {
            ev: data.draw(big) for ev in data.draw(st.sets(exponents(3, degree), min_size=1, max_size=8))
        })
        s = factor * MultiPoly(("x", "y", "z"), relation) if relation else factor
        moved = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
        s = s + MultiPoly(s.variables, {moved: data.draw(st.integers(-1, 1))})
        values = {"x": x, "y": y, "z": z}
        with zero_test_path(path):
            assert s.vanishes_on(values) == s.substitute(values).is_zero

    @pytest.mark.parametrize("path", PATHS)
    @settings(deadline=None)
    @given(st.data())
    def test_implicit_equation_moved_by_one(self, path, data):
        # an implicit equation is accepted, and refuted once one of its
        # coefficients, or a new one, is moved by +-1
        s, values = implicit_equation(data.draw(st.integers(0, len(PARAMETRIZATIONS) - 1)))
        with zero_test_path(path):
            assert s.vanishes_on(values)
        terms = sorted(s.terms)
        ev = data.draw(st.sampled_from(terms) | st.tuples(*[st.integers(0, 3)] * 3))
        moved = s + MultiPoly(s.variables, {ev: data.draw(st.sampled_from([-1, 1]))})
        with zero_test_path(path):
            assert not moved.vanishes_on(values)
        assert not moved.substitute(values).is_zero

    @pytest.mark.parametrize("k", [1, 60, 200])
    def test_width_edge(self, k):
        # S = x - z under x = m, z = 2^k: T = m - 2^k has the coefficient
        # bound B = 2^k + 1, so the width is k + 1 bits.  T is nonzero but
        # vanishes at m = 2^k: one bit narrower, the packed test would
        # accept it.  The expanded path is not taken.
        s = MultiPoly(("x", "z"), {(1, 0): 1, (0, 1): -1})
        values = {"x": P("m"), "z": 2**k}
        t = s.substitute(values)
        assert t == P("m") - 2**k and t.evaluate({"m": 2**k}) == 0
        with patch.object(MultiPoly, "substitute", side_effect=AssertionError("expanded")):
            assert not s.vanishes_on(values)

    def test_edge_cases(self):
        # no terms; every image an int, so no result variable; an image the
        # int 0; a variable left symbolic beside the images
        assert MultiPoly(("x",), {}).vanishes_on({"x": P("m")})
        pell = MultiPoly(("x", "y"), {(2, 0): 1, (0, 2): -2})
        assert not pell.vanishes_on({"x": 17, "y": 12})
        assert pell.vanishes_on({"x": 0, "y": 0})
        assert not pell.vanishes_on({"x": P("m"), "y": 0})
        square = MultiPoly(("x", "y", "z"), {(2, 0, 0): 1, (0, 1, 1): -1})
        for path in PATHS:
            with zero_test_path(path):
                assert square.vanishes_on({"x": P("m*n"), "y": P("m^2"), "z": P("n^2")})
                assert not square.vanishes_on({"x": P("m*n"), "z": P("n^2")})


class TestContentPrimitive:
    def test_gcd_chain_example(self):
        content, prim = content_primitive(P("36*m^2 - 99*m*n + 81*n^2"))
        assert content == 9
        assert prim == P("4*m^2 - 11*m*n + 9*n^2")

    def test_constant(self):
        content, prim = content_primitive(MultiPoly.constant(5))
        assert content == 5 and prim == 1

    def test_already_primitive(self):
        content, prim = content_primitive(P("m + n"))
        assert content == 1 and prim == P("m + n")

    def test_sign_stays_in_primitive(self):
        content, prim = content_primitive(P("-2*m"))
        assert content == 2 and prim == P("-m")

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            content_primitive(MultiPoly.constant(0))

    def test_round_trip_random(self):
        rng = random.Random(17)
        for _ in range(200):
            p = random_poly(rng, ("m", "n"))
            if p.is_zero:
                continue
            content, prim = content_primitive(p)
            assert content > 0
            assert content * prim == p
            assert content_primitive(prim)[0] == 1


class TestResultant:
    def test_linear_quadratic(self):
        r = resultant(P("m - y", ("m", "y")), P("m^2 - x", ("m", "x")), "m")
        assert r == parse_poly("y^2 - x", ("x", "y"))

    def test_coprime_unit(self):
        r = resultant(P("m", ("m",)), P("m - 1", ("m",)), "m")
        assert r == 1 or r == -1

    def test_direct_elimination(self):
        r = resultant(P("x - m^2", ("m", "x")), P("y - m", ("m", "y")), "m")
        assert r == parse_poly("x - y^2", ("x", "y")) or r == parse_poly(
            "y^2 - x", ("x", "y")
        )

    def test_degree_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            resultant(P("n^2"), P("m - n"), "m")

    def test_matches_naive_determinant(self):
        # small Sylvester matrices against permutation-expansion determinants
        rng = random.Random(23)
        for _ in range(25):
            p = random_poly(rng, ("m", "x"), max_degree=2, terms=3)
            q = random_poly(rng, ("m", "x"), max_degree=2, terms=3)
            dp, dq = p.degree_in("m"), q.degree_in("m")
            if dp == 0 or dq == 0 or dp + dq > 4:
                continue
            assert resultant(p, q, "m") == naive_det(sylvester_rows(p, q, "m"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_naive_sylvester_determinant(self, data):
        # three variables, degree 1 or 2 in m, entries of degree up to 3
        vs = ("m", "x", "y")
        dp = data.draw(st.integers(1, 2))
        dq = data.draw(st.integers(1, 3 - dp + 1))
        p = data.draw(polys(vs, dp, max_terms=4))
        q = data.draw(polys(vs, dq, max_terms=4))
        p = p + data.draw(polys(("x", "y"), 3, max_terms=3))
        q = q + data.draw(polys(("y", "x"), 2, max_terms=3))
        assert resultant(p, q, "m") == naive_det(sylvester_rows(p, q, "m"))

    def test_matches_bareiss_on_implicitize_parametrizations(self):
        # the resultants implicitize takes, for seeded random parametrizations
        # of degree up to 3, against the Bareiss-only determinant
        rng = random.Random(97)
        vs = ("m", "n", "x", "y", "z")
        monomials = [(i, d - i) for d in (1, 2, 3) for i in range(d + 1)]
        checked = 0
        while checked < 8:
            degree = rng.choice((2, 3))
            comps = []
            for target in "xyz":
                pick = rng.sample([mo for mo in monomials if sum(mo) <= degree], rng.choice((2, 3)))
                terms = {(i, j, 0, 0, 0): rng.choice((-3, -2, -1, 1, 2, 3)) for i, j in pick}
                comps.append(MultiPoly.variable(target, vs) - MultiPoly(vs, terms))
            a, b, c = comps
            if min(p.degree_in("m") for p in comps) == 0:
                continue
            r1, r2 = resultant(a, b, "m"), resultant(a, c, "m")
            assert r1 == bareiss_det(sylvester_rows(a, b, "m"))
            assert r2 == bareiss_det(sylvester_rows(a, c, "m"))
            if r1.degree_in("n") == 0 or r2.degree_in("n") == 0:
                continue
            assert resultant(r1, r2, "n") == bareiss_det(sylvester_rows(r1, r2, "n"))
            checked += 1

    def test_shared_root_vanishes(self):
        rng = random.Random(31)
        checked = 0
        while checked < 30:
            root = random_poly(rng, ("m", "n"), max_degree=1, max_coeff=3, terms=2)
            shared = P("m") - root.substitute({"m": P("n")})
            p0 = random_poly(rng, ("m", "n"), max_degree=2, terms=3)
            q0 = random_poly(rng, ("m", "n"), max_degree=2, terms=3)
            p = shared * p0
            q = shared * q0
            if p.degree_in("m") == 0 or q.degree_in("m") == 0:
                continue
            assert resultant(p, q, "m").is_zero
            checked += 1


class TestExactDivision:
    def test_exact(self):
        a = P("m + n")
        assert exact_div(a * a, a) == a
        assert divides(a, a * a * P("m - 7*n"))

    def test_inexact(self):
        assert not divides(P("m - n"), P("m^2 + n^2"))
        with pytest.raises(InexactDivision):
            exact_div(P("m^2 + n^2"), P("m - n"))

    def test_integer_content_matters(self):
        assert not divides(P("2*m"), P("m^2 + m"))
        assert divides(P("2*m"), P("2*m^2 + 4*m"))

    def test_random_products(self):
        rng = random.Random(41)
        for _ in range(60):
            a = random_poly(rng, ("m", "n"), max_degree=2, terms=3)
            b = random_poly(rng, ("m", "n"), max_degree=2, terms=3)
            if a.is_zero or b.is_zero:
                continue
            assert exact_div(a * b, b) == a


class TestPackedExponents:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_order_product_divisibility_round_trip(self, data):
        nvars = data.draw(st.integers(1, 5))
        degree = 2 ** data.draw(st.integers(1, 6)) - 1
        evs = data.draw(st.lists(exponents(nvars, degree), min_size=2, max_size=12))
        top = data.draw(st.integers(0, nvars - 1))
        evs.append(tuple(degree if i == top else 0 for i in range(nvars)))
        evs = list(dict.fromkeys(evs))
        pk = _Packing(nvars, degree)
        key = {ev: next(iter(pk.pack({ev: 1}))) for ev in evs}
        assert pk.unpack({key[ev]: 1 for ev in evs}) == {ev: 1 for ev in evs}
        assert sorted(evs, key=_monomial_key) == sorted(evs, key=key.get)
        for u in evs:
            for w in evs:
                prod = tuple(x + y for x, y in zip(u, w))
                if sum(prod) <= degree:
                    assert {key[u] + key[w]: 1} == pk.pack({prod: 1})
                d = key[w] - key[u]
                divides_w = all(x >= y for x, y in zip(w, u))
                assert (d >= 0 and not d & pk.guard) == divides_w

    def test_pure_powers_at_the_top_of_a_field(self):
        x, y = P("m", ("m", "n")), P("n", ("m", "n"))
        for k in range(1, 7):
            top = 2**k - 1
            for num, den in [
                (x**top - y**top, x - y),
                (x**top + y**top, x + y),
                (x**top - y**top, x + y),
                (x**top, x ** (top - 1) * y),
                (x**top * y, y**2),
                (x ** (top - 1) * y, x**top),
                # Laurent quotients x/y: a borrow into the x field is the
                # only sign that the leading monomial does not divide
                (x**top * (y + 1), x ** (top - 1) * y * (y + 1)),
                (x * (x + y) ** (top - 1), y * (x + y) ** (top - 1)),
            ]:
                got = try_exact_div(num, den)
                assert got == reference_exact_div(num, den)
                if got is not None:
                    assert got * den == num

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_division_matches_reference(self, data):
        nvars = data.draw(st.integers(1, 5))
        vs = VARS[:nvars]
        top = 2 ** data.draw(st.integers(1, 4)) - 1
        dd = data.draw(st.integers(0, top))
        den = data.draw(polys(vs, dd))
        quot = data.draw(polys(vs, top - dd))
        num = den * quot
        change = data.draw(st.sampled_from(["none", "add", "laurent"]))
        if change == "add":
            num = num + data.draw(polys(vs, data.draw(st.integers(0, top))))
        elif change == "laurent" and nvars > 1:
            # num/den = (v/w) * quot, not a polynomial unless w divides quot
            v, w = data.draw(st.permutations(vs))[:2]
            num = num * MultiPoly.variable(v, vs)
            den = den * MultiPoly.variable(w, vs)
        got = try_exact_div(num, den)
        assert got == reference_exact_div(num, den)
        if got is not None:
            assert got * den == num
        if not num.is_zero:
            assert try_exact_div(den, num) == reference_exact_div(den, num)


class TestBareiss:
    def test_random_matrices_match_naive_det(self):
        rng = random.Random(53)
        vs = ("x", "y")
        zero = MultiPoly(vs, {})
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [
                [random_poly(rng, vs, max_degree=1, max_coeff=3, terms=2) for _ in range(n)]
                for _ in range(n)
            ]
            # force zero pivots sometimes to exercise the row-swap path
            if rng.random() < 0.5:
                rows[0][0] = zero
            expected = naive_det(rows)
            got = det(rows)
            assert got == expected


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_degree_bound_at_the_top_of_a_field(self, data):
        # row degrees summing to S = 2^k - 1, each row led by a pure power
        # of x: the products Bareiss forms reach x-degrees near 2S
        vs = ("x", "y")
        n = data.draw(st.integers(2, 4))
        total = data.draw(st.sampled_from([s for s in (3, 7) if n <= s <= 3 * n]))
        degrees = data.draw(
            st.lists(st.integers(1, 3), min_size=n, max_size=n).filter(
                lambda ds: sum(ds) == total
            )
        )
        rows = []
        for d in degrees:
            row = [
                data.draw(st.one_of(st.just(MultiPoly(vs, {})), polys(vs, data.draw(st.integers(0, d)), 2)))
                for _ in range(n)
            ]
            row[data.draw(st.integers(0, n - 1))] = data.draw(polys(vs, d, 2))
            rows.append(row)
        assert det(rows) == naive_det(rows)


def lu_matrix(rng, diag_l, diag_u, vs=("x", "y")):
    """L * U with the given diagonals, nonconstant entries below the
    diagonal of L and polynomial entries above the diagonal of U."""
    n = len(diag_l)
    lower = [[MultiPoly(vs, {}) for _ in range(n)] for _ in range(n)]
    upper = [[MultiPoly(vs, {}) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d = diag_l[i]
        lower[i][i] = d if isinstance(d, MultiPoly) else MultiPoly.constant(d, vs)
        upper[i][i] = MultiPoly.constant(diag_u[i], vs)
        for j in range(i):
            lower[i][j] = MultiPoly(
                vs, {(1, 0): rng.choice((-2, -1, 1, 2)), (0, 0): rng.randint(-2, 2)}
            )
        for j in range(i + 1, n):
            upper[i][j] = random_poly(rng, vs, max_degree=1, max_coeff=3, terms=2)
    return [
        [sum((lower[i][k] * upper[k][j] for k in range(n)), MultiPoly(vs, {})) for j in range(n)]
        for i in range(n)
    ]


def no_constant_poly(rng, vs, max_degree=1, terms=2):
    """A nonzero polynomial with no constant term."""
    out = MultiPoly(vs, {})
    while out.is_zero:
        for _ in range(terms):
            ev = tuple(rng.randint(0, max_degree) for _ in vs)
            if any(ev):
                out = out + MultiPoly(vs, {ev: rng.choice((-3, -2, -1, 1, 2, 3))})
    return out


def det(rows):
    """The determinant of a matrix of MultiPolys, by kernel._determinant on
    their term maps over one variable tuple."""
    vs = tuple(dict.fromkeys(v for row in rows for p in row for v in p.variables))
    return MultiPoly(vs, kernel._determinant([[_remap(p, vs) for p in row] for row in rows], len(vs)))


class TestDeterminant:
    """Every path of the determinant: integer pivots, expansion by minors,
    scale-back, zeros and swaps."""

    def test_integer_pivots_only(self):
        # the leading minors of L * U are the products of the diagonals, so
        # each step has an integer pivot, and only in the pivot row
        rng = random.Random(61)
        for n in range(2, 6):
            for diag in ([2, -3, 1, -1, 2], [1, 1, -1, 1, -1], [-3, 2, 2, -3, 1]):
                rows = lu_matrix(rng, diag[:n], [rng.choice((1, -1, 2)) for _ in range(n)])
                with determinant_route("unpacked"), determinant_paths() as sizes:
                    got = det(rows)
                assert sizes == []
                assert got == naive_det(rows)

    def test_non_unit_pivots_scale_back(self):
        # pivots 2 and -3 (times U's diagonal), then a trailing block with no
        # constant entry: it is expanded and divided by a pivot^(t-1) != 1
        rng = random.Random(67)
        vs = ("x", "y")
        for n in range(4, 6):
            for _ in range(4):
                tail = [
                    MultiPoly(vs, {(0, 1): 1, (1, 0): rng.choice((-1, 1))}) for _ in range(n - 2)
                ]
                rows = lu_matrix(rng, [2, -3, *tail], [1, rng.choice((1, 2, -1))] + [1] * (n - 2))
                with determinant_route("unpacked"), determinant_paths() as sizes:
                    got = det(rows)
                assert sizes == [n - 2]
                assert got == naive_det(rows)

    def test_resultant_with_leading_coefficients_2_and_minus_3(self):
        # integer pivots to the end, or a 2 x 2 block scaled back by 4
        vs = ("m", "x", "y")
        cases = [
            ("2*m^2 + x*m + y", "-3*m^2 + y*m + x^2", [2]),
            ("2*m^3 + (x - y)*m + 1", "-3*m + x*y", []),
            ("2*m^2 - x", "-3*m^2 + x*m - y^2 + 2", [2]),
        ]
        for p_text, q_text, expanded in cases:
            p, q = parse_poly(p_text, vs), parse_poly(q_text, vs)
            with determinant_route("unpacked"), determinant_paths() as sizes:
                got = resultant(p, q, "m")
            assert sizes == expanded
            assert got == naive_det(sylvester_rows(p, q, "m"))
            assert got == bareiss_det(sylvester_rows(p, q, "m"))

    def test_no_constant_pivot(self):
        rng = random.Random(71)
        vs = ("x", "y")
        for n in range(1, 6):
            for _ in range(4):
                rows = [[no_constant_poly(rng, vs) for _ in range(n)] for _ in range(n)]
                with determinant_paths() as sizes:
                    got = det(rows)
                assert sizes == ([n] if n > 1 else [])
                assert got == naive_det(rows)

    def test_large_blocks_are_expanded_whole(self):
        # with no constant entry there is no pivot, and the whole block is
        # expanded by minors whatever its size
        rng = random.Random(79)
        vs = ("x", "y")
        for n in (11, 12):
            rows = [[no_constant_poly(rng, vs, terms=1) for _ in range(n)] for _ in range(n)]
            with determinant_paths() as sizes:
                got = det(rows)
            assert sizes == [n]
            assert got == bareiss_det(rows)

    def test_eliminate_n_resultant_is_one_block(self):
        # the n-resultant of an eliminate input whose two m-resultants have
        # no integer constant in n: its 12 x 12 Sylvester block is expanded
        # whole
        vs = ("m", "n", "x", "y", "z")
        x, y, z = (MultiPoly.variable(v, vs) for v in "xyz")
        p = x - parse_poly("-2*m^2*n + m^3 - 3*m*n", vs)
        r1 = resultant(p, y - parse_poly("-2*m*n^2 + 3*m*n", vs), "m")
        r2 = resultant(p, z - parse_poly("2*m*n + 3*m*n^2 + 2*m^2*n", vs), "m")
        with determinant_paths() as sizes:
            got = resultant(r1, r2, "n")
        assert sizes == [12]
        assert got == bareiss_det(sylvester_rows(r1, r2, "n"))

    def test_band_order_products(self, monkeypatch):
        # every coefficient in m is c*n + d, so there is no integer pivot and
        # the 19 x 19 Sylvester block is expanded whole.  Band order keeps
        # at most 2^11 live column sets per row and forms 8446 products;
        # the rows taken lightest first form 1043120.  Folding n leaves
        # every entry one term, so the plan's cost, which weighs each
        # product of an entry and a minor by the entry's terms, bounds the
        # products too.
        rng = random.Random(97)
        vs = ("m", "n")

        def linear_in_n(d):
            return MultiPoly(vs, {
                (i, e): rng.choice((-3, -2, -1, 1, 2, 3)) for i in range(d + 1) for e in (0, 1)
            })

        p, q = linear_in_n(10), linear_in_n(9)
        calls = [0]
        pmul = kernel._pmul

        def counted(a, b, acc):
            calls[0] += 1
            return pmul(a, b, acc)

        monkeypatch.setattr(kernel, "_pmul", counted)
        with determinant_paths() as sizes, minor_plans() as plans:
            got = resultant(p, q, "m")
        monkeypatch.undo()
        assert sizes == [19]
        assert calls[0] <= 20_000
        ((size, _, cost),) = plans
        assert size == 19 and cost <= 20_000
        assert got == bareiss_det(sylvester_rows(p, q, "m"))

    def test_expands_the_cheaper_of_block_and_raw_matrix(self):
        # n-resultants of two eliminate inputs.  The 1026-term input's 7 x 7
        # block after integer pivots costs 2618 products and its raw 16 x 16
        # Sylvester matrix 1860, so the raw matrix is expanded, with no scale
        # back.  The homogeneous input's 9 x 9 block costs 210, below its raw
        # 18 x 18 matrix, so the block is expanded.
        cases = [
            (("m^3 + n", "m*n^2 - 1", "m + n^3"), [16]),
            (("m^3 - n^3", "m^2*n + m*n^2", "m^3 + n^3"), [9]),
        ]
        for components, expanded in cases:
            r1, r2 = m_resultants(*components)
            with determinant_route("unpacked"), determinant_paths() as sizes:
                got = resultant(r1, r2, "n")
            assert sizes == expanded
            assert got == bareiss_det(sylvester_rows(r1, r2, "n"))

    def test_integer_pivots_to_the_end_cost_nothing(self):
        # a pure-integer resultant of degrees 18 and 17: the pivots reach the
        # end, so no matrix is costed or expanded, and the work stays
        # polynomial in the degree
        rng = random.Random(103)
        vs = ("m",)
        p = MultiPoly(vs, {(i,): rng.choice((-9, -5, -2, -1, 1, 3, 7)) for i in range(19)})
        q = MultiPoly(vs, {(i,): rng.choice((-8, -3, -1, 1, 2, 5, 9)) for i in range(18)})
        with determinant_paths() as sizes, minor_plans() as plans:
            got = resultant(p, q, "m")
        assert sizes == [] and plans == []
        assert got == bareiss_det(sylvester_rows(p, q, "m"))

    def test_raw_matrix_expanded_only_when_cheaper(self):
        # the n-resultants implicitize takes, for seeded random
        # parametrizations and the two inputs above: after pivots stop at
        # k > 0, the raw n x n matrix is costed with the t x t block's cost as
        # its limit, and it is expanded exactly when it costs less than the
        # block.  The values of both routes are checked above and in
        # test_mixed_entries_match_naive_det; bareiss_det takes up to 40 s
        # on some of these inputs.
        rng = random.Random(107)
        monomials = [(i, d - i) for d in (1, 2, 3) for i in range(d + 1)]
        inputs = [("m^3 + n", "m*n^2 - 1", "m + n^3"), ("m^3 - n^3", "m^2*n + m*n^2", "m^3 + n^3")]
        while len(inputs) < 14:
            picks = [rng.sample(monomials, rng.choice((2, 3))) for _ in "xyz"]
            if all(any(i for i, _ in pick) for pick in picks):
                inputs.append(tuple(
                    " + ".join(f"{rng.choice((-3, -2, -1, 1, 2, 3))}*m^{i}*n^{j}" for i, j in pick)
                    for pick in picks
                ))
        routes = set()
        for components in inputs:
            r1, r2 = m_resultants(*components)
            if r1.degree_in("n") == 0 or r2.degree_in("n") == 0:
                continue
            with determinant_route("unpacked"), determinant_paths() as sizes, minor_plans() as plans:
                resultant(r1, r2, "n")
            if len(plans) == 2:
                (t, no_limit, block_cost), (n, limit, raw_cost) = plans
                assert no_limit is None and limit == block_cost
                assert sizes == ([n] if raw_cost < block_cost else [t])
                routes.add(raw_cost < block_cost)
        assert routes == {True, False}

    def test_selected_route_expands_the_raw_matrix(self):
        # an implicitize n-resultant whose entries fold no variable, so the
        # selected route takes the integer pivots: they stop at k = 7 with a
        # 6 x 6 block that costs 3074 products, and the raw 13 x 13
        # Sylvester matrix, costing 1307, is expanded instead
        r1, r2 = m_resultants("3*m^3 - m^2*n", "2*m*n - 3*n^2 - 2*m", "-m^3 + 3*m*n + 3*n^2")
        with determinant_paths() as sizes, minor_plans() as plans:
            got = resultant(r1, r2, "n")
        assert plans == [(6, None, 3074), (13, 3074, 1307)]
        assert sizes == [13]
        assert got == bareiss_det(sylvester_rows(r1, r2, "n"))

    def test_zero_determinant(self):
        rng = random.Random(83)
        vs = ("x", "y")
        zero = MultiPoly(vs, {})
        for n in range(2, 6):
            # a zero column, and a row that is a combination of two others
            rows = [[no_constant_poly(rng, vs) for _ in range(n)] for _ in range(n)]
            col = rng.randrange(n)
            cleared = [[zero if j == col else e for j, e in enumerate(row)] for row in rows]
            assert det(cleared).is_zero
            f = random_poly(rng, vs, max_degree=1, max_coeff=3, terms=2)

            def dependent(rows):
                if n == 2:
                    return [rows[0], [f * a for a in rows[0]]]
                return rows[:-1] + [[f * a + 3 * b for a, b in zip(rows[0], rows[1])]]

            assert det(dependent(rows)).is_zero
            assert naive_det(dependent(rows)).is_zero
            # the same through integer pivots
            assert det(dependent(lu_matrix(rng, [2] * n, [1] * n))).is_zero

    def test_row_swaps(self):
        # an integer below the diagonal of each column but the last, and no
        # other constant: the integer pivots come with row swaps
        rng = random.Random(89)
        vs = ("x", "y")
        for n in range(2, 6):
            for _ in range(4):
                rows = [[no_constant_poly(rng, vs) for _ in range(n)] for _ in range(n)]
                for k in range(n - 1):
                    c = rng.choice((1, -1, 2, -3))
                    rows[rng.randrange(k + 1, n)][k] = MultiPoly.constant(c, vs)
                rows[0][0] = rng.choice((MultiPoly(vs, {}), rows[0][0]))
                assert det(rows) == naive_det(rows)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mixed_entries_match_naive_det(self, data):
        # constants, zeros and polynomials: integer pivots, then a trailing
        # block of any size, reach every stage
        vs = ("x", "y")
        n = data.draw(st.integers(1, 5))
        entry = st.one_of(
            st.just(MultiPoly(vs, {})),
            st.integers(-3, 3).map(lambda c: MultiPoly.constant(c, vs)),
            polys(vs, 1, max_terms=2),
            polys(vs, 2, max_terms=2),
        )
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        assert det(rows) == naive_det(rows)


class TestFoldedDeterminant:
    """The determinant with one variable folded into big-integer
    coefficients, and the selection of that route, against the naive
    determinant."""

    @pytest.mark.parametrize("route", ["selected", "unpacked", "packed"])
    @settings(deadline=None)
    @given(st.data())
    def test_matches_naive_det(self, route, data):
        # up to 5 x 5 over 2 or 3 variables: entries of up to 3 terms of
        # degree <= 2 with coefficients of both signs up to 60 digits, zero
        # entries, and at times a zero row; the packed route folds a drawn
        # variable
        vs = VARS[:data.draw(st.integers(2, 3))]
        n = data.draw(st.integers(1, 5))
        entry = st.dictionaries(
            exponents(len(vs), 2), st.integers(-10**60, 10**60), max_size=3
        ).map(lambda terms: MultiPoly(vs, terms))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        zero_row = data.draw(st.integers(-1, n - 1))
        if zero_row >= 0:
            rows[zero_row] = [MultiPoly(vs, {})] * n
        with determinant_route(route, data.draw(st.integers(0, len(vs) - 1))):
            assert det(rows) == naive_det(rows)

    @pytest.mark.parametrize("k", [1, 60, 200])
    def test_width_edge(self, k):
        # diag(2^k t, ..., 2^k t): B = 2^(k n) is a coefficient of
        # det = 2^(k n) t^n, the largest digit the width B.bit_length() + 1
        # keeps balanced.  One bit narrower, that digit would be read as
        # -2^(k n) with a carry into t^(n + 1).
        vs = ("t", "x")
        for n in (1, 2, 4):
            rows = [[MultiPoly(vs, {(1, 0): 2**k} if i == j else {}) for j in range(n)]
                    for i in range(n)]
            with determinant_route("packed", 0):
                assert det(rows) == MultiPoly(vs, {(n, 0): 2**(k * n)})

    def test_folding_that_merges_nothing_keeps_the_pivot_route(self):
        # entries of one term, of integers only, or binomials whose terms
        # differ in every variable merge nothing under any fold, and go
        # through the integer pivots; one entry x*y + x merges under a fold
        # of y, and the matrix is folded
        def matrix(*rows):
            return [[P(text, ("x", "y")) for text in row] for row in rows]

        diagonal = matrix(["7*x", "0", "0"], ["0", "7*x", "0"], ["0", "0", "7*x"])
        integers = matrix(["2", "-3"], ["5", "11"])
        binomials = matrix(["x + y", "x^2 - y"], ["3*x*y + 1", "x - 2*y^2"])
        merging = matrix(["x*y + x", "y"], ["x", "1"])
        pivots = kernel._det_packed
        for rows, folded in ((diagonal, False), (integers, False), (binomials, False), (merging, True)):
            with patch.object(kernel, "_det_packed", side_effect=pivots) as spy:
                got = det(rows)
            assert spy.called is not folded
            assert got == naive_det(rows)


# --- oracle: folding as two passes, the folded term map and then its
# packing, and reading back as unpacking and then the balanced digits ---

def two_pass_fold(terms, t, w, pk):
    out = {}
    for ev, c in terms.items():
        rest = ev[:t] + ev[t + 1:]
        out[rest] = out.get(rest, 0) + (c << w * ev[t])
    return pk.pack(_nonzero(out))


def two_pass_unfold(packed, t, w, pk):
    half, mask = 1 << w - 1, (1 << w) - 1
    out = {}
    for rest, v in pk.unpack(packed).items():
        e = 0
        while v:
            c = ((v + half) & mask) - half
            if c:
                out[rest[:t] + (e,) + rest[t:]] = c
            v = (v - c) >> w
            e += 1
    return out


@st.composite
def term_map_exponents(draw, nvars, degree):
    """(unused, strategy): a set of variables no term has, at times empty,
    and exponent vectors of total degree at most ``degree`` that are zero
    at those variables."""
    unused = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    free = [i for i in range(nvars) if i not in unused]

    def spread(ev):
        out = [0] * nvars
        for i, e in zip(free, ev):
            out[i] = e
        return tuple(out)

    return unused, exponents(len(free), degree).map(spread)


class TestTermMaps:
    """The determinant's helpers on term maps over one variable tuple: the
    one-pass fold and pack (``_fold``) and read-back (``_unfold``), and
    ``_determinant`` itself on rows of term maps."""

    @settings(deadline=None)
    @given(st.data())
    def test_fold_and_read_back(self, data):
        # term maps over 2 to 5 variables, some of which no term has, with
        # coefficients of both signs up to 60 digits, folded at any width;
        # at times a term and a partner one power of t higher cancel in the
        # fold.  The one pass equals the two; at a width above every
        # coefficient's bit length the read-back returns the input.  The
        # width is at least 2, as the determinant's is for a nonzero B:
        # balanced digits of one bit, -1 and 0, write no positive value.
        nvars = data.draw(st.integers(2, 5))
        unused, evs = data.draw(term_map_exponents(nvars, 4))
        coeff = st.one_of(st.integers(-9, 9), st.integers(-10**60, 10**60)).filter(bool)
        terms = data.draw(st.dictionaries(evs, coeff, max_size=8))
        t = data.draw(st.integers(0, nvars - 1))
        w = data.draw(st.integers(2, 210))
        cancelled = None
        if terms and t not in unused and data.draw(st.booleans()):
            ev = data.draw(st.sampled_from(sorted(terms)))
            rest = ev[:t] + ev[t + 1:]
            terms = {u: c for u, c in terms.items() if u[:t] + u[t + 1:] != rest}
            partner = ev[:t] + (ev[t] + 1,) + ev[t + 1:]
            c = data.draw(coeff)
            terms[ev], terms[partner] = -(c << w), c
            cancelled = rest
        pk = _Packing(nvars - 1, _degree(terms))
        folded = _fold(terms, t, w, pk)
        assert folded == two_pass_fold(terms, t, w, pk)
        assert _unfold(folded, t, w, pk) == two_pass_unfold(folded, t, w, pk)
        if cancelled is not None:
            assert cancelled not in pk.unpack(folded)
        if all(abs(c).bit_length() < w for c in terms.values()):
            assert _unfold(folded, t, w, pk) == terms

    @pytest.mark.parametrize("route", ["unpacked", "packed"])
    @settings(deadline=None)
    @given(st.data())
    def test_determinant_matches_naive_det(self, route, data):
        # up to 4 x 4 over 2 to 5 variables, some of which no term has:
        # entries of up to 3 terms of degree <= 2 with coefficients of both
        # signs up to 60 digits, empty entries, and entries that repeat an
        # earlier term map, as the rows of a Sylvester matrix do.  The
        # packed route folds any variable, used or not.
        nvars = data.draw(st.integers(2, 5))
        vs = VARS[:nvars]
        _, evs = data.draw(term_map_exponents(nvars, 2))
        n = data.draw(st.integers(1, 4))
        seen = []
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                if seen and data.draw(st.booleans()):
                    e = data.draw(st.sampled_from(seen))
                else:
                    e = data.draw(st.dictionaries(evs, st.integers(-10**60, 10**60), max_size=3))
                    e = {ev: c for ev, c in e.items() if c}
                    seen.append(e)
                row.append(e)
            rows.append(row)
        given_rows = [[dict(e) for e in row] for row in rows]
        with determinant_route(route, data.draw(st.integers(0, nvars - 1))):
            got = kernel._determinant(rows, nvars)
        assert rows == given_rows
        assert MultiPoly(vs, got) == naive_det([[MultiPoly(vs, e) for e in row] for row in rows])


class TestNullspace:
    def test_invertible(self):
        assert rational_nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []

    def test_rank_one(self):
        assert rational_nullspace([[1, 2], [2, 4]]) == [[2, -1]]

    def test_single_row(self):
        assert rational_nullspace([[1, 1, 1]]) == [[1, -1, 0], [1, 0, -1]]

    def test_empty_matrix(self):
        assert rational_nullspace([], ncols=2) == [[1, 0], [0, 1]]

    def test_random_properties(self):
        rng = random.Random(47)
        for _ in range(40):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            matrix = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            basis = rational_nullspace(matrix)
            for vec in basis:
                for row in matrix:
                    assert sum(c * v for c, v in zip(row, vec)) == 0
                g = 0
                for v in vec:
                    g = gcd(g, v)
                assert g == 1
                first = next(v for v in vec if v)
                assert first > 0
            assert len(basis) == ncols - naive_rank(matrix)
            if basis:
                assert naive_rank(basis) == len(basis)
