"""At-the-bound soundness: identities that hold at every index the
certificate depth checks but the last.

The generator builds random C-finite tuples, proper and improper.  Each
sequence is an integer combination of the exponentials a_j^n plus a random
polynomial head of length h, its preperiod.  The a_j are +-2, +-3, +-5 with
random signs, so every product of d exponentials, times (-1)^(pn), is a
distinct character, one per multiset and parity.  For a set of (degree d,
sign parity p) pairs it spans the monomials of degree d in the sequences,
times sgn^p or sgn^(p+2).  If the monomials span the most the proof in
``cfinite.certificate_bound`` allows, s + the sum of C(r+d-1, d), then a
nonzero ``rational_nullspace`` combination vanishes at the first B - 1
indices and not at index B - 1.  Every certifier must check that index and
refute there.  A depth one smaller, or one without the preperiod s,
certifies a false identity.

The reference depth below reads r and s off the construction, not off
the reduced generating functions.  r counts the exponentials with a nonzero
weight in a used sequence, and s is the longest head of a used sequence.
A draw whose monomials fall short of the full dimension is rejected.  Run
with HYPOTHESIS_PROFILE=ci for a larger example budget (tests/conftest.py).
"""

from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubeforge import MultiPoly, RationalGF, certify_zero, find_form, rational_nullspace
from cubeforge import concoct
from cubeforge.cfinite import SIGN_SYMBOL, Certificate, _mul, rhs_poly, taylor_coefficients
from cubeforge.errors import NoForm, NoTargetedForm
from cubeforge.forge import theorem_from_json
from cubeforge.quadform import QuadForm

ROOTS = (2, 3, 5)
SMALL = st.integers(-3, 3)


def _plus(a, b):
    n = max(len(a), len(b))
    return [x + y for x, y in zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))]


def _multisets(r, d):
    # the coefficient of x^d in (1 + x + x^2 + ...)^r: dim Sym^d of r dimensions
    ways = [1] + [0] * d
    for _ in range(r):
        ways = list(accumulate(ways))
    return ways[d]


class Seq:
    """head(t) + sum_j weights[j] / (1 - roots[j] t), with its generating
    function."""

    def __init__(self, roots, weights, head):
        while head and not head[-1]:
            head = head[:-1]
        self.roots = [a for a, w in zip(roots, weights) if w]
        self.head = head
        den = [1]
        for a in roots:
            den = _mul(den, [1, -a])
        num = _mul(head, den) if head else [0]
        for j, w in enumerate(weights):
            rest = [1]
            for i, a in enumerate(roots):
                if i != j:
                    rest = _mul(rest, [1, -a])
            num = _plus(num, [w * c for c in rest])
        self.gf = RationalGF(num, den)


@st.composite
def seq_tuples(draw, max_order, count=None, max_head=2):
    """Sequences on the first r of ROOTS with random signs, r <= max_order:
    r + 0..2 of them, or ``count``; none is identically zero."""
    r = draw(st.integers(0, max_order))
    roots = [draw(st.sampled_from((1, -1))) * a for a in ROOTS[:r]]
    k = count if count is not None else r + draw(st.integers(0 if r else 1, 2))
    seqs = []
    for _ in range(k):
        weights = draw(st.lists(SMALL, min_size=r, max_size=r))
        head = draw(st.lists(SMALL, max_size=max_head))
        if not (any(weights) or any(head)):
            head = [1]
        seqs.append(Seq(roots, weights, head))
    return seqs


def reference_depth(expr, seqs):
    """s + sum over the (degree, sign parity) pairs of the terms of the
    multisets of d of the r exponentials, with r and s read off the
    construction of the sequences expr uses."""
    exponents = [dict(zip(expr.variables, ev)) for ev in expr.terms]
    used = [v for v in expr.variables if v != SIGN_SYMBOL and any(e[v] for e in exponents)]
    r = len({a for v in used for a in seqs[v].roots})
    s = max((len(seqs[v].head) for v in used), default=0)
    pairs = set()
    for e in exponents:
        sign = e.get(SIGN_SYMBOL, 0)
        pairs.add((sum(e.values()) - sign, sign % 2))
    return s + sum(_multisets(r, d) for d, _ in pairs)


def _evaluate(monomial, values, n):
    out = -1 if monomial[-1] % 2 and n % 2 else 1
    for x, e in zip(values, monomial):
        out *= x[n] ** e
    return out


def at_the_bound(names, seqs, monomials, bound):
    """A nonzero integer combination of the monomials (exponent vectors over
    names + (SIGN_SYMBOL,)) that vanishes at n < bound - 1 and not at
    bound - 1, as a MultiPoly, or None when none does.  Combinations that
    vanish at every n < bound are checked to vanish three indices further."""
    values = [taylor_coefficients(seqs[v].gf, bound + 3) for v in names]
    rows = [[_evaluate(m, values, n) for m in monomials] for n in range(bound + 3)]
    found = None
    for v in rational_nullspace(rows[: bound - 1], ncols=len(monomials)):
        w = [sum(c * x for c, x in zip(v, row)) for row in rows]
        if w[bound - 1]:
            found = found or MultiPoly(names + (SIGN_SYMBOL,), dict(zip(monomials, v)))
        else:
            assert not any(w), "a combination vanishing below the bound is not zero"
    return found


def _monomials(k, pairs):
    """Every exponent vector of degree d in k variables with the sign
    exponent e, for each (d, e) in pairs."""
    out = []
    for d, e in pairs:
        for combo in combinations_with_replacement(range(k), d):
            out.append(tuple(combo.count(i) for i in range(k)) + (e,))
    return out


# (degree, sign exponent) pairs: the sign exponent p or p + 2
PAIRS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=1,
    max_size=3,
    unique_by=lambda pair: (pair[0], pair[1] % 2),
)


class TestAtTheBound:
    @settings(deadline=None)
    @given(seq_tuples(max_order=3), PAIRS, seq_tuples(max_order=1, count=1, max_head=3))
    def test_certify_zero(self, tuple_, pairs, unused):
        names = tuple(f"X{i}" for i in range(len(tuple_)))
        seqs = dict(zip(names, tuple_))
        monomials = _monomials(len(names), pairs)
        generic = MultiPoly(names + (SIGN_SYMBOL,), dict.fromkeys(monomials, 1))
        bound = reference_depth(generic, seqs)
        expr = at_the_bound(names, seqs, monomials, bound)
        assume(expr is not None and reference_depth(expr, seqs) == bound)
        # a bound but unused sequence adds nothing to the depth
        bindings = {v: seqs[v].gf for v in names} | {"Z": unused[0].gf}
        assert certify_zero(expr, bindings) == Certificate(bound=bound, witness=bound - 1)

    @settings(deadline=None)
    @given(seq_tuples(max_order=1, count=3), st.sampled_from(["constant", "alternating"]))
    def test_certify_theorem(self, tuple_, kind):
        # a*A^3 + a*B^3 + b*C^3 - c*(+-1)^n: the columns A^3 + B^3, C^3 and
        # the target, at r <= 1 and s <= 2, where three columns can reach
        # the depth s + C(r+2, 3) + 1
        names = ("A", "B", "C")
        seqs = dict(zip(names, tuple_))
        sign = int(kind == "alternating")
        monomials = _monomials(3, [(3, 0), (0, sign)])
        generic = MultiPoly(names + (SIGN_SYMBOL,), dict.fromkeys(monomials, 1))
        bound = reference_depth(generic, seqs)
        A, B, C = (taylor_coefficients(seqs[v].gf, bound) for v in names)
        signs = [-1 if sign and n % 2 else 1 for n in range(bound)]
        rows = [[A[n] ** 3 + B[n] ** 3, C[n] ** 3, signs[n]] for n in range(bound)]
        hits = [
            v
            for v in rational_nullspace(rows[: bound - 1], ncols=3)
            if sum(c * x for c, x in zip(v, rows[-1]))
        ]
        assume(hits and all(hits[0]))
        a, b, c = hits[0][0], hits[0][1], -hits[0][2]
        gfs = [seqs[v].gf.to_json() for v in names]
        data = {"a": a, "b": b, "c": c, "rhs_kind": kind, "gfs": gfs}
        thm = theorem_from_json(data)
        assert thm.certificate == Certificate(bound=bound, witness=bound - 1)

    @settings(deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(2, 3),
        st.sampled_from(["constant", "alternating", "none"]),
        st.integers(1, 3),
        st.data(),
    )
    def test_find_form(self, k, degree, target, extra, data):
        # Finite sequences (r = 0) of one length L.  Their first m values are
        # random and nonzero, and the rest repeat them with period m (even
        # for the alternating target), so the matrix rows that find_form's
        # first plan reads add nothing to those of every index up to B - 2.
        # For target "none" the values at L - 1 are new, and B = L; for the
        # others the relation breaks at n = L, where every sequence is 0, and
        # B = L + 1.  The first candidate must be refuted at B - 1, and what
        # find_form returns must hold.
        base_rows = len(_monomials(k, [(degree, 0)])) + 4
        m = data.draw(st.integers(1, 3)) * (2 if target == "alternating" else 1)
        length = base_rows + extra
        nonzero = st.sampled_from((-3, -2, -1, 1, 2, 3))
        free = [data.draw(st.lists(nonzero, min_size=m, max_size=m)) for _ in range(k)]
        terms = [[x[n % m] for n in range(length)] for x in free]
        if target == "none":
            for x in terms:
                x[-1] = data.draw(nonzero)
        gfs = [RationalGF(x, (1,)) for x in terms]
        bound = length + (target != "none")
        certificates = []

        def recording(expr, seqs):
            certificates.append(certify_zero(expr, seqs))
            return certificates[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concoct, "certify_zero", recording)
            try:
                form = find_form(gfs, degree, target)
            except (NoForm, NoTargetedForm):
                form = None
        if form is not None:
            # the returned relation holds, past the sequences' end too
            names = tuple(f"X{i + 1}" for i in range(k))
            expr = MultiPoly(names, form.coefficients) - rhs_poly(form.constant, target)
            for n in range(bound + 3):
                env = {v: (x[n] if n < length else 0) for v, x in zip(names, terms)}
                env[SIGN_SYMBOL] = -1 if n % 2 else 1
                assert expr.evaluate(env) == 0
        assume(certificates and not certificates[0].certified)
        assert certificates[0] == Certificate(bound=bound, witness=bound - 1)

    @settings(deadline=None)
    @given(seq_tuples(max_order=2, count=2))
    def test_orbit_shaped(self, tuple_):
        # Q(m, n) - e*sgn, the identity sol_quad certifies for an
        # alternating orbit: four columns reach s + C(r+1, 2) + 1 at r <= 2
        names = ("m", "n")
        seqs = dict(zip(names, tuple_))
        monomials = _monomials(2, [(2, 0), (0, 1)])
        generic = MultiPoly(names + (SIGN_SYMBOL,), dict.fromkeys(monomials, 1))
        bound = reference_depth(generic, seqs)
        found = at_the_bound(names, seqs, monomials, bound)
        assume(found is not None)
        coeff = [found.terms.get(ev, 0) for ev in monomials]
        assume(coeff[3] != 0 and any(coeff[:3]))
        form, e = QuadForm(*coeff[:3]), -coeff[3]
        expr = form.to_poly() - rhs_poly(e, "alternating")
        assume(reference_depth(expr, seqs) == bound)
        cert = certify_zero(expr, {v: seqs[v].gf for v in names})
        assert cert == Certificate(bound=bound, witness=bound - 1)
