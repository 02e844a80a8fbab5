"""Binary quadratic forms: solution enumeration, Pell-like orbit discovery
with generating-function output, and the explicit constant-value form
constructors for shared-denominator sequence pairs.

Orbits are found from data: enumerate small solutions, read the recurrence
of a unit off them, build the orbit from that recurrence and its first
points (PellOrbit, which derives the generating functions), and certify the
resulting infinite family by a finite check.  A Pell-like orbit steps from one
solution to the next by an automorph of the form; its eigenvalues are a unit
(t + s*sqrt(D'))/2 of norm N = +-1 and its conjugate (Cohen, GTM 138, 5.6
and 5.7), so both coordinate sequences obey x_(k+2p) = t*x_(k+p) - N*x_k,
the denominator 1 - t*z^p + N*z^(2p), where p > 1 when p orbits interleave
in the sorted list.  N follows from the value pattern, and t is read off as
one integer on every window; nothing is fitted.

Enumeration lists the solutions of Q(m, n) = e in the box 1 <= m <= bound,
0 <= n <= bound, by one scan over m = 1..bound per distinct target that
reads the n of each column off one isqrt or one division
(``enumerate_solutions`` gives the algebra and the early stops).

The sweep's kinds.  ``_slot_kind`` divides the content out once: it
computes the content k, the primitive part f = Q/k and its discriminant
D' = D/k^2, and names the kind of the form, the one place that tests the
sign and squareness of a discriminant.  There are five kinds: "definite"
(D < 0), "pell" (D > 0 and not a square), "square-disc" (D a nonzero
square), "line" (D = 0 with qb != 0) and "one-variable" (D = 0 with
qb = 0).  sol_quad sweeps two of them only: a "pell" form by its
classes (``_Classes`` over a ``_DiscTable``), a "line" form by its linear
factor (``_Factored``).

Indefinite non-square D (D > 0, so qa*qc != 0).  A solution with
gcd(m, n) = g is g times a primitive representation of e' = e/(k*g^2) by f.
A primitive representation (x, y) is the first column of some M in SL2(Z),
and f∘M = (e', B, C) with B^2 = D' (mod 4|e'|); B mod 2|e'| is fixed by
(x, y).  So for each such B the representations belonging to it are the
first columns of the M with f∘M = f_B = (e', B, (B^2 - D')/4e'): none unless
f_B is properly equivalent to f, and otherwise one orbit of the proper
automorphs of f (Cohen, A Course in Computational Algebraic Number Theory,
GTM 138, 5.2 and 5.6; Buchmann & Vollmer, Binary Quadratic Forms, ch. 6).
Equivalence is decided by reduction with the SL2 transform carried along:
the form reduces to a form on the cycle of reduced forms of its class under
rho, and the positions of that form on the cycle, P_j * z with f∘P_j = g_j,
run through the orbit, one per power of the fundamental automorph.  Only a
window of positions can reach the box (proved in ``_Classes``), so only the
window is explored, from both sides of the reduction of f; a huge unit, or
a long cycle, costs no more than a small one.  When 2|e'| < sqrt(D') the
forms f_B of the class are read off the cycle directly (Lagrange).  The
square roots B of D' mod 4|e'| come from one scan of the |e'| integers of
D''s parity in the window (sqrt(D') - 2|e'|, sqrt(D')): B^2 mod 4|e'|
depends on B mod 2|e'| only, the window holds one B of each class, and
B^2 = D' (mod 4) fixes the parity.  The roots and the reduced forms f_B
depend only on (D', e'), so they live in a ``_DiscTable`` per D' that
every form of that discriminant shares.

D = 0 with qb != 0.  Q = k'*L^2 with k' = +-k and L = r*m + s*n primitive,
so a solution lies on one of the lines L = +-p with k'*p^2 = e.

Cost.  enumerate_solutions takes at most bound isqrt calls or divisions
per distinct target, whatever the size of the targets: O(bound *
|distinct targets|), and nothing for a target beyond (|qa| + |qb| + |qc|)
* bound^2, which bounds |Q| on the box.  The sweep, per discriminant D',
for each |e'| met: the scan of |e'| candidates B for the square roots,
then O(1 + log(|e'| / sqrt(D'))) reduction steps per root B for each of
e' and -e', computed once in the table (none when 2|e'| < sqrt(D')).  The
scans of a sweep up to target_cap add up to O(target_cap^2) steps per D',
at most 20100 at the CLI's MAX_TARGET_CAP = 200; beyond that cap they
dominate the library call: sol_quad(QuadForm(2, -9, 5), bound=20000),
which finds no orbit, took 5.5 ms at target_cap 200, 0.23 s at 2000 and
4.9 s at 10^4, where a factorisation of 4|e'| with Tonelli-Shanks,
Hensel lifting and CRT took 5.5 ms, 0.06 s and 0.32 s (one Xeon core,
CPython 3.11).  Per form, one reduction
and the window: the positions j where |L+-| of the first column of P_j
stay within the box's bound times sqrt(D') |z| / |e'|, O(log(bound * D' *
|z|)) positions, as those grow geometrically along the cycle.  Beyond
those steps the work follows the number of classes and solutions, not
``bound``.  sol_quad's unit test costs up to 2 * (1 + isqrt(bound)) isqrt
calls once per D': 90 at its default bound 2000 and 284 at the CLI's
MAX_PELL_BOUND, but 2 * 10^5 at bound 10^10, where it outweighs the sweep
it can save: on (4, 11, -21), D = 457, it took 94 ms against 1.1 ms for
the whole sweep (one Xeon core, CPython 3.11), and 8 ms at bound 10^8.

The magnitude sweep.  sol_quad needs the solutions of Q = +-mag for mag =
1, 2, ... in turn.  Before any of them, and before any sweep data are
built, it asks whether an orbit can exist, by the kind of the form.
The points of a read-off orbit have m <= M, where M = bound, or
isqrt(target_cap // |qa|) when that is less and the coefficients share
one sign, as then |Q| >= |qa|*m^2 on the box.  Such an orbit either runs
along a line of a "line" form, stepping at least |s| in m for Q =
k'*(r*m + s*n)^2, or steps by a unit of trace t <= 1 + isqrt(M) of
Q(sqrt(D)) on a "pell" form, of norm +1 when the coefficients share one
sign.  A "square-disc" or "one-variable" form, a line too steep for M,
and a "pell" form whose field has no such unit (the test depends on D'
and M only, and is kept in the table) have no orbit, and nothing is
enumerated.  So the sweep runs on the classes of a "pell" form or the
factor of a "line" form only, and those two paths alone list primitive
representations.  The sweep does not
enumerate per target: ``_by_magnitude`` lists the primitive
representations of each e' = +-1, +-2, ... once and files g times each
under the magnitude k'*g^2*|e'| it solves, so every e' costs one lookup
however many magnitudes it serves, and a ``forge`` call computes each
table once for all its forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence

from .cfinite import (
    RHS_KINDS,
    SIGN_SYMBOL,
    Certificate,
    RationalGF,
    certify_zero,
    gf_from_den,
    taylor_coefficients,
)
from .errors import (
    DefiniteForm,
    DegenerateInitialVectors,
    InvalidForm,
    NoOrbitFound,
    ZeroB,
)
from .kernel import MultiPoly


@dataclass(frozen=True)
class QuadForm:
    """qa*m^2 + qb*m*n + qc*n^2 with int coefficients (a bool is not one),
    not all zero.  A float would reach gcd and isqrt, and True would read
    as 1."""

    qa: int
    qb: int
    qc: int

    def __post_init__(self):
        for c in (self.qa, self.qb, self.qc):
            if type(c) is not int:
                raise InvalidForm(f"a coefficient is a {type(c).__name__}, not an integer")
        if self.qa == 0 and self.qb == 0 and self.qc == 0:
            raise InvalidForm("all three coefficients are zero")

    @property
    def discriminant(self) -> int:
        return self.qb * self.qb - 4 * self.qa * self.qc

    def value(self, m: int, n: int) -> int:
        return self.qa * m * m + self.qb * m * n + self.qc * n * n

    def to_poly(self) -> MultiPoly:
        return MultiPoly(("m", "n"), {(2, 0): self.qa, (1, 1): self.qb, (0, 2): self.qc})

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "QuadForm":
        """The form of p, a polynomial over exactly the variables m and n, in
        either order."""
        if sorted(p.variables) != ["m", "n"]:
            raise InvalidForm(f"{p} is not a polynomial in the variables m and n")
        p = p.restricted(("m", "n"))
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
    """A family of solutions of Q(m, n) = e (kind "constant") or
    Q(m, n) = e * (-1)^i (kind "alternating") of the form Q: the pairs
    (m_i, n_i) that start at the deg den points ``start`` and obey the
    recurrence of ``den`` (den[0] = 1) from i = 0 on.  gf_m and gf_n are
    not arguments: they are the generating functions of the two sequences,
    gf_from_den of ``start`` over ``den`` in lowest terms, so either may
    reduce below ``den``.  Nor is the certificate: it is certify_zero on
    Q(m, n) - e*(+-1)^n over the two sequences, computed when the orbit is
    built.  ValueError for a kind other than "constant" and "alternating"
    or a start of another length than deg den."""

    form: QuadForm
    den: tuple[int, ...]
    start: tuple[tuple[int, int], ...]
    target: int
    kind: str
    gf_m: RationalGF = field(init=False)
    gf_n: RationalGF = field(init=False)
    certificate: Certificate = field(init=False)

    def __post_init__(self):
        if self.kind not in RHS_KINDS:
            raise ValueError(f"bad kind {self.kind!r}")
        if len(self.start) != len(self.den) - 1:
            raise ValueError(f"{len(self.start)} start points for the denominator {self.den}")
        object.__setattr__(self, "gf_m", gf_from_den([m for m, _ in self.start], self.den))
        object.__setattr__(self, "gf_n", gf_from_den([n for _, n in self.start], self.den))
        # Q(m, n) - target*(+-1)^n in one step, as forge.certify_theorem
        # builds its expression
        f, sign = self.form, 1 if self.kind == "alternating" else 0
        terms = {(2, 0, 0): f.qa, (1, 1, 0): f.qb, (0, 2, 0): f.qc, (0, 0, sign): -self.target}
        expr = MultiPoly._make(("m", "n", SIGN_SYMBOL), {ev: c for ev, c in terms.items() if c})
        cert = certify_zero(expr, {"m": self.gf_m, "n": self.gf_n})
        object.__setattr__(self, "certificate", cert)

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


# 2x2 integer matrices are tuples (p, q, r, s) = [[p, q], [r, s]] acting on
# column vectors; a form f transformed by M is f∘M, (f∘M)(v) = f(M v).


def _rho(f, disc: int, root: int):
    """Cohen's reduction operator on an indefinite form of non-square
    discriminant disc, root = isqrt(disc) (GTM 138, Def. 5.6.4): f∘[[0, -1],
    [1, t]] = (c, r, (r^2 - disc)/4c) with r = -b (mod 2|c|) in (-|c|, |c|]
    when |c| > sqrt(disc) and in (sqrt(disc) - 2|c|, sqrt(disc)) otherwise.
    Returns the new form and t."""
    _, b, c = f
    two_c = 2 * abs(c)
    if abs(c) > root:
        r = -b % two_c
        if r > abs(c):
            r -= two_c
    else:
        r = root - (root + b) % two_c
    return (c, r, (r * r - disc) // (4 * c)), (r + b) // (2 * c)


def _reduce_indefinite(f, disc: int, root: int):
    """(g, M) with g = f∘M reduced, |sqrt(disc) - 2|a|| < b < sqrt(disc)
    (irrational sqrt, so in integers 0 < b <= root and
    root - b < 2|a| <= root + b).  rho reaches such a form from any form
    (Cohen, Prop. 5.6.6)."""
    m = (1, 0, 0, 1)
    while not (0 < f[1] <= root and root - f[1] < 2 * abs(f[0]) <= root + f[1]):
        f, t = _rho(f, disc, root)
        m = (m[1], m[1] * t - m[0], m[3], m[3] * t - m[2])
    return f, m


class _DiscTable:
    """The class data that depend only on the primitive discriminant disc,
    positive and not a square, so that every form of that discriminant can
    share them.

    ``bases(e1)`` lists (g, z) for each B mod 2|e1| with B^2 = disc
    (mod 4|e1|): g the reduction f_B∘N of f_B = (e1, B, (B^2 - disc)/4e1)
    and z = N^-1 e_1, so g(z) = e1.  When f∘P = g for a form f of
    discriminant disc, f∘(P N^-1) = f_B and P z represents e1 (see
    _Classes).  B is taken in (sqrt(disc) - 2|e1|, sqrt(disc)).

    ``has_unit(top)`` decides sol_quad's small-unit test, which depends on
    nothing but disc and the bound.

    The lists are memoised per e1.  The roots B depend on |e1| only, so one
    call scans the |e1| candidates B of disc's parity in the window once and
    fills the lists of e1 and -e1 together; the sweep asks for both.  Over
    a sweep the scans cost O(target_cap^2) steps per disc: at most 20100 at
    the CLI's caps, but 4.9 s of sol_quad(QuadForm(2, -9, 5), bound=20000)
    at target_cap 10^4 (the module docstring's Cost paragraph).  The unit
    test is memoised by the traces it has scanned.  A table lives as long
    as its owner: one sol_quad call, or one forge call for all the forms it
    meets."""

    def __init__(self, disc: int):
        self.disc = disc
        self.root = isqrt(disc)
        self._bases: dict[int, list] = {}
        self._traced = 0  # every trace up to this one is checked
        self._least_unit: tuple[int, int] | None = None  # (trace, norm)

    def has_unit(self, top: int, norm_one: bool = False) -> bool:
        """Whether some t in 1..top makes (t^2 + 4)*disc, or (t^2 - 4)*disc
        with t >= 3, a nonzero square: whether Q(sqrt(disc)) holds a unit
        (t + sqrt(t^2 +- 4))/2 of norm -+1 and trace t in 1..top other than
        the double root t = 2 (see sol_quad).  With ``norm_one`` only the
        units of norm +1 count.  The scan resumes where the last call
        stopped and ends at the least such t, so the verdicts for all bounds
        cost one scan up to the largest top asked.  Each trace tests norm -1
        first, then norm +1 only where (t^2 - 4)*disc > 0, that is t >= 3.
        No t >= 3 passes both: the product of the two would make
        t^4 - 16 a square, and it lies strictly between (t^2 - 1)^2 and t^4.

        The least t, t0, is all either verdict needs.  The t that pass are
        the traces of the units eta > 1 of the ring of integers, eta =
        (t + sqrt(t^2 - 4N))/2 of norm N: such an eta is an algebraic
        integer of the field, and a unit eta > 1 of norm N has the trace
        t = eta + N/eta >= 1 with t^2 - 4N = (eta - N/eta)^2 a nonzero square
        of the field.  Those units are the powers eps^i, i >= 1, of the
        fundamental unit eps, and among the units of one norm the trace
        eta + N/eta grows with eta.  So t0 is the trace of eps.  If eps has
        norm +1, every unit has, and the least norm +1 trace is t0; if it
        has norm -1, the norm +1 units are the even powers, the least of
        them eps^2, of trace t0^2 + 2 (the trace of eps^2 is t0^2 - 2N(eps))."""
        disc = self.disc
        while self._least_unit is None and self._traced < top:
            self._traced = t = self._traced + 1
            w = (t * t + 4) * disc
            if isqrt(w) ** 2 == w:
                self._least_unit = (t, -1)
            elif t > 2:
                w = (t * t - 4) * disc
                if isqrt(w) ** 2 == w:
                    self._least_unit = (t, 1)
        if self._least_unit is None:
            return False
        t, norm = self._least_unit
        if norm_one and norm == -1:
            t = t * t + 2
        return t <= top

    def bases(self, e1: int) -> list[tuple[tuple[int, int, int], tuple[int, int]]]:
        if e1 not in self._bases:
            disc, root = self.disc, self.root
            two_e = 2 * abs(e1)
            # the B of the window of disc's parity, as B^2 = disc (mod 4)
            # forces it: |e1| candidates
            low = root - two_e + 1
            low += (low - disc) % 2
            roots = [b for b in range(low, root + 1, 2) if (b * b - disc) % (2 * two_e) == 0]
            for e in (e1, -e1):
                out = self._bases[e] = []
                for b in roots:
                    reduced, m = _reduce_indefinite((e, b, (b * b - disc) // (4 * e)), disc, root)
                    out.append((reduced, (m[3], -m[2])))
        return self._bases[e1]


class _Classes:
    """The sweep data of a form Q = scale * f of positive non-square
    discriminant, f = (a, b, c) primitive of discriminant disc, over the
    _DiscTable of disc.

    ``positions`` maps a first coefficient a_j to the pairs (g_j, P_j) of
    the explored positions whose reduced form g_j = f∘P_j starts with it.
    The reduced forms of the class make one cycle under rho.  Number its
    positions j in Z from f0 = f∘P_0, the reduction of f: g_(j+1) =
    rho(g_j) = g_j∘M_j with M_j = [[0, -1], [1, t_j]], and P_(j+1) =
    P_j * M_j, so f∘P_j = g_j; a period later P_(j+l) = eps * P_j for the
    fundamental automorph eps.
    Every proper automorph of f is +-eps^k, so the representations that
    belong to one class of B (see _DiscTable) are +-P_j z over all j with
    g_j = g, for one reduced g and one z.  Only a window of positions can
    give a point of the box; _extend explores it from both ends.

    The window.  With L+-(x, y) = 2a*x + (b +- sqrt(disc))*y on f and
    likewise on g_j, L+-^f(P_j w) = mu+-_j * L+-^(g_j)(w), where mu+-_j =
    L+-^f(v_j) / (2 a_j), v_j the first column of P_j.  One rho step
    multiplies mu+ by (b_j + sqrt(disc)) / (2 c_j) and mu- by
    (b_j - sqrt(disc)) / (2 c_j).  A reduced form has sqrt(disc) - b <
    2|a| < sqrt(disc) + b, so 2|c| = (disc - b^2) / 2|a| lies in the same
    interval: |mu+| grows and |mu-| shrinks strictly along the cycle.  A
    point of the box P_j z with g_j(z) = e1 has |L+-^f| <= K, and
    L+^(g_j)(z) * L-^(g_j)(z) = 4 a_j e1 with |L+-^(g_j)(z)| < 2|a_j z1| +
    2 sqrt(disc) |z2|, so |mu+-_j| < K (|z1| + sqrt(disc) |z2|) / (2|e1|).
    Positions outside the interval of j where both bounds hold give no
    point of the box.  Over two steps |mu+| grows by (sqrt(disc) + b_j) /
    (sqrt(disc) - b_(j+1)) > 3/2, as b_j + b_(j+1) is a positive multiple of
    2|c_j| > sqrt(disc) - b_j, so the interval holds O(log(x)) positions for
    the bound x, however long the cycle and however large the unit.  The
    explored window only grows, so positions outside the current box's
    interval may be known; the box test of ``primitive`` drops them.

    No point is listed twice, even up to sign.  A representation and its
    negative fix the same B mod 2|e1|, so distinct B give disjoint sets.
    Inside one class, points P z = +-P' z with f∘P = f∘P' = g make
    P'^-1 P an automorph of g with eigenvalue +-1, so P' = +-P: the
    automorphs other than +-1 have eigenvalues u^(+-i) with u > 1.  P' = -P
    does not occur, because the P listed for g are eps^i P_k."""

    def __init__(self, f: tuple[int, int, int], k: int, table: _DiscTable):
        self.disc = disc = table.disc
        self.root = table.root
        self.table = table
        self.scale = k
        self.f = f
        self.positions: dict[int, list] = {}
        self.reach = 2 * abs(f[0]) + abs(f[1]) + self.root + 1  # |L+-^f| < reach * limit
        f0, p0 = _reduce_indefinite(f, disc, self.root)
        self._ahead = (f0, p0)  # the next positions to explore, j = 0 and -1
        self._behind = self._back(f0, p0)
        self._reached = 0

    def _back(self, g, p):
        """Position j - 1 from position j: rho^-1 is tau rho tau with
        tau(a, b, c) = (c, b, a), and the same t."""
        h, t = _rho((g[2], g[1], g[0]), self.disc, self.root)
        return (h[2], h[1], h[0]), (p[0] * t - p[1], p[0], p[2] * t - p[3], p[2])

    def _beyond(self, g, p, side: int, x: int) -> bool:
        """Whether |mu+_j| (side 0) or |mu-_j| (side 1) exceeds x for
        certain at the position with form g = f∘p.  v = (p[0], p[2]) has
        f(v) = a_j = g[0], y*sqrt(disc) lies in [r, r + 1], so L+^f(v) lies
        in [w + r, w + r + 1] and L-^f(v) in [w - r - 1, w - r]; the other
        factor bounds |L| from below through L+ * L- = 4a * a_j."""
        x0, y0 = p[0], p[2]
        r = isqrt(self.disc * y0 * y0)
        if y0 < 0:
            r = -r - 1
        w = 2 * self.f[0] * x0 + self.f[1] * y0
        here, other = (w + r, w - r - 1) if side == 0 else (w - r - 1, w + r)
        low = here if here > 0 else (-here - 1 if here < -1 else 0)
        big = 2 * abs(g[0]) * x
        return low > big or abs(4 * self.f[0] * g[0]) > big * (abs(other) + 1)

    def _extend(self, x: int) -> None:
        """Explore forward until |mu+_j| > x and backward until |mu-_j| > x,
        so that every position with both |mu+-_j| <= x is known, for an x
        above ``_reached``.  Both grow geometrically away from the window,
        by the unit per period."""
        self._reached = x
        disc, root = self.disc, self.root
        g, p = self._ahead
        while not self._beyond(g, p, 0, x):
            self._add(g, p)
            g, t = _rho(g, disc, root)
            p = (p[1], p[1] * t - p[0], p[3], p[3] * t - p[2])
        self._ahead = (g, p)
        g, p = self._behind
        while not self._beyond(g, p, 1, x):
            self._add(g, p)
            g, p = self._back(g, p)
        self._behind = (g, p)

    def _add(self, g, p) -> None:
        self.positions.setdefault(g[0], []).append((g, p))

    def primitive(self, e1: int, limit: int) -> list[tuple[int, int]]:
        """Every primitive representation (x, y) of e1 != 0 by f with
        1 <= x <= limit and 0 <= y <= limit.

        For each (g, z) of table.bases(e1), the points P z over the P of
        ``positions[g[0]]`` that take f to g.  When 2|e1| < sqrt(disc), f_B
        is already reduced, so the f_B of the class are exactly the cycle
        forms with first coefficient e1 (Lagrange's criterion) and z =
        (1, 0): the points are the first columns of ``positions[e1]``, with
        no square roots and no reduction."""
        # explore the window up to K (|z1| + sqrt(disc) |z2|) / (2|e1|)
        if 2 * abs(e1) <= self.root:
            x = self.reach * limit // (2 * abs(e1)) + 1  # z = (1, 0)
            if x > self._reached:
                self._extend(x)
            found = [(p[0], p[2]) for _, p in self.positions.get(e1, ())]
        else:
            found = []
            for reduced, z in self.table.bases(e1):
                width = abs(z[0]) + (self.root + 1) * abs(z[1])
                x = self.reach * limit * width // (2 * abs(e1)) + 1
                if x > self._reached:
                    self._extend(x)
                found += [
                    (p[0] * z[0] + p[1] * z[1], p[2] * z[0] + p[3] * z[1])
                    for g, p in self.positions.get(reduced[0], ())
                    if g == reduced
                ]
        out = []
        for x, y in found:
            if x < 0:
                x, y = -x, -y
            if 0 < x <= limit and 0 <= y <= limit:
                out.append((x, y))
        return out


def _t_range(c0: int, c1: int, lo: int, hi: int) -> tuple[int, int]:
    """(t_lo, t_hi), the interval of the t with lo <= c0 + c1*t <= hi, for
    c1 != 0."""
    if c1 < 0:
        c0, c1, lo, hi = -c0, -c1, -hi, -lo
    return -((c0 - lo) // c1), (hi - c0) // c1


def _line_points(r: int, s: int, p: int, bound: int) -> list[tuple[int, int]]:
    """The (m, n) of the box on the line r*m + s*n = p, gcd(r, s) = 1 and
    r, s != 0: the points (m0 + s*t, n0 - r*t) for one solution (m0, n0)."""
    m0 = p * pow(r, -1, abs(s))  # r*m0 = p (mod s)
    n0 = (p - r * m0) // s
    m_lo, m_hi = _t_range(m0, s, 1, bound)
    n_lo, n_hi = _t_range(n0, -r, 0, bound)
    return [(m0 + s * t, n0 - r * t) for t in range(max(m_lo, n_lo), min(m_hi, n_hi) + 1)]


class _Factored:
    """The sweep data of a "line" form, D = 0 with qb != 0: Q = scale * L^2
    with L = r*m + s*n, gcd(r, s) = 1 and scale = +-k.  For f = Q/k =
    (a, b, c) primitive, b^2 = 4ac with b != 0 makes a and c nonzero and of
    one sign, and |a| a square: a prime to an odd power in |a| divides |c|,
    as |a*c| = (b/2)^2, so it divides b too, and f would not be primitive.
    So f = sign(a) * (r*m + s*n)^2 with r = isqrt(|a|) and s = b / (2a/r),
    and gcd(r, s) = 1, again as f is primitive."""

    def __init__(self, f: tuple[int, int, int], k: int):
        a, b, _ = f
        self.r = isqrt(abs(a))
        self.s = b // (2 * a // self.r)
        self.scale = k if a > 0 else -k

    def primitive(self, e1: int, limit: int) -> list[tuple[int, int]]:
        """Every (x, y) of the box of ``limit`` with L(x, y)^2 = e1 and
        gcd(x, y) = 1: the points of the lines L = p and L = -p for
        p^2 = e1."""
        p = isqrt(e1) if e1 > 0 else 0
        if not p or p * p != e1:
            return []
        lines = (_line_points(self.r, self.s, q, limit) for q in (p, -p))
        return [v for points in lines for v in points if gcd(*v) == 1]


def _slot_kind(form: QuadForm) -> tuple[str, int, tuple[int, int, int], int]:
    """(kind, k, f, D'): the kind of the form, its content k > 0, its
    primitive part f = Q/k and f's discriminant D' = D/k^2, computed here
    and nowhere else.  The kind is "definite" (D < 0), "pell" (D > 0, not
    a square), "square-disc" (D a nonzero square), "line" (D = 0 with
    qb != 0) or "one-variable" (D = 0 with qb = 0, so Q = qa*m^2 or
    qc*n^2).  D' has the sign and squareness of D, so it decides them."""
    k = gcd(form.qa, form.qb, form.qc)
    disc = form.discriminant // (k * k)
    if disc < 0:
        kind = "definite"
    elif disc == 0:
        kind = "line" if form.qb else "one-variable"
    else:
        kind = "square-disc" if isqrt(disc) ** 2 == disc else "pell"
    return kind, k, (form.qa // k, form.qb // k, form.qc // k), disc


def _table(tables: dict[int, _DiscTable], disc: int) -> _DiscTable:
    """The _DiscTable of disc from ``tables`` (keyed by disc), added to it
    if missing."""
    table = tables.get(disc)
    if table is None:
        table = tables[disc] = _DiscTable(disc)
    return table


def _box_cap(form: QuadForm, bound: int) -> int:
    """(|qa| + |qb| + |qc|) * bound^2, which bounds |Q| on the box."""
    return (abs(form.qa) + abs(form.qb) + abs(form.qc)) * bound * bound


def check_work_option(name: str, value) -> None:
    """ValueError unless a work option (a bound, a cap, a count) is an int,
    not a bool, of at least 1.  A float would reach range arithmetic and box
    tests as a float limit, and True would read as 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def enumerate_solutions(
    form: QuadForm, targets: Iterable[int], bound: int
) -> list[tuple[int, int, int]]:
    """All (m, n, Q(m, n)) with 1 <= m <= bound, 0 <= n <= bound and value in
    ``targets``, sorted by m then n.  The quarter-plane quotients the global
    (m, n) <-> (-m, -n) symmetry and fixes the orientation every orbit read-off
    relies on.

    One scan over m = 1..bound per distinct target e.  With qc != 0,
    4*qc*Q = (2*qc*n + qb*m)^2 - D*m^2, so the n of column m come from one
    isqrt of D*m^2 + 4*qc*e; with qc = 0 from one division of e - qa*m^2 by
    qb*m; and with qb = qc = 0 the whole column matches when qa*m^2 = e.
    So the work is at most bound isqrt calls or divisions per distinct
    target, O(bound * |distinct targets|), for targets of any size.  A
    target beyond (|qa| + |qb| + |qc|) * bound^2, which bounds |Q| on the
    box, costs nothing.  The scan of e stops at the first negative radicand
    when D <= 0, as the radicand then falls or stays as m grows, and at the
    first m with |qa|*m^2 > |e| when the coefficients share one sign, as
    then |Q| >= |qa|*m^2 on the box.  The bound and the targets must be
    ints (not bools): a target 1.5 read as 1 would list the solutions of
    another value.
    """
    check_work_option("bound", bound)
    targets = list(targets)
    if any(type(t) is not int for t in targets):
        raise ValueError("targets must be ints")
    qa, qb, qc = form.qa, form.qb, form.qc
    disc, cap, two_c = form.discriminant, _box_cap(form, bound), 2 * qc
    # |Q| >= floor * m^2 on the box when the coefficients share one sign
    floor = abs(qa) if qa * qb >= 0 and qa * qc >= 0 else 0
    out = []
    for e in set(targets):
        if not -cap <= e <= cap:
            continue
        rest = 2 * two_c * e  # 4*qc*e
        for m in range(1, bound + 1):
            if floor * m * m > abs(e):
                break
            if qc:
                square = disc * m * m + rest
                if square < 0:
                    if disc <= 0:
                        break
                    continue
                s = isqrt(square)
                if s * s == square:
                    for t in {s, -s}:
                        n, r = divmod(t - qb * m, two_c)
                        if not r and 0 <= n <= bound:
                            out.append((m, n, e))
            elif qb:
                n, r = divmod(e - qa * m * m, qb * m)
                if not r and 0 <= n <= bound:
                    out.append((m, n, e))
            elif qa * m * m == e:
                out += [(m, n, e) for n in range(bound + 1)]
    out.sort()
    return out


def _value_pattern(values: Sequence[int]) -> tuple[str, int] | None:
    """"constant" when all values agree, "alternating" when they flip sign
    with constant magnitude; None otherwise."""
    first = values[0]
    if all(v == first for v in values):
        return "constant", first
    if all(values[i] == first * (-1) ** i for i in range(len(values))):
        return "alternating", first
    return None


def _unit_recurrence(seqs: Sequence[Sequence[int]], kind: str) -> tuple[int, ...] | None:
    """The denominator 1 - t*z^p + N*z^(2p), read off the sequences for the
    least p in (1, 2) that fits, or None.

    N is the norm of the unit that steps an orbit p places on: along each
    residue class mod p the value is multiplied by N, so N = 1 for constant
    values and N = (-1)^p for alternating ones.  t must be one integer with
    x_(k+2p) + N*x_k = t*x_(k+p) on every window of every sequence.  Order
    2p is tried only on at least 3p + 1 points, the margin that
    joint_guess_recurrence (surplus 2) demands of two sequences at order 2p:
    2(3p + 1 - 2p) = 2p + 2 equations for 2p unknowns.  That guess, kept as
    the oracle in the tests, gives the same orbits except where it fits a
    recurrence of another shape: a shifted one (the list's first points off
    the orbit) or one of odd order, which needs fewer points.

    p stops at 2 so that every theorem forge builds on the orbit passes
    verify's two order caps.  An orbit denominator of order 2p <= 4 gives
    value denominators den2 = _symmetric_square(den) of degree at most
    C(5, 2) = 10 (forge._value_gfs), so the three generating functions of a
    forged theorem have denominator orders summing to at most 30, which is
    cfinite.MAX_VERIFY_ORDER, and numerators of at most 10 < 31 coefficients
    (gf_from_den keeps deg den2 of them; the normal form only lowers both).
    At p = 3 one value denominator can reach degree C(7, 2) = 21, and the
    sum 63."""
    length = min(len(x) for x in seqs)
    for p in (1, 2):
        if length < 3 * p + 1:
            break
        sign = 1 if kind == "constant" else (-1) ** p
        t = _unit_trace(seqs, p, sign)
        if t is not None:
            return (1,) + (0,) * (p - 1) + (-t,) + (0,) * (p - 1) + (sign,)
    return None


def _unit_trace(seqs: Sequence[Sequence[int]], p: int, sign: int) -> int | None:
    """The one integer t with x_(k+2p) + sign*x_k = t*x_(k+p) on every
    window of every sequence, or None; a window with x_(k+p) = 0 must have
    x_(k+2p) + sign*x_k = 0 and fixes nothing."""
    t = None
    for x in seqs:
        for k in range(len(x) - 2 * p):
            outer, mid = x[k + 2 * p] + sign * x[k], x[k + p]
            if mid == 0:
                if outer:
                    return None
            elif outer % mid or (t is not None and outer // mid != t):
                return None
            else:
                t = outer // mid
    return t


def _orbit_from_solutions(
    form: QuadForm, sols: Sequence[tuple[int, int, int]]
) -> PellOrbit | None:
    """The certified orbit through the listed points, or None when their
    values fit no pattern, no unit read-off fits, or the orbit's generating
    functions do not share their lowest-terms denominator.

    Once those pass, the certificate cannot refute, so a refutation raises
    AssertionError.  The read-off fits den = 1 - t*z^p + N*z^(2p) on at
    least 3p + 1 points, so each residue class j mod p holds the three
    listed points j, j + p, j + 2p.  The orbit starts at the first 2p
    listed points and obeys den, and so does every window of the list, so
    the orbit's terms are the listed ones as far as the list goes: along a
    class, u_i = m_(j+pi) and v_i = n_(j+pi) are annihilated by
    1 - t*y + N*y^2.  With alpha, beta its roots, alpha*beta = N, each
    value Q(u_i, v_i) lies in the 3-dimensional space spanned by
    alpha^(2i), N^i and beta^(2i) (generalised powers when alpha = beta),
    which the symmetric square of 1 - t*y + N*y^2, monic of order 3,
    annihilates.  The target along the class is c*N^i: constant values
    have N = 1, and alternating ones give (-1)^(j+pi) = (-1)^j N^i as
    N = (-1)^p.  So Q(u_i, v_i) - c*N^i lies in that space and vanishes
    at i = 0, 1, 2, where _value_pattern checked the listed values; an
    order-3 recurrence then makes it zero for every i.  The identity is
    true, and certify_zero, which evaluates it exactly, certifies it."""
    if len(sols) < 3:
        return None
    pattern = _value_pattern([v for _, _, v in sols])
    if pattern is None:
        return None
    kind, target = pattern
    den = _unit_recurrence(([m for m, _, _ in sols], [n for _, n, _ in sols]), kind)
    if den is None:
        return None
    orbit = PellOrbit(form, den, tuple((m, n) for m, n, _ in sols[: len(den) - 1]), target, kind)
    if orbit.gf_m.den != orbit.gf_n.den:
        # reduction split the shared denominator; treat as a failed candidate
        return None
    if not orbit.certificate.certified:
        raise AssertionError(
            f"{form}: a read-off orbit was refuted at n={orbit.certificate.witness}"
        )
    return orbit


def _by_magnitude(
    form: QuadForm, data: _Factored | _Classes, bound: int, target_cap: int
) -> Iterator[list[tuple[int, int, int]]]:
    """For mag = 1, 2, ..., target_cap in turn, the list
    enumerate_solutions(form, (mag, -mag), bound), computed lazily by one
    sweep over |e1| = 1, 2, ... with the sweep data ``data`` of the
    form.  sol_quad sweeps a "line" or "pell" form only (_slot_kind), so
    ``data`` is a _Factored or a _Classes.

    Let Q = s * f with s = data.scale, f the primitive part (_Classes) or
    the square of the linear factor (_Factored).  A
    solution (m, n) of Q = +-mag with gcd(m, n) = g is g times a primitive
    representation v of e1 = +-mag / (s g^2) by f, and v lies in the box
    of bound // g.
    So for each e1 = +-a the sweep takes the primitive representations in
    the box of ``bound`` once, from data.primitive, and files them under
    magnitude |s| g^2 a for every g with |s| g^2 a <= target_cap; the list
    of a magnitude is the g * v of its entries with v in the box of
    bound // g.  It is exact: the window data.primitive explores for the
    box of ``bound`` contains the window of every smaller box, and
    positions outside a box's window give no point in it (_Classes), so
    the box test removes them.  Nothing is listed twice: points of
    distinct (g, e1) differ in gcd or value, and data.primitive lists each
    representation once.  After a, every magnitude <= |s| a has all its
    entries, so its list is built, sorted and yielded then (a magnitude
    with no entry is yielded empty, with nothing built); a consumer
    that stops at a magnitude stops the sweep there.  Magnitudes beyond
    (|qa| + |qb| + |qc|) * bound^2 have no point in the box and are
    yielded empty without any work."""
    scale = abs(data.scale)
    top = min(target_cap, _box_cap(form, bound))
    # magnitude -> (g, value, primitive representations of value / (s g^2))
    pending: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}
    done = 0
    for a in range(1, top // scale + 1):
        for e1 in (a, -a):
            reps = data.primitive(e1, bound)
            g = 1
            while reps and scale * g * g * a <= top:
                value = data.scale * g * g * e1
                pending.setdefault(scale * g * g * a, []).append((g, value, reps))
                g += 1
        while done < scale * a:
            done += 1
            entries = pending.pop(done, None)
            yield [] if entries is None else sorted(
                (g * x, g * y, value)
                for g, value, reps in entries
                for x, y in reps
                if g * x <= bound and g * y <= bound
            )
    for _ in range(done, target_cap):
        yield []


def _ladder(sols: list[tuple[int, int, int]]) -> list[list[tuple[int, int, int]]]:
    """The candidate lists sol_quad tries on the solutions of one magnitude,
    in order and each once: the full sorted list, its even- and odd-indexed
    subsequences (interleaved orbits are common), then each sign class of
    the value.  An empty ladder for fewer than 3 solutions."""
    if len(sols) < 3:
        return []
    out: list = []
    for cand in (
        sols,
        sols[0::2],
        sols[1::2],
        [s for s in sols if s[2] > 0],
        [s for s in sols if s[2] < 0],
    ):
        if cand not in out:
            out.append(cand)
    return out


def sol_quad(
    form: QuadForm,
    *,
    bound: int = 2000,
    target_cap: int = 30,
    _tables: dict | None = None,
) -> PellOrbit:
    """Find a certified Pell-like orbit for the form.

    Target magnitudes |e| are scanned upward from 1 to ``target_cap``; the
    solutions of Q = +-|e| come from one lazy sweep over the primitive
    representations (_by_magnitude), and the scan stops at the winning
    magnitude.  The class data of each primitive discriminant are computed
    once per call, or once per forge call, which passes its own ``_tables``
    (private).  Inside one magnitude class the candidate solution lists are
    tried in a fixed ladder (_ladder).  Among the certified candidates of
    the winning class, a constant-kind orbit beats an alternating one;
    remaining ties go to the earliest ladder position.  So the ladder stops
    at its first certified constant candidate, and runs to its end only
    when no constant one certifies; once it holds an alternating orbit, it
    skips the candidates whose values are not all equal, as only constant
    values give a constant orbit (_value_pattern).

    Each form has one kind (_slot_kind), and the kind alone decides
    whether the sweep runs.  M is the largest first coordinate the points
    of a candidate that passes the read-off can have: M = bound, except on
    a one-sign form, whose three coefficients are all >= 0 or all <= 0
    with qa != 0, where M = min(bound, isqrt(target_cap // |qa|)).  T =
    1 + isqrt(M).  The rules, each with its part of the proof below:
    - "definite" (D < 0) raises DefiniteForm: every target has finitely
      many solutions.
    - "square-disc" (D a nonzero square) raises NoOrbitFound at once, by
      (2a) and (2b).
    - "one-variable" (D = 0 with qb = 0, so qa*qc = 0) raises NoOrbitFound
      at once, by (3).
    - "line" (D = 0 with qb != 0, a line of the form off the axes) is swept
      only when 1 + 3|s| <= M for Q = k'*(r*m + s*n)^2, gcd(r, s) = 1, so
      |s| = isqrt(|qc|/k) for the content k, by (2b).
    - "pell" (D > 0, not a square) is swept only when some t in 1..T makes
      (t^2 - 4)*D with t >= 3, or, on a form not of one sign, (t^2 + 4)*D
      a nonzero square (_DiscTable.has_unit on D' = D/k^2, which is the
      same test, with norm_one for one-sign forms), by (2a), and then by
      its classes (_Classes).
    A form refused by its rule raises NoOrbitFound before any sweep
    data are built: it has no candidate that passes the read-off, so the
    sweep would end in NoOrbitFound.  Proof.  Let a candidate
    pass with den = 1 - t*z^p + N*z^(2p).  It is a subsequence of the
    solutions, sorted by m, with m >= 1 and no point twice, and the
    read-off checked x_(k+2p) = t*x_(k+p) - N*x_k on at least 3p + 1
    points, so residue class 0 mod p holds four points v_i = (u_i, w_i),
    i = 0..3, with 1 <= u_0 <= u_1 <= u_2 <= u_3 <= bound, v_(i+2) =
    t*v_(i+1) - N*v_i and Q(v_i) = c*N^i for a target c != 0 (N = 1 for
    constant values and N = (-1)^p for alternating ones, so N = 1 when
    p = 2).  Let alpha, beta be the roots of y^2 - t*y + N, so
    alpha*beta = N.
    (0) One-sign forms.  On the box m >= 1, n >= 0 every term of Q is zero
    or has the sign of qa, so Q(m, n) has that sign and |Q(m, n)| >=
    |qa|*m^2 > 0.  The listed values share one sign, so they do not
    alternate: the values are constant and N = 1.  And |qa|*u_i^2 <= |c|
    <= target_cap, so u_i <= M.  On every other form u_i <= bound = M.
    (1) The trace is bounded by the box.  If t <= 0 and N = 1, u_2 <=
    -u_0 < 1.  If t <= 0 and N = -1, u_2 = t*u_1 + u_0 <= u_0 forces
    u_0 = u_1 = u_2 and t = 0, so v_2 = v_0, a point listed twice.  If t = 1
    and N = 1, u_2 = u_1 - u_0 < u_1.  Otherwise t >= 1, and u_(i+2) >=
    t*u_(i+1) - u_i >= (t - 1)*u_(i+1) twice gives u_3 >= (t - 1)^2 * u_1
    >= (t - 1)^2, so (t - 1)^2 <= u_3 <= M and t <= T.
    (2a) alpha != beta: "pell" only, with a unit the test finds.  v_i =
    A*alpha^i + B*beta^i with A, B in Q(alpha)^2, and Q(v_i) =
    Q(A)*alpha^(2i) + 2*Q(A, B)*N^i + Q(B)*beta^(2i) with Q(., .) the
    polar form.  The nodes alpha^2, N = alpha*beta and beta^2 are
    distinct, as t != 0, so the Vandermonde system of i = 0, 1, 2 against
    c*N^i gives Q(A) = 0 and 2*Q(A, B) = c != 0, so A != 0 lies on an
    isotropic line of Q.  A rational alpha is an integer dividing N, which
    with alpha != beta makes {alpha, beta} = {1, -1} and t = 0, excluded
    by (1); so alpha is irrational, and B = (v_1 - alpha*v_0)/(beta -
    alpha) is the conjugate of A.  If D is a square, 0 included (the
    kinds "square-disc", "line" and "one-variable"), the isotropic lines
    of Q are rational: A is a multiple of a rational w, so B, its
    conjugate, is too, every v_i lies on the line of w, and Q(v_i) = 0 !=
    c.  If D is not a square ("pell"), qa != 0, so a nonzero isotropic
    (x, y) has y != 0 and x/y = (-qb +- sqrt(D))/(2*qa), which is
    irrational; A_1/A_2 lies in Q(alpha), so sqrt(D) does, and Q(alpha) =
    Q(sqrt(t^2 - 4N)) = Q(sqrt(D)): (t^2 - 4N)*D is a nonzero square.
    With N = -1 that is (t^2 + 4)*D; with N = 1, t >= 2 and alpha != beta
    give t >= 3.  By (1) t <= T, and by (0) N = 1 on a one-sign form.
    (2b) alpha = beta: "line" only, with a step that fits the box.  Then
    t = 2 and N = 1, v_i = A + i*B with A = v_0 and B = v_1 - v_0
    rational, and Q(v_i) = c at i = 0, 1, 2 gives Q(B) = 0 and Q(A, B) =
    0.  B != 0, or v_1 = v_0 is a point listed twice, so D is a square, as
    Q has a rational isotropic vector: the kind is not "pell".  If D != 0
    ("square-disc") the polar form is nondegenerate and the vectors
    orthogonal to the isotropic B are its multiples, so Q(A) = 0 != c.  So
    D = 0, and with qb != 0 ("line"; for "one-variable" see (3)) r and s
    are nonzero, the isotropic vectors of Q are the multiples of (s, -r),
    and the integer vector B is lambda*(s, -r) with lambda != 0.  The u_i
    increase, so u_3 = u_0 + 3*|lambda*s| >= 1 + 3|s|, and 1 + 3|s| <= M.
    (3) The axes: "one-variable".  For Q = qa*m^2 and |e| >= 1 there is at
    most one m = k with qa*k^2 = +-|e|, so a class is the single line
    (k, 0), (k, 1), ..., (k, bound) and every candidate with at least
    three points pairs the constant sequence k with a non-constant
    arithmetic one a*i + b.  The values are constant, so N = 1.  A
    candidate of fewer than 4 points gets no read-off; on 4 or more, p = 1
    gives t = 2 on every window of both sequences, as k + k = 2k and
    (a*(i + 2) + b) + (a*i + b) = 2*(a*(i + 1) + b), where a zero middle
    term comes with a zero outer sum.  So the read-off stops at p = 1 with
    the denominator (1 - z)^2, the orbit's generating functions are
    k/(1 - z) and (b + (a - b)*z)/(1 - z)^2 with a != 0, both in lowest
    terms, and the "denominator split" check rejects the pair.  Q =
    qc*n^2 is the same with the roles of m and n swapped.

    The test costs at most 2T isqrt calls, memoised per D' in forge's
    tables (the module docstring's Cost paragraph counts them).  It covers
    the read-off ladder only: an orbit found another way, through a unit of
    larger trace, is not excluded by it.
    """
    check_work_option("bound", bound)
    check_work_option("target_cap", target_cap)
    kind, k, f, disc = _slot_kind(form)
    if kind == "definite":
        raise DefiniteForm(
            "{} has negative discriminant {}; every target admits only finitely many solutions",
            form,
            form.discriminant,
        )
    one_sign = form.qa != 0 and form.qa * form.qb >= 0 and form.qa * form.qc >= 0
    # M, the largest m a candidate that passes the read-off can reach
    reach = min(bound, isqrt(target_cap // abs(form.qa))) if one_sign else bound
    if kind == "pell":
        table = _table({} if _tables is None else _tables, disc)
        data = _Classes(f, k, table) if table.has_unit(1 + isqrt(reach), one_sign) else None
    elif kind == "line" and 1 + 3 * isqrt(abs(form.qc) // k) <= reach:
        data = _Factored(f, k)
    else:
        data = None  # "square-disc", "one-variable" and a line too steep for M
    if data is not None:
        for sols in _by_magnitude(form, data, bound, target_cap):
            if len(sols) < 3:
                continue  # _ladder has no candidate
            alternating = None
            for cand in _ladder(sols):
                if alternating is not None and any(v != cand[0][2] for _, _, v in cand):
                    continue  # only a constant candidate can replace it
                orbit = _orbit_from_solutions(form, cand)
                if orbit is None:
                    continue
                if orbit.kind == "constant":
                    return orbit
                alternating = alternating or orbit
            if alternating is not None:
                return alternating
    raise NoOrbitFound(
        "no certified orbit for {} with |target| <= {}, enumeration bound {}",
        form,
        target_cap,
        bound,
    )


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

    @property
    def integral(self) -> bool:
        return self.modulus.denominator == 1


def pell_special(k: int, b: int) -> PellConstruction:
    """A(n) from (1 - k t)/(1 - 2k t + t^2) and B(n) from b t/(1 - 2k t + t^2)
    solve X^2 - N Y^2 = 1 with N = (k^2 - 1)/b^2."""
    if b == 0:
        raise ZeroB("the scaling integer b must be nonzero")
    gf_a = RationalGF((1, -k), (1, -2 * k, 1))
    gf_b = RationalGF((0, b), (1, -2 * k, 1))
    return PellConstruction(gf_a=gf_a, gf_b=gf_b, modulus=Fraction(k * k - 1, b * b))
