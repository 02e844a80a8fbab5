"""Weighted four-cube machinery: numeric solutions of
a*X^3 + a*Y^3 + b*Z^3 + b*W^3 = 0, and the morph of a numeric solution
against the symbolic solution (m, -m, n, -n) into four binary quadratic
forms.

Morphing is the bilinear combination of two solutions (x, y, z, w) and
(x', y', z', w') = (m, -m, n, -n) with the multipliers
    c = a(x x'^2 + y y'^2) + b(z z'^2 + w w'^2)
    d = -(a(x^2 x' + y^2 y') + b(z^2 z' + w^2 w'))
which make the mixed cubic cross terms cancel, so (cx + dx', ...) solves the
same equation; here c and d are polynomials in m and n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidQuadruple
from .quadform import QuadForm, check_work_option


@dataclass(frozen=True)
class WeightedQuadruple:
    """Ints (a bool is not one) with a*x^3 + a*y^3 + b*z^3 + b*w^3 = 0,
    primitive unless all zero.  ``trivial`` flags solutions whose weighted cube terms cancel in
    pairs; those generate nothing new under morphing."""

    a: int
    b: int
    x: int
    y: int
    z: int
    w: int

    def __post_init__(self):
        if any(type(v) is not int for v in (self.a, self.b, *self.coords)):
            raise InvalidQuadruple("weights and coordinates must be ints, not bools")
        if self.a == 0 or self.b == 0:
            raise InvalidQuadruple("weights must be nonzero")
        if self.a * (self.x**3 + self.y**3) + self.b * (self.z**3 + self.w**3) != 0:
            raise InvalidQuadruple(
                f"({self.x},{self.y},{self.z},{self.w}) fails the weighted cubic "
                f"equation for weights ({self.a},{self.b})"
            )
        g = gcd(gcd(abs(self.x), abs(self.y)), gcd(abs(self.z), abs(self.w)))
        if g > 1:
            raise InvalidQuadruple(f"coordinates share the factor {g}")

    @property
    def coords(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)

    @property
    def trivial(self) -> bool:
        t1 = self.a * self.x**3
        t2 = self.a * self.y**3
        t3 = self.b * self.z**3
        t4 = self.b * self.w**3
        return (
            (t1 == -t2 and t3 == -t4)
            or (t1 == -t3 and t2 == -t4)
            or (t1 == -t4 and t2 == -t3)
        )

    def __str__(self) -> str:
        return f"({self.x}, {self.y}, {self.z}, {self.w})"


def search_quadruples(a: int, b: int, bound: int) -> list[WeightedQuadruple]:
    """All primitive nontrivial solutions with coordinates in [-bound, bound],
    one representative per orbit of the symmetries x<->y, z<->w and global
    negation.  Representatives satisfy x <= y, z >= w and x + y > 0, and are
    sorted by largest absolute coordinate, then lexicographically.

    Representatives.  With x <= y and z >= w, the other member of the
    orbit in that shape is the negation (-y, -x, -w, -z).  No nontrivial
    solution has x + y = 0: then a(x^3 + y^3) = 0, so b(z^3 + w^3) = 0
    forces w = -z, and the quadruple (x, -x, z, -z) is trivial.  So exactly
    one of the two has x + y > 0, and it is the lexicographically larger
    one, as x > -y.  The rows run y from max(x, 1 - x).

    The pairs.  u^3 + v^3 = (u + v)(u^2 - uv + v^2), and the second factor
    is positive unless u = v = 0, so u^3 + v^3 has the sign of u + v.  A
    row has x + y > 0, so a(x^3 + y^3) has the sign of a, and a matching
    pair has b(z^3 + w^3) of the sign of -a: z + w has the sign of -ab.
    Only the pairs (z, w), z >= w, with that sign of z + w are listed, half
    of them, and none of value 0.

    Trivial matches.  ``WeightedQuadruple.trivial`` asks, with
    t1, t2, t3, t4 = a x^3, a y^3, b z^3, b w^3, whether t1 = -t2 and
    t3 = -t4, or t1 = -t3 and t2 = -t4, or t1 = -t4 and t2 = -t3.  The
    first clause needs x = -y, which no row has.  A match has
    t1 + t2 + t3 + t4 = 0, so t1 = -t3 gives t2 = -t4 and t1 = -t4 gives
    t2 = -t3: the test t1 = -t3 or t1 = -t4 is the same verdict, taken before
    any quadruple is built.  Every kept match is still built, and so
    validated, as a WeightedQuadruple.

    The weights must be nonzero ints (a bool is not one) and ``bound`` a
    work option (check_work_option), or ValueError is raised: True would
    read as 1, and a float would reach range and gcd."""
    if type(a) is not int or type(b) is not int or a == 0 or b == 0:
        raise ValueError(f"weights must be nonzero ints, not {a!r} and {b!r}")
    check_work_option("bound", bound)
    a_cubes = {v: a * v**3 for v in range(-bound, bound + 1)}
    b_cubes = {v: b * v**3 for v in range(-bound, bound + 1)}
    by_value: dict[int, list[tuple[int, int]]] = {}
    for z in range(-bound, bound + 1):
        # w <= z with z + w > 0 when ab < 0, z + w < 0 when ab > 0
        ws = range(max(-bound, 1 - z), z + 1) if a * b < 0 else range(-bound, min(z, -1 - z) + 1)
        for w in ws:
            by_value.setdefault(b_cubes[z] + b_cubes[w], []).append((z, w))
    found: list[WeightedQuadruple] = []
    for x in range(-bound, bound + 1):
        t1 = a_cubes[x]
        for y in range(max(x, 1 - x), bound + 1):
            for z, w in by_value.get(-t1 - a_cubes[y], ()):
                # x + y > 0, so the gcd is never 0
                if gcd(x, y, z, w) == 1 and -t1 != b_cubes[z] and -t1 != b_cubes[w]:
                    found.append(WeightedQuadruple(a, b, x, y, z, w))
    found.sort(key=lambda q: (max(abs(c) for c in q.coords), q.coords))
    return found


@dataclass(frozen=True)
class ParamQuadruple:
    """Four binary quadratic forms in (m, n) meant to satisfy
    a*P1^3 + a*P2^3 + b*P3^3 + b*P4^3 = 0.  The container itself is
    permissive; use verify_param to check the identity."""

    a: int
    b: int
    p1: QuadForm
    p2: QuadForm
    p3: QuadForm
    p4: QuadForm

    @property
    def polys(self) -> tuple[QuadForm, QuadForm, QuadForm, QuadForm]:
        return (self.p1, self.p2, self.p3, self.p4)

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return (self.a, self.a, self.b, self.b)

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.polys) + ")"


def _cube(u: int, v: int, w: int) -> tuple[int, ...]:
    """The coefficients of m^6, m^5 n, ..., n^6 in (u m^2 + v mn + w n^2)^3."""
    return (
        u * u * u,
        3 * u * u * v,
        3 * u * (u * w + v * v),
        v * (v * v + 6 * u * w),
        3 * w * (u * w + v * v),
        3 * v * w * w,
        w * w * w,
    )


def verify_param(pq: ParamQuadruple) -> bool:
    """Whether a*P1^3 + a*P2^3 + b*P3^3 + b*P4^3 = 0 identically: all 7
    coefficients of that binary sextic vanish."""
    cubes = [_cube(p.qa, p.qb, p.qc) for p in pq.polys]
    return not any(pq.a * (c1 + c2) + pq.b * (c3 + c4) for c1, c2, c3, c4 in zip(*cubes))


def morph(s: WeightedQuadruple) -> ParamQuadruple:
    """Combine a nontrivial numeric solution with the symbolic solution
    (m, -m, n, -n); the result is a parametric quadruple of four nonzero
    quadratic forms with common content 1, checked by verify_param before
    returning (AssertionError if it fails).

    The forms are worked out as coefficient triples (m^2, mn, n^2):
    with c = c0 m^2 + c2 n^2 and d = d0 m + d1 n, c*x + d*m is
    (c0 x + d0, d1, c2 x), and so on.

    No component vanishes.  Here c0 = a(x+y), c2 = b(z+w),
    d0 = -a(x-y)(x+y) and d1 = -b(z-w)(z+w), so
        P1 = (a(x+y)y, d1, b(z+w)x),   P2 = (a(x+y)x, -d1, b(z+w)y),
        P3 = (a(x+y)z, d0, b(z+w)w),   P4 = (a(x+y)w, -d0, b(z+w)z).
    If P1 = 0 then d1 = 0, so z = w or z = -w (b != 0).  With z = -w the
    equation leaves a(x^3 + y^3) = 0, so y = -x and the seed is trivial.
    With z = w != 0, c2 = 2bz != 0 and c2 x = 0 force x = 0, then
    a(x+y)y = a y^2 = 0 forces y = 0, and the equation leaves 2b z^3 = 0,
    which is false.  P2 is the same argument with x and y exchanged, P3
    with the pairs (x, y) and (z, w) exchanged, P4 with both.  Nor is the
    result the trivial pattern (u, -u, v, -v):
    P1 + P2 = (a(x+y)^2, 0, b(z+w)(x+y)) = 0 forces y = -x and then w = -z,
    again a trivial seed."""
    if s.trivial:
        raise ValueError("cannot morph a trivial quadruple")
    a, b = s.a, s.b
    x, y, z, w = s.coords
    c0, c2 = a * (x + y), b * (z + w)
    d0, d1 = -a * (x * x - y * y), -b * (z * z - w * w)
    triples = [
        (c0 * x + d0, d1, c2 * x),
        (c0 * y - d0, -d1, c2 * y),
        (c0 * z, d0, c2 * z + d1),
        (c0 * w, -d0, c2 * w - d1),
    ]
    common = gcd(*(c for t in triples for c in t))
    pq = ParamQuadruple(a, b, *(QuadForm(*(c // common for c in t)) for t in triples))
    if not verify_param(pq):
        raise AssertionError("morph output fails the cubic identity")
    return pq
