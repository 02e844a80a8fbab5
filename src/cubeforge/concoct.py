"""Start-with-the-answer factories: turn parametric solutions into implicit
Diophantine equations by iterated resultants, build cubics with no nontrivial
solutions by nonsingular substitution into a known insoluble equation, and
discover integer forms of a chosen degree that are constant (or alternating)
along tuples of C-finite sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd
from typing import Sequence

from .cfinite import (
    Certificate,
    RationalGF,
    certificate_bound,
    certify_zero,
    rhs_poly,
    taylor_coefficients,
)
from .errors import (
    EliminationCollapse,
    NoForm,
    NoTargetedForm,
    SingularSubstitution,
)
from .kernel import (
    MultiPoly,
    rational_nullspace,
    resultant,
)

TARGETS = ("constant", "alternating", "none")


def _eliminate(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Resultant of f and g in var; if one input is already free of var it is
    itself a valid eliminant and is returned unchanged."""
    if f.degree_in(var) == 0:
        return f
    if g.degree_in(var) == 0:
        return g
    return resultant(f, g, var)


def implicitize(p: MultiPoly, q: MultiPoly, r: MultiPoly) -> MultiPoly:
    """Implicit equation S(x, y, z) with S(P, Q, R) identically zero, for the
    parametrization x = P(m, n), y = Q(m, n), z = R(m, n).

    S is the primitive part of res_n(res_m(x - P, y - Q), res_m(x - P, z - R)),
    where the first of x - P, y - Q, z - R that involves m takes the place of
    x - P: an m-free shared equation is both m-resultants, and res_n vanishes.
    It may carry extraneous factors; minimality is not promised, only that the
    substitution vanishes.  That is proved before returning, by
    ``MultiPoly.vanishes_on``: an exact test, which evaluates one of m, n at
    a power of two wide enough that no coefficient of S(P, Q, R) can hide
    (or expands S(P, Q, R) where its packed digits would be mostly zero);
    AssertionError when it fails.  S is read off the n-resultant in one
    pass, its content divided out and its m and n columns dropped; a term
    left with m or n is an internal fault too, AssertionError.
    """
    for poly in (p, q, r):
        if poly.is_constant():
            raise ValueError("parametrization components must be nonconstant")
        extra = set(poly.used_variables()) - {"m", "n"}
        if extra:
            raise ValueError(f"parametrization must use only m and n, found {extra}")
    vs = ("m", "n", "x", "y", "z")
    zero = MultiPoly(vs, {})
    eqs = [MultiPoly.variable(v, vs) - (poly + zero) for poly, v in zip((p, q, r), "xyz")]
    shared = eqs.pop(next((i for i, e in enumerate(eqs) if e.degree_in("m")), 0))
    r1 = _eliminate(shared, eqs[0], "m")
    r2 = _eliminate(shared, eqs[1], "m")
    if r1.is_zero or r2.is_zero:
        raise EliminationCollapse("shared component while eliminating m")
    s0 = _eliminate(r1, r2, "n")
    if s0.is_zero:
        raise EliminationCollapse("shared component while eliminating n")
    if s0.is_constant():
        raise EliminationCollapse("elimination left no relation in x, y, z")
    # S's content divided out and its m and n columns dropped, in one pass;
    # the equations, so their resultants, list the variables vs first
    g = gcd(*s0.terms.values())
    terms = {}
    for ev, c in s0.terms.items():
        if ev[0] or ev[1]:
            raise AssertionError("implicit equation still involves m or n")
        terms[ev[2:5]] = c // g
    s = MultiPoly._make(("x", "y", "z"), terms)
    if not s.vanishes_on({"x": p, "y": q, "z": r}):
        raise AssertionError("implicit equation does not vanish on the parametrization")
    return s


def twist_no_solution(f: MultiPoly, matrix: Sequence[Sequence[int]]) -> MultiPoly:
    """Expand f after the linear substitution (x, y, z) <- M (x, y, z)^T.

    For nonsingular M, any nontrivial solution of the output would map to a
    nontrivial rational solution of f, so insolubility is inherited."""
    rows = [list(row) for row in matrix]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("substitution matrix must be 3x3")
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    if det == 0:
        raise SingularSubstitution("substitution matrix is singular")
    vs = ("x", "y", "z")
    images = {}
    for name, row in zip(vs, rows):
        images[name] = MultiPoly(
            vs,
            {
                (1, 0, 0): row[0],
                (0, 1, 0): row[1],
                (0, 0, 1): row[2],
            },
        )
    return f.substitute(images)


@dataclass(frozen=True)
class FormResult:
    """A homogeneous degree-D integer form P, in the variables X1, ..., Xd
    bound to the sequences ``seqs``, with P(a_1(n), ..., a_d(n)) equal to C
    (target "constant"), C*(-1)^n ("alternating"), or identically zero
    (target "none", C = 0).  Its certificate is not an argument: it is
    certify_zero on P(X) - C*(+-1)^n, computed when the result is built.
    Another target, or target "none" with C != 0, raises ValueError before
    the certificate is computed."""

    seqs: tuple[RationalGF, ...]
    degree: int
    coefficients: dict
    constant: int
    target: str
    certificate: Certificate = field(init=False)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        if self.target == "none" and self.constant:
            raise ValueError("target 'none' needs the constant 0")
        form = self._form
        expr = form - rhs_poly(self.constant, self.target)
        cert = certify_zero(expr, dict(zip(form.variables, self.seqs)))
        object.__setattr__(self, "certificate", cert)

    @property
    def _form(self) -> MultiPoly:
        # P, in the variables X1, ..., Xd
        return MultiPoly((f"X{i+1}" for i in range(len(self.seqs))), self.coefficients)

    @property
    def homogeneous_vanishing(self) -> bool:
        return self.constant == 0

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [[list(ev), c] for ev, c in self._form.sorted_terms()],
            "C": self.constant,
            "target": self.target,
        }


def _degree_vectors(nvars: int, degree: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _degree_vectors(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def find_form(
    seqs: Sequence[RationalGF], degree: int, target: str = "constant"
) -> FormResult:
    """Search for a degree-``degree`` form constant (or alternating, or
    vanishing) on the sequence tuple, by exact nullspace computation on an
    evaluation matrix.  Each candidate is built as a FormResult, which
    certifies itself, and the first certified one is returned.  A degree
    that is not an int, or is a bool, raises ValueError before any work, as
    quadform.check_work_option does for the work options.

    The matrix has one column per degree-D monomial plus one target column
    (omitted for target "none") and min(C(d+D-1, D) + 4, B) rows, B the
    certificate_bound of the sum of every degree-D monomial and the target
    term.  If the certifier rejects a candidate, the matrix is rebuilt once
    with B rows, which makes a second rejection impossible.  Starting at B
    when B is the smaller count changes no result: with at least B rows
    every nullspace vector is a true relation (the second invariant below),
    and every true relation is one, so the nullspace is exactly the set of
    true relations.  A matrix with more rows has the same nullspace, so the
    same rref basis, the same chosen vector and the same FormResult.

    Two outcomes are invariants, and AssertionError if broken:
    - The chosen vector has monomial support.  It is a nonzero nullspace
      vector.  For target "none" every entry is a monomial's.  Otherwise,
      were every monomial entry zero, the matrix would map the vector to
      its target entry times the target column, whose entries are +-1, so
      that entry would be zero too.
    - The matrix of B rows certifies.  certify_zero checks at most B
      indices for the candidate: its support and the sequences it uses are
      among that sum's, and the bound grows with both.  The candidate
      vanishes on every row of the matrix, where it is evaluated at the
      same terms, so it vanishes at every checked index.
    """
    d = len(seqs)
    if d < 2:
        raise ValueError("need at least two sequences")
    if type(degree) is not int:
        raise ValueError(f"degree must be an int, not {type(degree).__name__}")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    monomials = _degree_vectors(d, degree)
    base_rows = comb(d + degree - 1, degree) + 4
    names = tuple(f"X{i+1}" for i in range(d))
    bindings = dict(zip(names, seqs))
    generic = MultiPoly(names, dict.fromkeys(monomials, 1))
    if target != "none":
        generic -= rhs_poly(1, target)
    cert_rows = certificate_bound(generic, bindings)
    for rows in sorted({base_rows, cert_rows}):
        terms = [taylor_coefficients(g, rows) for g in seqs]
        matrix = []
        for n in range(rows):
            row = []
            for ev in monomials:
                val = 1
                for i, e in enumerate(ev):
                    if e:
                        val *= terms[i][n] ** e
                row.append(val)
            if target == "constant":
                row.append(1)
            elif target == "alternating":
                row.append(-1 if n % 2 else 1)
            matrix.append(row)
        basis = rational_nullspace(matrix)
        if not basis:
            raise NoForm(
                f"no degree-{degree} relation among the {d} sequences"
            )
        if target == "none":
            vec = min(basis, key=tuple)
            coeffs = {ev: c for ev, c in zip(monomials, vec) if c}
            constant = 0
        else:
            targeted = [v for v in basis if v[-1] != 0]
            if not targeted:
                vanishing = [
                    {ev: c for ev, c in zip(monomials, v[:-1]) if c} for v in basis
                ]
                raise NoTargetedForm(
                    "every relation is homogeneous vanishing; no form hits the "
                    f"{target} target",
                    vanishing=vanishing,
                )
            chosen = min(targeted, key=tuple)
            coeffs = {ev: c for ev, c in zip(monomials, chosen[:-1]) if c}
            constant = -chosen[-1]
        if not coeffs:
            raise AssertionError("nullspace vector has no monomial support")
        result = FormResult(tuple(seqs), degree, coeffs, constant, target)
        if result.certificate.certified:
            return result
    raise AssertionError("a candidate relation failed certification at its depth")
