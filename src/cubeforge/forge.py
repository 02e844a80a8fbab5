"""End-to-end theorem factory: from a weight pair (a, b) to certified
statements a*A_n^3 + a*B_n^3 + b*C_n^3 = c (or c*(-1)^n) where the three
sequences come from rational generating functions.

Pipeline: brute-force numeric seeds, morph each against (m, -m, n, -n) into a
parametric quadruple, solve one of the four quadratics as a Pell-like orbit
(its recurrence read off a unit, see quadform), evaluate the remaining three
along the orbit, build their generating functions exactly over the symmetric
square of the orbit's recurrence (PellOrbit.den), and certify the emitted
cubic identity with certify_theorem.  A CubicTheorem certifies itself that
way when it is built, forged, parsed or by hand, so verify re-checks a
forged theorem's JSON at the depth forge recorded.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .cfinite import (
    RHS_KINDS,
    SIGN_SYMBOL,
    Certificate,
    RationalGF,
    _symmetric_square,
    certify_zero,
    gf_from_den,
    read_gfs,
    taylor_coefficients,
)
from .cubic import WeightedQuadruple, morph, search_quadruples
from .errors import (
    DefiniteForm,
    EmptySeedSet,
    MalformedTheorem,
    NoOrbitFound,
    PoleAtOrigin,
)
from .kernel import MultiPoly, _signed_sum
from .quadform import QuadForm, check_work_option, sol_quad

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CubicTheorem:
    """A statement a*A^3 + a*B^3 + b*C^3 = c (or c*(-1)^n) about the Taylor
    coefficient sequences of three generating functions.  Its certificate
    is not an argument: it is certify_theorem on the statement, computed
    when the theorem is built (dataclasses.replace included).
    An rhs_kind other than "constant" and "alternating" raises
    MalformedTheorem before the certificate is computed."""

    a: int
    b: int
    c: int
    rhs_kind: str
    gf_a: RationalGF
    gf_b: RationalGF
    gf_c: RationalGF
    provenance: dict
    certificate: Certificate = field(init=False)

    def __post_init__(self):
        if self.rhs_kind not in RHS_KINDS:
            raise MalformedTheorem(f"bad rhs_kind {self.rhs_kind!r}")
        object.__setattr__(self, "certificate", certify_theorem(self))

    @property
    def gfs(self) -> tuple[RationalGF, RationalGF, RationalGF]:
        return (self.gf_a, self.gf_b, self.gf_c)

    def sequences(self, count: int) -> tuple[list, list, list]:
        return tuple(taylor_coefficients(g, count) for g in self.gfs)


def theorem_to_json(thm: CubicTheorem) -> dict:
    return {
        "a": thm.a,
        "b": thm.b,
        "c": thm.c,
        "rhs_kind": thm.rhs_kind,
        "gfs": [g.to_json() for g in thm.gfs],
        "certified_depth": thm.certificate.bound,
        "provenance": thm.provenance,
    }


def theorem_from_json(data) -> CubicTheorem:
    """Parse the interchange JSON into a CubicTheorem, which certifies
    itself; an input "certified_depth" is ignored.  a, b, c and the
    coefficients must be ints (not bools): a weight 1.9 read as 1 would
    certify another statement.  The generating functions go through
    cfinite.read_gfs, so a theorem over its caps is refused before any
    reduction or expansion."""
    try:
        a, b, c = data["a"], data["b"], data["c"]
        if any(type(x) is not int for x in (a, b, c)):
            raise TypeError("a, b and c must be ints")
        kind = data["rhs_kind"]
        gf_list = data["gfs"]
        provenance = dict(data.get("provenance", {}))
        if len(gf_list) != 3:
            raise MalformedTheorem("expected exactly three generating functions")
        gfs = read_gfs((g["num"], g["den"]) for g in gf_list)
    except PoleAtOrigin as exc:
        raise MalformedTheorem(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTheorem(f"theorem schema violation: {exc}") from exc
    if a == 0 or b == 0:
        raise MalformedTheorem("weights must be nonzero")
    if c == 0:
        raise MalformedTheorem("right-hand constant must be nonzero")
    if any(not g.num for g in gfs):
        raise MalformedTheorem("a sequence is identically zero")
    return CubicTheorem(a, b, c, kind, *gfs, provenance)


def certify_theorem(thm: CubicTheorem) -> Certificate:
    """Certify a theorem from its generating functions alone: certify_zero
    on a*A^3 + a*B^3 + b*C^3 - c*(+-1)^n, whose support is one degree-3 pair
    and one degree-0 pair, so with r the degree of the lcm of the three
    denominators and s the largest preperiod it checks
    n < s + C(r+2, 3) + 1.  Only a, b, c, rhs_kind and gfs of ``thm`` are
    read.  Every CubicTheorem holds this certificate of itself; calling it
    again runs the same check afresh."""
    sign = 1 if thm.rhs_kind == "alternating" else 0
    terms = {
        (3, 0, 0, 0): thm.a,
        (0, 3, 0, 0): thm.a,
        (0, 0, 3, 0): thm.b,
        (0, 0, 0, sign): -thm.c,
    }
    expr = MultiPoly._make(("A", "B", "C", SIGN_SYMBOL), {ev: w for ev, w in terms.items() if w})
    return certify_zero(expr, dict(zip("ABC", thm.gfs)))


def _form_json(f: QuadForm) -> list:
    """[[exponents of m and n], coefficient] per nonzero term, m^2 first."""
    return [[ev, c] for ev, c in zip(([2, 0], [1, 1], [0, 2]), (f.qa, f.qb, f.qc)) if c]


def _sort_key(thm: CubicTheorem) -> tuple:
    gf_coeffs = tuple(
        coeff for g in thm.gfs for part in (g.num, g.den) for coeff in part
    )
    return (abs(thm.c), thm.c, gf_coeffs)


def forge(
    a: int,
    b: int,
    *,
    search_bound: int = 12,
    target_cap: int = 30,
    max_theorems: int = 10,
    extra_seeds: list[WeightedQuadruple] | None = None,
) -> list[CubicTheorem]:
    """Discover certified theorems a*A^3 + a*B^3 + b*C^3 = c for the given
    weights.  Returns the canonically sorted, deduplicated list (empty when
    every pipeline branch fails); raises EmptySeedSet when not even a numeric
    seed exists within the search bound.  ValueError unless each option is
    an int of at least 1 (check_work_option) and the weights are nonzero
    ints, which search_quadruples checks before any work; a bool is
    neither."""
    check_work_option("search_bound", search_bound)
    check_work_option("target_cap", target_cap)
    check_work_option("max_theorems", max_theorems)
    seeds = search_quadruples(a, b, search_bound)
    if extra_seeds:
        for seed in extra_seeds:
            if (seed.a, seed.b) != (a, b):
                raise ValueError(f"seed {seed} has weights {(seed.a, seed.b)}")
            if not seed.trivial and seed not in seeds:
                seeds.append(seed)
    if not seeds:
        raise EmptySeedSet(
            f"no nontrivial quadruple with coordinates within {search_bound} "
            f"for weights ({a}, {b})"
        )
    theorems: list[CubicTheorem] = []
    tables: dict = {}  # sol_quad's class data per discriminant, for this call only
    for seed in seeds:
        quadruple = morph(seed)
        for j, form in enumerate(quadruple.polys):
            try:
                orbit = sol_quad(form, target_cap=target_cap, _tables=tables)
            except (DefiniteForm, NoOrbitFound) as exc:
                log.debug("seed %s, index %d: %s", seed, j + 1, exc)
                continue
            theorems.append(_build_theorem(seed, quadruple, j, orbit))
    unique: dict[tuple, CubicTheorem] = {}
    for thm in theorems:
        unique.setdefault((thm.a, thm.b, thm.c, thm.rhs_kind, thm.gfs), thm)
    result = sorted(unique.values(), key=_sort_key)
    if not result:
        log.info(
            "no theorem for weights (%d, %d): %d seeds, all branches failed", a, b, len(seeds)
        )
    return result[:max_theorems]


def _value_gfs(forms, den, gf_m, gf_n) -> list[RationalGF] | None:
    """The generating functions of the values of the quadratic forms
    ``forms`` along the orbit with generating functions gf_m and gf_n whose
    two sequences obey the recurrence of ``den`` (PellOrbit.den) from index
    0 on, or None when one of the value sequences vanishes identically.

    They are built, not guessed.  With den = prod_i (1 - a_i t) of order r
    and den[0] = 1, m_k = sum_i p_i(k) a_i^k for every k >= 0 with
    deg p_i < mu_i, the multiplicity of a_i; the same holds for n_k.  So
    each value sequence v is a sum of products m_k^2, m_k n_k, n_k^2, whose
    terms are polynomials of degree <= mu_i + mu_j - 2 times (a_i a_j)^k.
    den2 = _symmetric_square(den), of degree rho = C(r+1, 2), holds the
    factor (1 - a_i a_j t) at least C(mu+1, 2) >= 2mu - 1 times for
    a_i = a_j of multiplicity mu, and at least mu*nu >= mu + nu - 1 times
    for distinct roots of multiplicities mu and nu, so it annihilates v
    from k = 0 on: v has the proper generating function
    gf_from_den(v, den2) = num/den2, and v vanishes identically exactly
    when num is zero.  Either sequence's lowest-terms denominator may be a
    proper factor of den; only den is used.

    This is the rational function that reconstruction by guessing finds
    (seq_from_terms with orders up to rho + 1 on 2(rho + 1) + 6 terms):
    v obeys its lowest-terms denominator, of degree d <= rho, so the guess
    stops at an order r' <= d and rebuilds a proper sequence u that agrees
    with v on 2 rho + 8 terms.  u - v is proper with a denominator of degree
    <= r' + d <= 2 rho, so it is zero, and RationalGF's normal form of one
    rational function is unique."""
    den2 = _symmetric_square(den)
    rho = len(den2) - 1
    ms = taylor_coefficients(gf_m, rho)
    ns = taylor_coefficients(gf_n, rho)
    gfs = []
    for f in forms:
        g = gf_from_den([f.value(mv, nv) for mv, nv in zip(ms, ns)], den2)
        if not g.num:
            return None
        gfs.append(g)
    return gfs


def _build_theorem(seed, quadruple, j, orbit) -> CubicTheorem:
    """The theorem of slot j of ``quadruple`` solved along ``orbit``.  It is
    never dropped: both failures below are impossible, and raise
    AssertionError.

    No value sequence vanishes.  The orbit's terms v_0, v_p, v_2p are points
    of the list sol_quad's read-off checked (the orbit starts at its first
    2p points and obeys the den fitted to all of them): distinct box
    points with m >= 1 and |Q| = |e| >= 1 for the solved Q.  Two of them
    on one line through the origin, w' = l w, would give l^2 = 1, so l = 1
    as m >= 1: the same point.  A nonzero quadratic form (each morph
    component is one) vanishes on at most two lines through the origin, so
    not at all three.

    No theorem is refuted.  morph's identity a P1^3 + a P2^3 + b P3^3 +
    b P4^3 = 0, the orbit's certificate Q(m_k, n_k) = e s_k with s_k = 1 or
    (-1)^k, and the exact value sequences of _value_gfs make the emitted
    identity (c = -w_j e^3, as s_k^3 = s_k) hold for every n, and
    certify_zero returns a witness only where it fails."""
    a, b = quadruple.a, quadruple.b
    c = -quadruple.weights[j] * orbit.target**3
    # the two surviving polynomials of one weight class become A and B, the
    # odd one out becomes C: solving an a-slot leaves (b, b, a) and vice versa
    if j in (0, 1):
        ordered = [2, 3, 1 - j]
        thm_a, thm_b = b, a
    else:
        ordered = [0, 1, 5 - j]
        thm_a, thm_b = a, b
    if thm_a < 0:
        # negate the whole equation so the paired weight is positive
        thm_a, thm_b, c = -thm_a, -thm_b, -c
    gfs = _value_gfs([quadruple.polys[i] for i in ordered], orbit.den, orbit.gf_m, orbit.gf_n)
    if gfs is None:
        raise AssertionError(f"seed {seed}, index {j + 1}: a value sequence vanishes")
    provenance = {
        "seed": list(seed.coords),
        "weights": [a, b],
        "quadruple": [_form_json(f) for f in quadruple.polys],
        "solved_index": j + 1,
        "solved_weight": quadruple.weights[j],
        "orbit": orbit.to_json(),
    }
    thm = CubicTheorem(thm_a, thm_b, c, orbit.kind, *gfs, provenance)
    if not thm.certificate.certified:
        raise AssertionError(
            f"seed {seed}, index {j + 1}: refuted at n = {thm.certificate.witness}"
        )
    return thm


# --- rendering ---

def _gf_text(g: RationalGF) -> str:
    return f"({_poly_text(g.num)})/({_poly_text(g.den)})"


def _poly_text(coeffs, times: str = "*") -> str:
    """The polynomial in t with ascending ``coeffs``, as "1 - 3*t + t^2";
    ``times`` joins a coefficient to its power of t."""
    return _signed_sum(
        ((c, "" if i == 0 else "t" if i == 1 else f"t^{i}") for i, c in enumerate(coeffs) if c),
        times,
    )


def _gf_latex(g: RationalGF) -> str:
    return rf"\frac{{{_poly_text(g.num, ' ')}}}{{{_poly_text(g.den, ' ')}}}"


def _weight_prefix(w: int) -> str:
    if w == 1:
        return ""
    return f"({w})*" if w < 0 else f"{w}*"


def json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, the text of every JSON
    result the CLI prints.  With ``indent`` set, CPython encodes in pure
    Python; this writer builds the same text directly for dicts with str
    keys, lists, tuples, str and int, and hands any other scalar (bool and
    None among them) to ``json.dumps``, which writes it the same way with
    or without ``indent``.  A key that is not a str raises TypeError."""
    return _json(value, "\n")


def _json(value, newline: str) -> str:
    # newline: the line break and indent before a closing bracket
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        parts = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON object key {key!r} is not a str")
            items.append(encode_basestring_ascii(key) + ": " + _json(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value)


def render(thm: CubicTheorem, fmt: str = "text") -> str:
    """Render a theorem as plain text, LaTeX, or the interchange JSON."""
    if fmt == "json":
        return json_text(theorem_to_json(thm))
    cert = thm.certificate
    if fmt == "text":
        rhs_val = str(thm.c) if thm.rhs_kind == "constant" else f"{thm.c}*(-1)^n"
        wa, wb = _weight_prefix(thm.a), _weight_prefix(thm.b)
        if cert.certified:
            head, link = "Theorem", "then for all n >= 0"
            verdict = f"(certified by checking n = 0 .. {cert.bound - 1})"
        else:
            head, link, verdict = "Refuted", "then the identity", f"fails at n = {cert.witness}"
        lines = [
            f"{head}: define integer sequences A(n), B(n), C(n) by",
            f"  sum_(n>=0) A(n) t^n = {_gf_text(thm.gf_a)}",
            f"  sum_(n>=0) B(n) t^n = {_gf_text(thm.gf_b)}",
            f"  sum_(n>=0) C(n) t^n = {_gf_text(thm.gf_c)}",
            link,
            f"  {wa}A(n)^3 + {wa}B(n)^3 + {wb}C(n)^3 = {rhs_val}",
            verdict,
        ]
        return "\n".join(lines)
    if fmt == "latex":
        rhs_tex = str(thm.c) if thm.rhs_kind == "constant" else f"{thm.c}\\,(-1)^n"
        lhs = _signed_sum(((thm.a, "A_n^3"), (thm.a, "B_n^3"), (thm.b, "C_n^3")), "\\,")
        if cert.certified:
            relation = rf"&= {rhs_tex} \quad (n \ge 0)"
            verdict = rf"Certified by checking $n = 0, \dots, {cert.bound - 1}$."
        else:
            relation = rf"&\ne {rhs_tex} \quad (n = {cert.witness})"
            verdict = rf"Refuted: the identity fails at $n = {cert.witness}$."
        lines = [
            r"\begin{align*}",
            rf"\sum_{{n \ge 0}} A_n t^n &= {_gf_latex(thm.gf_a)} \\",
            rf"\sum_{{n \ge 0}} B_n t^n &= {_gf_latex(thm.gf_b)} \\",
            rf"\sum_{{n \ge 0}} C_n t^n &= {_gf_latex(thm.gf_c)} \\",
            rf"{lhs} {relation}",
            r"\end{align*}",
            verdict,
        ]
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")

