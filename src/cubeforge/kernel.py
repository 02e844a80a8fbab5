"""Exact algebra substrate: sparse multivariate integer polynomials,
Sylvester resultants, exact division, and rational nullspaces.

Everything is pure and immutable.  Coefficients are Python ints (arbitrary
precision).  Linear systems may have ``Fraction`` entries; they are solved
fraction-free on integers, and only the answer is built from Fractions.
One forward elimination loop (``_echelon``) serves both, and neither clears
its echelon to the rref: ``rational_nullspace`` back-substitutes each free
column's kernel vector, and ``rational_solve`` only the rhs column of the
augmented matrix (``_back_substitute``).
Monomials are ordered graded-lexicographically by the declared variable
list, which fixes the leading term used for exact division and the term
order of printing.  One printer, ``_signed_sum``, writes every signed sum
of terms: ``MultiPoly`` text here, and the generating-function text and
LaTeX of ``forge``.

The inner loops of multiplication, exact division, determinants and
substitution run on packed monomials (see ``_Packing``): each exponent
vector becomes one int, so that a monomial product is one int addition and
the graded-lex comparison is an int comparison.  A resultant's Sylvester
rows are term maps over one variable tuple, bucketed straight from its two
polynomials, and its determinant is taken on them: by expansion by minors
with one variable t folded into big-integer coefficients, t put to 2**w,
when that merges entry terms, each entry folded and packed in one pass and
the result read back from the balanced base-2**w digits and unpacked in
one; otherwise by fraction-free elimination on integer pivots followed by
expansion by minors of the trailing block or of the whole matrix (see
``resultant``).  Either expansion keeps each minor as one list of packed
terms.  Substitution is nested Horner
in every variable but the innermost, whose level adds scalar multiples of
cached powers of its image (see ``_horner``); the innermost variable is the
last one unless counts read off the exponents pick another
(``_nesting_order``).  ``MultiPoly.vanishes_on`` decides whether a
substitution is zero with the same Horner loop on the images with one
variable put to 2**w (folded as a determinant's entries are), w wide enough
that no coefficient can cancel another (Kronecker substitution), or by
``substitute`` where the packed digits would be mostly zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm, prod
from operator import add, mul
from typing import Collection, Iterable, Mapping, Sequence, Union

from .errors import DegenerateInput, InexactDivision, ZeroPolynomial

Scalar = Union[int, Fraction]


def _monomial_key(evec: tuple[int, ...]) -> tuple:
    # graded lex: total degree first, then the exponent vector itself
    return (sum(evec), evec)


def _signed_sum(terms: Iterable[tuple[int, str]], times: str = "*") -> str:
    """The sum of (coefficient, monomial text) pairs, as "3*m^2 - n + 1".

    The monomial of a constant is "".  The first term is written unsigned
    (with a leading "-" if negative), each later one as " + body" or
    " - body".  A coefficient of absolute value 1 before a monomial is left
    out; any other is joined to its monomial by ``times``.  No terms give
    "0".  Terms are written as given, zero coefficients included."""
    parts = []
    for c, mono in terms:
        sign = " - " if c < 0 else " + "
        c = abs(c)
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        else:
            body = f"{c}{times}{mono}"
        parts.append(sign + body)
    text = "".join(parts)
    if not text:
        return "0"
    return "-" + text[3:] if text[1] == "-" else text[3:]


class MultiPoly:
    """Multivariate polynomial with integer coefficients.

    ``variables`` is an ordered tuple of symbol names and ``terms`` maps
    exponent tuples (same length as ``variables``) to nonzero integers.
    The zero polynomial has an empty term map.  Instances compare equal
    when they denote the same polynomial, regardless of unused variables.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], int]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable in {vs!r}")
        clean: dict[tuple[int, ...], int] = {}
        for evec, coeff in terms.items():
            if not coeff:
                continue
            ev = tuple(int(e) for e in evec)
            if len(ev) != len(vs):
                raise ValueError(f"exponent vector {ev!r} does not match variables {vs!r}")
            if any(e < 0 for e in ev):
                raise ValueError(f"negative exponent in {ev!r}")
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            clean[ev] = coeff
        self.variables = vs
        self.terms = clean

    @classmethod
    def _make(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], int]) -> "MultiPoly":
        # for terms the kernel built itself: nonzero int coefficients and
        # nonnegative exponent tuples matching ``variables``
        p = cls.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    # --- constructors ---

    @classmethod
    def constant(cls, value: int, variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(variables)
        if value == 0:
            return cls(vs, {})
        return cls(vs, {(0,) * len(vs): int(value)})

    @classmethod
    def variable(cls, name: str, variables: Iterable[str] | None = None) -> "MultiPoly":
        vs = tuple(variables) if variables is not None else (name,)
        evec = tuple(1 if v == name else 0 for v in vs)
        if name not in vs:
            raise ValueError(f"{name!r} is not among {vs!r}")
        return cls(vs, {evec: 1})

    # --- basic structure ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return _degree(self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            return 0
        i = self.variables.index(var)
        if not self.terms:
            return 0
        return max(ev[i] for ev in self.terms)

    def is_constant(self) -> bool:
        return all(sum(ev) == 0 for ev in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        for coeff in self.terms.values():
            return coeff
        return 0

    def used_variables(self) -> tuple[str, ...]:
        used = [False] * len(self.variables)
        for ev in self.terms:
            for i, e in enumerate(ev):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.variables, used) if u)

    def restricted(self, variables: Iterable[str]) -> "MultiPoly":
        """Re-express over ``variables``, distinct variables of this
        polynomial.  Every dropped variable must have exponent zero
        throughout."""
        vs = tuple(variables)
        idx = []
        for v in vs:
            if v not in self.variables:
                raise ValueError(f"{v!r} is not a variable of this polynomial")
            idx.append(self.variables.index(v))
        keep = set(idx)
        terms: dict[tuple[int, ...], int] = {}
        for ev, c in self.terms.items():
            if any(e and i not in keep for i, e in enumerate(ev)):
                raise ValueError("polynomial involves a dropped variable")
            terms[tuple(ev[i] for i in idx)] = c
        if len(keep) != len(vs):
            raise ValueError(f"duplicate variable in {vs!r}")
        return MultiPoly._make(vs, terms)

    # --- equality / hashing across variable contexts ---

    def _canonical_key(self) -> frozenset:
        items = []
        for ev, c in self.terms.items():
            named = frozenset(
                (v, e) for v, e in zip(self.variables, ev) if e
            )
            items.append((named, c))
        return frozenset(items)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        # a polynomial equal to an int hashes like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self._canonical_key())

    # --- arithmetic ---

    def _aligned(self, other: "MultiPoly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = list(self.variables)
        for v in other.variables:
            if v not in merged:
                merged.append(v)
        vs = tuple(merged)
        return vs, _remap(self, vs), _remap(other, vs)

    def __add__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.variables)
        vs, a, b = self._aligned(other)
        out = dict(a)
        for ev, c in b.items():
            s = out.get(ev, 0) + c
            if s:
                out[ev] = s
            else:
                out.pop(ev, None)
        return MultiPoly._make(vs, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.variables, {ev: -c for ev, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.variables)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if other == 0:
                return MultiPoly._make(self.variables, {})
            return MultiPoly._make(
                self.variables, {ev: c * other for ev, c in self.terms.items()}
            )
        vs, a, b = self._aligned(other)
        pk = _Packing(len(vs), _degree(a) + _degree(b))
        product = _pmul(pk.pack(a).items(), pk.pack(b).items(), {})
        return MultiPoly._make(vs, pk.unpack(_nonzero(product)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        pk = _Packing(len(self.variables), n * self.total_degree())
        result = {0: 1}
        base = pk.pack(self.terms)
        while n:
            if n & 1:
                result = _nonzero(_pmul(result.items(), base.items(), {}))
            if n > 1:
                base = _nonzero(_pmul(base.items(), base.items(), {}))
            n >>= 1
        return MultiPoly._make(self.variables, pk.unpack(result))

    # --- evaluation and substitution ---

    def evaluate(self, values: Mapping[str, Scalar]) -> Scalar:
        """Evaluate at numbers; every used variable must be given."""
        idx = []
        for v in self.variables:
            idx.append(values.get(v))
        total: Scalar = 0
        for ev, c in self.terms.items():
            term: Scalar = c
            for i, e in enumerate(ev):
                if e:
                    if idx[i] is None:
                        raise KeyError(f"no value for variable {self.variables[i]!r}")
                    term *= idx[i] ** e
            total += term
        return total

    def substitute(self, values: Mapping[str, "MultiPoly | int"]) -> "MultiPoly":
        """Substitute polynomials (or ints) for variables; unmentioned
        variables stay symbolic.

        The terms are summed by nested Horner (``_horner``) with the
        variables in their own order, except that ``_nesting_order`` may
        move one variable innermost, where its level forms no polynomial
        product, when counts read off the exponents predict less work.
        Every order gives the same polynomial within the same packing
        bound."""
        vs, images, cols = self._images(values)
        pk = _Packing(len(vs), _weighted_degree(cols, list(map(_degree, images))))
        total = _evaluate(self, _nesting_order(cols, images), list(map(pk.pack, images)))
        return MultiPoly._make(vs, pk.unpack(_nonzero(total)))

    def vanishes_on(self, values: Mapping[str, "MultiPoly | int"]) -> bool:
        """Whether ``self.substitute(values)`` is zero, decided exactly
        without expanding that polynomial T monomial by monomial: one result
        variable v is put to 2**w and the rest of T is evaluated on ints of
        any size (Kronecker substitution; von zur Gathen & Gerhard, *Modern
        Computer Algebra*, §8.4).

        Proof.  Let B be the sum over the terms c X**e of
        |c| prod ||X_i||_1**e_i, for X_i the images; it bounds the sum of
        the absolute coefficients of T, so every coefficient of T.  Put
        w = B.bit_length(), so B < 2**w.  v -> 2**w is a ring homomorphism,
        so substituting the images with v replaced by 2**w, by the same
        nested Horner as ``substitute``, gives the image of T exactly.  A
        coefficient of that image is sum_j c_j 2**(w j) with c_j the
        coefficients of T at v**j, each |c_j| <= B < 2**w.  If c_J is the
        highest nonzero one, the lower ones add to at most
        (2**w - 1)(2**(w J) - 1)/(2**w - 1) < 2**(w J) <= |c_J 2**(w J)| in
        absolute value, so the sum is zero only when every c_j is.  So the
        image is zero exactly when T is; no randomness enters.  The width is
        the least this argument allows: v - 2**(w - 1) has B = 2**(w - 1) + 1
        and vanishes at v = 2**(w - 1).

        Selection.  Where most digits of the packed values would be zero,
        the ints carry mostly zeros through every product, and this falls
        back to ``substitute``.  The density is read off the exponents: for
        each image X_i and the top exponent E of its variable, the monomials
        of X_i**E, at most C(E + t - 1, E) for t terms (as ``_inner_counts``
        bounds them), against the box of exponents X_i**E spans, the digits
        its packed form holds, each summed over the images.  A binomial
        image fills few: the monomials of its powers lie on a line.
        Measured on the implicit equations of the eliminate benchmark's four
        criterion-8 inputs and of one sign variant of each of its 12 random
        ones, three CI inputs and 111 random parametrisations of degree
        <= 3 (best of 5 in-process, one Xeon core): from a density of 1/32
        up, this evaluation took 0.15 to 0.89 of the time of ``substitute``
        on the 57 checks of a millisecond or more, and 0.56 to 1.41 on the
        67 smaller ones; the four criterion-8 equations, at densities 0.006
        to 0.029, took 1.24 to 1.98, and the two random ones at 0.030 took
        0.54 and 0.75.  So the rule falls back below 1/32
        (``_KRONECKER_MIN_DENSITY``)."""
        vs, images, cols = self._images(values)
        filled = slots = 0
        for col, img in zip(cols, images):
            e = max(col)
            box = prod(e * d + 1 for d in map(max, zip(*img)))
            filled += min(comb(e + len(img) - 1, e), box) if img else 0
            slots += box
        if not vs or filled < _KRONECKER_MIN_DENSITY * slots:
            return self.substitute(values).is_zero
        norms = [sum(map(abs, img.values())) for img in images]
        w = sum(abs(c) * prod(map(pow, norms, ev)) for ev, c in self.terms.items()).bit_length()
        # T's degree bound in each result variable
        spans = [_weighted_degree(cols, [max((ev[t] for ev in img), default=0) for img in images])
                 for t in range(len(vs))]
        t = spans.index(max(spans))
        # a folded image's degree is at most its terms' degree without t
        weights = [max((sum(ev) - ev[t] for ev in img), default=0) for img in images]
        pk = _Packing(len(vs) - 1, _weighted_degree(cols, weights))
        packed = [_fold(img, t, w, pk) for img in images]
        return not any(_evaluate(self, _nesting_order(cols, list(map(pk.unpack, packed))), packed).values())

    def _images(self, values: Mapping[str, "MultiPoly | int"]):
        """(vs, images, cols) of a substitution: the result variables, each
        variable's image as a term map over them (its substitute, or the
        variable itself), and the exponents of the terms, one column per
        variable."""
        subs: dict[str, MultiPoly] = {}
        result_vars: list[str] = [v for v in self.variables if v not in values]
        for name, val in values.items():
            p = MultiPoly.constant(val) if isinstance(val, int) else val
            subs[name] = p
            for v in p.variables:
                if v not in result_vars:
                    result_vars.append(v)
        vs = tuple(result_vars)
        images = [
            _remap(subs[v], vs) if v in subs else {tuple(int(u == v) for u in vs): 1}
            for v in self.variables
        ]
        return vs, images, list(zip(*self.terms))

    # --- views ---

    def coefficients_in(self, var: str) -> list["MultiPoly"]:
        """Coefficient polynomials of var^0, var^1, ... (same variable set,
        with the exponent of ``var`` zeroed)."""
        if var not in self.variables:
            return [self]
        i = self.variables.index(var)
        buckets = _coefficients(self.terms, i, self.degree_in(var))
        return [MultiPoly._make(self.variables, b) for b in buckets]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda kv: _monomial_key(kv[0]), reverse=True)

    # --- printing ---

    def __str__(self) -> str:
        vs = self.variables
        return _signed_sum(
            (c, "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(vs, ev) if e]))
            for ev, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _remap(p: MultiPoly, vs: tuple[str, ...]) -> Mapping[tuple[int, ...], int]:
    if p.variables == vs:
        return p.terms
    pos = [vs.index(v) for v in p.variables]
    out = {}
    for ev, c in p.terms.items():
        new = [0] * len(vs)
        for i, e in enumerate(ev):
            new[pos[i]] = e
        out[tuple(new)] = c
    return out


def _coefficients(
    terms: Mapping[tuple[int, ...], int], i: int, d: int
) -> list[dict[tuple[int, ...], int]]:
    # the coefficients of x_i**0, ..., x_i**d in a term map of degree d in
    # x_i, each a term map over the same tuple with x_i's exponent put to 0
    buckets: list[dict[tuple[int, ...], int]] = [{} for _ in range(d + 1)]
    for ev, c in terms.items():
        buckets[ev[i]][ev[:i] + (0,) + ev[i + 1:]] = c
    return buckets


def _degree(terms: Mapping[tuple[int, ...], int]) -> int:
    return max((sum(ev) for ev in terms), default=0)


def _weighted_degree(cols: list[tuple[int, ...]], weights: list[int]) -> int:
    # the largest weight and the largest weighted degree of a term whose
    # exponents are the columns ``cols``: with each image's total degree at
    # most its weight, the packing bound of a substitution
    degrees: Iterable[int] = ()
    if cols:
        degrees = map(mul, cols[0], repeat(weights[0]))
        for col, w in zip(cols[1:], weights[1:]):
            degrees = map(add, degrees, map(mul, col, repeat(w)))
    return max([0, *weights, *degrees])


def _fold(terms: Mapping[tuple[int, ...], int], t: int, w: int, pk: "_Packing") -> dict[int, int]:
    # the terms with variable t put to 2**w, packed by ``pk`` over the other
    # variables, in one pass: each coefficient the sum of c * 2**(w e_t) over
    # the terms it gathers.  A monomial's packed int is the sum over the
    # other variables of e_i times the unit of its field plus the unit of
    # the total-degree field, so t's weight is 0.
    top = 1 << pk.stride * len(pk.shifts)
    weights = [(1 << s) + top for s in pk.shifts]
    weights.insert(t, 0)
    out: dict[int, int] = {}
    get = out.get
    for ev, c in terms.items():
        key = sum(map(mul, ev, weights))
        out[key] = get(key, 0) + (c << w * ev[t])
    return _nonzero(out)


def _unfold(packed: Mapping[int, int], t: int, w: int, pk: "_Packing") -> dict[tuple[int, ...], int]:
    # the inverse of ``_fold``, in one pass, for terms whose digits in base
    # 2**w all lie in (-2**(w - 1), 2**(w - 1)): each coefficient's balanced
    # digits, lowest first, become the coefficients of t**0, t**1, ... of
    # its unpacked monomial
    half, mask = 1 << w - 1, (1 << w) - 1
    before, after, field = pk.shifts[:t], pk.shifts[t:], pk.mask
    out = {}
    for key, v in packed.items():
        head = tuple([(key >> s) & field for s in before])
        tail = tuple([(key >> s) & field for s in after])
        e = 0
        while v:
            c = ((v + half) & mask) - half
            if c:
                out[head + (e,) + tail] = c
            v = (v - c) >> w
            e += 1
    return out


def _evaluate(p: MultiPoly, order: tuple[int, ...], images: list[dict[int, int]]) -> dict[int, int]:
    # the packed sum of p's terms with the packed images in, by ``_horner``
    # in the nesting order ``order``
    powers = [[{0: 1}, images[j]] for j in order]
    return _horner(list(p.terms.items()), 0, order, powers)


# --- packed monomials ---

class _Packing:
    """One int per monomial, for an operation whose total degrees are all at
    most ``degree`` (Monagan & Pearce, "Polynomial division using dynamic
    arrays, heaps, and packed exponent vectors", CASC 2007).

    A monomial over k variables becomes k + 1 fields of ``bits`` value bits
    and one guard bit above them: the total degree in the top field, then the
    exponents in variable order.  ``bits`` is the bit length of ``degree``,
    so every field of every monomial the operation meets is below 2**bits
    (an exponent is at most the total degree).  While that holds:

    - the product of two monomials is the sum of their ints, because a sum
      of two fields that stays below 2**bits never reaches the guard bit,
      let alone the next field;
    - int order is graded-lex order (``_monomial_key``), because the fields
      are compared from the top and the total degree is the top field;
    - u divides w exactly when d = w - u has no guard bit set and d >= 0:
      the lowest field where w is smaller borrows, which sets that field's
      guard bit, or makes d negative when it is the top field, and fields
      below it are untouched; without a borrow every field of d is
      w_i - u_i < 2**bits.
    """

    __slots__ = ("stride", "shifts", "mask", "guard")

    def __init__(self, nvars: int, degree: int):
        bits = max(degree, 1).bit_length()
        self.stride = bits + 1
        self.mask = (1 << bits) - 1
        self.shifts = tuple(self.stride * (nvars - 1 - i) for i in range(nvars))
        self.guard = sum(1 << (self.stride * i + bits) for i in range(nvars + 1))

    def pack(self, terms: Mapping[tuple[int, ...], int]) -> dict[int, int]:
        stride = self.stride
        out = {}
        for ev, c in terms.items():
            key = sum(ev)
            for e in ev:
                key = (key << stride) | e
            out[key] = c
        return out

    def unpack(self, packed: Mapping[int, int]) -> dict[tuple[int, ...], int]:
        shifts, mask = self.shifts, self.mask
        return {tuple((key >> s) & mask for s in shifts): c for key, c in packed.items()}


def _pmul(
    a: Collection[tuple[int, int]], b: Collection[tuple[int, int]], acc: dict[int, int]
) -> dict[int, int]:
    """Add a*b into acc and return it, a and b given as their (packed
    monomial, coefficient) items: a packed map's ``items()``, or a list of
    them kept for many products.  Coefficients that cancel stay in acc as
    zeros; ``_nonzero`` drops them."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ma, ca in a:
        for mb, cb in b:
            m = ma + mb
            acc[m] = get(m, 0) + ca * cb
    return acc


def _nonzero(terms: Mapping[int, int]) -> dict[int, int]:
    return {m: c for m, c in terms.items() if c}


def _pdiv(num: Mapping[int, int], den: Mapping[int, int], guard: int) -> dict[int, int] | None:
    """Exact quotient num/den of packed polynomials (den nonzero, with no
    zero coefficient), or None.  Leading-term reduction in graded-lex
    order: the largest remainder monomial leads each step, and one whose
    coefficient cancelled to zero is dropped when it comes up.  Finding it
    scans the remainder, where a heap (Monagan & Pearce) would take a
    logarithm; no CLI verb divides polynomials, so the loop stays plain."""
    lm = max(den)
    lc = den[lm]
    rest = [(m, c) for m, c in den.items() if m != lm]
    quot: dict[int, int] = {}
    rem = dict(num)
    while rem:
        m = max(rem)
        c = rem.pop(m)
        if not c:
            continue
        q = m - lm
        qc, leftover = divmod(c, lc)
        if q < 0 or q & guard or leftover:
            return None
        quot[q] = qc
        for t, tc in rest:
            rem[q + t] = rem.get(q + t, 0) - qc * tc
    return quot


# A polynomial of fewer terms keeps its own nesting order: choosing one
# costs about 0.02 ms however few the terms (one Xeon core), a fifth to a
# seventh of the whole substitution of the 15- and 25-term criterion-8
# checks (0.10 and 0.15 ms) and a third of a twist's (0.055 ms), so it
# cannot pay there.
_NESTING_MIN_TERMS = 64

# The least share of filled digits at which ``MultiPoly.vanishes_on``
# evaluates on packed ints: the measured crossing argued in its docstring.
_KRONECKER_MIN_DENSITY = 1 / 32


def _nesting_order(
    cols: list[tuple[int, ...]], images: list[Mapping[tuple[int, ...], int]]
) -> tuple[int, ...]:
    """The nesting order of ``_horner`` for substituting ``images`` into the
    terms whose exponents of the variables are the columns ``cols``: the
    variables in their own order, or with one of them moved innermost.

    With v innermost, the terms that share every exponent but v's form an
    inner group, and G_v counts them.  The level just outside v, whose
    image W has |W| terms, takes one Horner step per group: it adds the
    group's inner result H, a sum of powers of v's image V, to its running
    sum and multiplies that sum by a power of W.  So that level takes G_v
    steps, and sum |H| |W| counts the monomial pairs the inner results
    alone bring to their next step; the running sums only add to both.
    The estimate reads both counts from the exponents alone, bounding each
    |H| by the sizes of V's powers (``_inner_counts``).  Another variable goes
    innermost only when it dominates the last one on both counts: no more
    steps and a smaller sum |H| |W|; of several, the one with the smallest
    sum.  No constant weighs one count against the other, and where the
    counts disagree the order stays as it is.  Every nesting order gives
    the same polynomial (see ``_horner``), so the choice changes only the
    work."""
    k = len(images)
    order = tuple(range(k))
    if k < 2 or not cols or len(cols[0]) < _NESTING_MIN_TERMS:
        return order
    base = 1 + max(map(max, cols))
    last = best = k - 1
    steps, work = _inner_counts(cols, last, images[last], len(images[last - 1]), base)
    for v in range(last):
        s, w = _inner_counts(cols, v, images[v], len(images[last]), base)
        if s <= steps and w < work:
            best, work = v, w
    if best == last:
        return order
    return order[:best] + order[best + 1:] + (best,)


def _inner_counts(
    cols: list[tuple[int, ...]],
    v: int,
    image: Mapping[tuple[int, ...], int],
    middle: int,
    base: int,
) -> tuple[int, int]:
    """(G_v, sum |H| |W|) of ``_nesting_order`` with v innermost, where
    ``image`` is V and ``middle`` is |W|.  Each |H| is bounded by the sizes
    of V's powers, for an image of t terms:

    - |V^c| <= C(c + t - 1, c), the number of ways to pick c of its
      monomials with repetition, so |H| <= sum |V^c| over the group's
      exponents c;
    - when V has a constant term, the monomials of V^c are among those of
      V^d for c <= d, so |H| <= |V^c| for the group's largest c;
    - when V involves one variable, with exponents lo..hi, those of V^c
      lie in c lo..c hi, so |H| <= c_max hi - c_min lo + 1."""
    col = cols[v]
    t = len(image)
    top = max(col)
    sizes = [1, *map(comb, range(t, t + top), range(1, top + 1))]
    # each term's exponents of the other variables as digits in ``base``:
    # one int per inner group
    others = cols[:v] + cols[v + 1:]
    keys: Iterable[int] = others[0]
    for other in others[1:]:
        keys = map(add, map(mul, keys, repeat(base)), other)
    spans = [(min(e), max(e)) for e in zip(*image)]
    used = [span for span in spans if span[1]]
    if (0,) * len(spans) in image:
        tops: dict[int, int] = {}
        get = tops.get
        for g, c in zip(keys, col):
            if get(g, -1) < c:
                tops[g] = c
        return len(tops), sum(map(sizes.__getitem__, tops.values())) * middle
    if len(used) == 1:
        ((lo, hi),) = used
        # a group's exponents c as the set bits of one int
        found: dict[int, int] = {}
        get = found.get
        for g, c in zip(keys, col):
            found[g] = get(g, 0) | 1 << c
        inner = 0
        for bits in found.values():
            high, low = bits.bit_length() - 1, (bits & -bits).bit_length() - 1
            inner += min(bits.bit_count() * sizes[high], high * hi - low * lo + 1)
        return len(found), inner * middle
    return len(set(keys)), sum(map(sizes.__getitem__, col)) * middle


def _horner(
    terms: list[tuple[tuple[int, ...], int]],
    i: int,
    order: Sequence[int],
    powers: list[list[dict[int, int]]],
) -> dict[int, int]:
    """Sum over the terms (ev, c) of c times the product of the packed
    images X_l**ev[order[l]] for levels l >= i: level l handles the
    variable at position ``order[l]`` of the exponent vectors, and
    ``powers[l][d]`` is X_l**d, extended as needed.  ``order`` is the
    nesting order, outermost first (see ``_nesting_order``).

    Every level but the last is nested Horner in its X_i: with
    e_1 > ... > e_r the exponents of X_i and H_k the inner sum of the
    terms with exponent e_k, the sum is
    (...(H_1 X_i**(e_1 - e_2) + H_2) X_i**(e_2 - e_3) + ... + H_r) X_i**e_r.
    Each partial result is a sum of images of terms divided by a power of
    X_i, so no product has a larger degree than the largest image of a term,
    the bound ``substitute`` packs for.  That holds for every level and
    every variable it handles, so the bound holds for every nesting order;
    and every order sums the same images of terms, the same packed
    polynomial, since exact integer arithmetic does not depend on the
    order of the additions.

    At the last level each H_k is a scalar c_k, and the level returns
    c_1 X**e_1 + ... + c_r X**e_r directly, adding a scalar multiple of
    each cached power into one dict.  Packing bound: with w the degree of
    X, X**e has degree w e, at most the weighted degree of its own term, so
    neither it nor a table entry below it leaves the bound.  Cost: the
    level forms no polynomial product.  A term with e > 0 costs |X**e|
    scalar multiply-adds, and one with e = 0 an addition, as in Horner, so
    one term costs what Horner's last step, c X**e, costs.  With more
    terms, let e_s be the least positive exponent: Horner's product A X**e_s,
    A = sum over e_k >= e_s of c_k X**(e_k - e_s), alone forms
    |A| |X**e_s| products.  When distinct powers of X share no monomial, as
    for a homogeneous X (the linear images of ``twist_no_solution``),
    nothing in A cancels, |A| is the sum of the |X**(e_k - e_s)|, and
    X**e_k = X**(e_k - e_s) X**e_s has at most |X**(e_k - e_s)| |X**e_s|
    monomials, so that one product forms at least the products of this
    level.  When the powers share monomials (X with a constant term) the
    count is not bounded term by term: Horner's partial sums can cancel, as
    (1 + y)**2 - 2 (1 + y) + 1 = y**2 does, and Horner then forms fewer.
    The power table is shared by every call at this level, so its
    extension is not counted per term."""
    if i == len(powers):
        return {0: c for _, c in terms}
    j = order[i]
    table = powers[i]
    acc: dict[int, int] = {}
    if i == len(powers) - 1:
        get = acc.get
        for ev, c in terms:
            for m, pc in _power(table, ev[j]).items():
                acc[m] = get(m, 0) + c * pc
        return acc
    groups: dict[int, list] = {}
    for term in terms:
        groups.setdefault(term[0][j], []).append(term)
    last = 0
    for e in sorted(groups, reverse=True):
        if acc:
            acc = _nonzero(_pmul(_power(table, last - e).items(), acc.items(), {}))
        inner = _horner(groups[e], i + 1, order, powers)
        for m, c in inner.items():
            acc[m] = acc.get(m, 0) + c
        last = e
    if last:
        acc = _pmul(_power(table, last).items(), acc.items(), {})
    return acc


def _power(table: list[dict[int, int]], d: int) -> dict[int, int]:
    # table[d], with table[1] the base, filled in up to d
    while len(table) <= d:
        table.append(_nonzero(_pmul(table[-1].items(), table[1].items(), {})))
    return table[d]


# --- content and primitive part ---

def content_primitive(p: MultiPoly) -> tuple[int, MultiPoly]:
    """Positive gcd of the coefficients and p divided by it.  The sign of p
    stays in the primitive part."""
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no content")
    g = 0
    for c in p.terms.values():
        g = gcd(g, c)
    prim = MultiPoly._make(p.variables, {ev: c // g for ev, c in p.terms.items()})
    return g, prim


# --- exact division ---

def try_exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly | None:
    """Quotient num/den when den divides num exactly over the integers,
    else None.  Leading-term reduction in graded lex order."""
    if den.is_zero:
        raise ZeroPolynomial("division by the zero polynomial")
    vs, a, b = num._aligned(den)
    pk = _Packing(len(vs), max(_degree(a), _degree(b)))
    quot = _pdiv(pk.pack(a), pk.pack(b), pk.guard)
    return None if quot is None else MultiPoly._make(vs, pk.unpack(quot))


def exact_div(num: MultiPoly, den: MultiPoly) -> MultiPoly:
    q = try_exact_div(num, den)
    if q is None:
        raise InexactDivision(f"({num}) is not divisible by ({den})")
    return q


def divides(den: MultiPoly, num: MultiPoly) -> bool:
    return try_exact_div(num, den) is not None


# --- resultants ---

def resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of p and q with respect to ``var``: the
    determinant of their n x n Sylvester matrix M.  Vanishes exactly when p
    and q share a root in ``var``; the result does not involve ``var``.

    p and q are aligned to one variable tuple once, and their terms are
    bucketed by their exponent of ``var`` straight into the rows of M: each
    entry is a term map over that whole tuple, ``var``'s exponent put to 0,
    and the rows of one polynomial share the same maps, shifted.
    ``_determinant`` takes those rows and the tuple's length; it reads each
    distinct map once, and no ``MultiPoly`` is built until the result.

    The determinant takes one of two routes, chosen from the entries alone
    (``_folded_variable``).  Folding a variable t (below) gathers the terms
    of an entry that differ only in their exponent of t into one term with
    a big-integer coefficient.  When folding some variable merges terms,
    the variable that leaves the entries the fewest terms (the first of
    several) is folded.  When folding any of them merges none, as for
    entries of one term, of integers only, or binomials whose terms differ
    in every variable, the determinant is taken in three stages
    (``_det_packed``).  Write M[X; Y] for the submatrix on rows X and
    columns Y, K for rows and columns 0..k-1, d_i for the largest total
    degree in row i of M and D_X for the sum of d_i over X, so that
    S = D_all.

    1. Integer pivots.  Fraction-free (Bareiss) elimination runs while some
       row has an integer constant in the pivot column; the one of least
       absolute value is swapped up, and each swap flips the sign.  After k
       steps the entry at (i, j), i, j >= k, is the minor
       B_ij = det M[K + i; K + j] of the swapped M, and the last pivot is
       prev = det M[K; K] (1 when k = 0) (Bareiss, Math. Comp. 22, 1968).
       Step k forms B_kk B_ij - B_ik B_kj, which by Sylvester's identity on
       M[K + k + i; K + k + j] equals prev times the next minor
       det M[K + k + i; K + k + j].  That minor has integer coefficients,
       so dividing by the integer prev is exact, coefficient by coefficient.
    2. Minor expansion.  When no row has an integer constant in column k,
       one of two matrices is expanded by minors, Laplace along its rows
       (``_expand_by_minors``): the trailing t x t block B (t = n - k), or,
       when k > 0, M itself as it was before the pivots.  ``_minor_plan``
       costs B by the products its expansion forms (``_live_sets``), then
       costs M with B's cost as the limit, and M is expanded only when it
       costs less.  The pivots can leave B denser than the banded M they
       started from, and M can be dearer than B, hence the comparison.
       Costing M stops once it passes B's cost, so it does at most about
       the work of costing B; a matrix whose integer pivots reach the end,
       such as one of integers only, never costs M at all.  Both routes are
       exact, since an expansion forms only integer sums of products.  In
       the matrix A expanded, the minor on rows R and columns C, with r the
       row of R used last, is the sum over j in C of
       (-1)^(pos(r, R) + pos(j, C)) A_rj det A[R - r; C - j], pos counting
       the members before it.  The rows are used in a fixed order and r is
       the last of R in it, so pos(r, R) = |C| - 1 and the sign is (-1) to
       the number of columns of C after j.  Using the rows of A in another
       order than A's own multiplies the result by the sign of that
       reordering, which is divided out.  Expanding M gives det M, with no
       swap sign and no stage 3.
    3. Scale back.  When B is expanded, Sylvester's identity gives
       det B = prev^(t - 1) det M, so det M is det B divided exactly by the
       integer prev^(t - 1), times the sign of the swaps.

    Packing bound.  A minor of M on rows X has degree at most D_X <= S.
    Every entry of every elimination step is such a minor, so each product
    a step forms has degree at most 2S.  In stage 2, prev is an integer,
    so by Sylvester's identity a minor of B on rows R is prev^(|R| - 1)
    det M[K + R; K + C], of degree at most D_K + D_R.  So the product
    B_rj det B[R - r; C - j] has degree at most
    (D_K + d_r) + (D_K + D_R - d_r) = D_K + D_(K + R) <= 2S.  When M
    itself is expanded, the product M_rj det M[R - r; C - j] has degree at
    most d_r + D_(R - r) = D_R <= S <= 2S.  The entries are packed once,
    for degree 2S.

    Folding (Kronecker substitution; von zur Gathen & Gerhard, *Modern
    Computer Algebra*, §8.4).  Let ||f||_1 be the sum of the absolute
    coefficients of f, B = prod over rows r of sum_j ||M_rj||_1 and
    w = B.bit_length() + 1.  Each entry is mapped by phi: t -> 2**w, so a
    term c t**e X**a adds c 2**(w e) to the coefficient of X**a, X the
    other variables, and the packed monomial of X**a is formed in the same
    pass (``_fold``, which ``MultiPoly.vanishes_on`` shares).
    phi(M) is expanded by minors whole, as in stage 2 with no pivots, on
    the rows ``_minor_plan`` orders; the one division is by the sign +-1 of
    that order.  A product of two folded entries forms one big-integer
    product per pair of their monomials in X, where the unfolded product
    forms one per pair of terms.  No integer pivot runs on folded values:
    a remainder test on a folded int is implied by stage 1's
    coefficientwise test, but is weaker than it.  det M is then read back
    (``_unfold``, which also unpacks X**a in the same pass): the balanced
    base-2**w digits of each coefficient of X**a, lowest first, are the
    coefficients of t**0 X**a, t**1 X**a, ...  Proof:

    - phi is a ring homomorphism and a determinant is a polynomial in the
      entries, so det phi(M) = phi(det M).
    - ||det M||_1 <= B: det M is the Leibniz sum over permutations s of
      +-prod_r M_r,s(r), and ||f g||_1 <= ||f||_1 ||g||_1, so ||det M||_1 is
      at most sum_s prod_r ||M_r,s(r)||_1 <= prod_r sum_j ||M_rj||_1 = B.
      So every coefficient c_e of t**e X**a in det M has
      |c_e| <= B < 2**(w - 1).
    - The coefficient of X**a in phi(det M) is sum_e c_e 2**(w e), with
      every digit c_e in (-2**(w - 1), 2**(w - 1)), and balanced digits in
      that range are unique: where two such digit strings of one value
      first differ, their digits differ by a multiple of 2**w below 2**w in
      absolute value, so by 0.  ``_unfold`` takes as lowest digit the
      residue in [-2**(w - 1), 2**(w - 1)) modulo 2**w, which is c_0,
      subtracts it and shifts by w bits, so it reads every c_e exactly.

    The width is the least this argument allows: diag(2**k t, ..., 2**k t)
    of size n has B = 2**(k n) and det M = 2**(k n) t**n, and one bit
    narrower that digit would be read as -2**(k n) with a carry into
    t**(n + 1).  Packing bound: folding raises no entry's degree, so the
    expansion's products have degree at most D_R <= S in X, within the
    packing for 2S.
    """
    dp = p.degree_in(var)
    dq = q.degree_in(var)
    if dp == 0 or dq == 0:
        raise DegenerateInput(f"both polynomials must have positive degree in {var!r}")
    vs, a, b = p._aligned(q)
    i = vs.index(var)
    n = dp + dq
    rows: list[list[dict[tuple[int, ...], int]]] = []
    for terms, d, copies in ((a, dp, dq), (b, dq, dp)):
        coeffs = _coefficients(terms, i, d)[::-1]  # of var**d, ..., var**0
        for r in range(copies):
            rows.append([{}] * r + coeffs + [{}] * (n - r - d - 1))
    return MultiPoly._make(vs, _determinant(rows, len(vs)))


def _determinant(m: list[list[Mapping[tuple[int, ...], int]]], nvars: int) -> dict[tuple[int, ...], int]:
    """Determinant of the square matrix m of term maps, every exponent tuple
    of length ``nvars``, as a term map, by the route argued in
    ``resultant``: one variable folded into the coefficients, or the stages
    of ``_det_packed``.  The entries are packed once, for total degrees up
    to 2S, S being the sum over rows of the largest entry degree; a folded
    entry is folded and packed in one pass (``_fold``), and the result is
    read back and unpacked in one (``_unfold``).  ``m`` is left as it was
    given."""
    # the rows of a Sylvester matrix repeat the same term maps, shifted:
    # each distinct map, keyed by identity, is read once per pass and
    # counted as often as it occurs
    distinct: dict[int, list] = {}
    for row in m:
        for e in row:
            distinct.setdefault(id(e), [e, 0])[1] += 1

    def per_entry(f) -> list[list]:
        # f of each entry, in the shape of m
        done = {key: f(e) for key, (e, _) in distinct.items()}
        return [[done[id(e)] for e in row] for row in m]

    bound = 2 * sum(map(max, per_entry(_degree)))
    t = _folded_variable(list(distinct.values()), nvars)
    if t is None:
        pk = _Packing(nvars, bound)
        return pk.unpack(_det_packed(per_entry(pk.pack)))
    # B of the proof in ``resultant``, a bound on the 1-norm of det M
    norm = prod(map(sum, per_entry(lambda e: sum(map(abs, e.values())))))
    w = norm.bit_length() + 1
    pk = _Packing(nvars - 1, bound)
    rows = per_entry(lambda e: _fold(e, t, w, pk))
    _, order, live = _minor_plan(rows, None)
    return _unfold(_expand_by_minors(rows, order, live), t, w, pk)


def _folded_variable(entries: list[list], nvars: int) -> int | None:
    """The variable whose folding (``_fold``) leaves the entries the fewest
    terms, the first of several; None when folding any of them merges no
    terms.  ``entries`` lists each distinct term map of the matrix with the
    number of times it occurs, as ``[map, count]``."""
    # an entry of one term, or a variable that no term has, merges nothing
    sums = [(e, k) for e, k in entries if len(e) > 1]
    size = sum(len(e) * k for e, k in sums)
    used = [t for t, col in enumerate(zip(*(ev for e, _ in sums for ev in e))) if any(col)]
    left = {t: sum(len({ev[:t] + ev[t + 1:] for ev in e}) * k for e, k in sums) for t in used}
    t = min(used, key=left.__getitem__, default=None)
    return None if t is None or left[t] == size else t


def _det_packed(m: list[list[dict[int, int]]]) -> dict[int, int]:
    n = len(m)
    raw = [list(row) for row in m]  # the steps replace entries, never change one
    sign = 1
    prev = 1  # the last pivot
    for k in range(n - 1):
        ints = [(abs(m[i][k][0]), i) for i in range(k, n) if m[i][k].keys() == {0}]
        if not ints:
            block = [row[k:] for row in m[k:]]
            cost, order, live = _minor_plan(block, None)
            if k:
                raw_cost, raw_order, raw_live = _minor_plan(raw, cost)
                if raw_cost < cost:
                    return _expand_by_minors(raw, raw_order, raw_live)
            det = _expand_by_minors(block, order, live)
            return _div_int(det, sign * prev ** (n - k - 1))
        pick = min(ints)[1]  # the least integer constant in column k
        if pick != k:
            m[k], m[pick] = m[pick], m[k]
            sign = -sign
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            neg_ik = [(t, -c) for t, c in row_i[k].items()]
            for j in range(k + 1, n):
                acc = _nonzero(_pmul(neg_ik, row_k[j].items(), _pmul(pivot.items(), row_i[j].items(), {})))
                row_i[j] = _div_int(acc, prev)
            row_i[k] = {}
        prev = pivot[0]
    return _div_int(m[n - 1][n - 1], sign)


def _div_int(p: dict[int, int], d: int) -> dict[int, int]:
    # p / d for a nonzero int d that must divide every coefficient
    if d == 1:
        return p
    out = {}
    for t, c in p.items():
        q, r = divmod(c, d)
        if r:
            raise InexactDivision("a determinant step is not exact")
        out[t] = q
    return out


def _minor_plan(
    block: list[list[dict[int, int]]], limit: int | None
) -> tuple[int, list[int], list[set[int]]]:
    """The cost, row order and live sets with which ``_expand_by_minors``
    expands a square block, the rows in band order, costed by
    ``_live_sets``.  Costing stops once it passes ``limit``; a cost above
    ``limit`` comes with incomplete live sets and must not be expanded.

    Band order: by first nonzero column, fewer terms first among equals.
    After the rows that start at or before column c are used, every live
    set contains all columns left of the next row's start s, as no later
    row reaches them, and lies inside the columns the used rows reach.  In
    a Sylvester block of degrees dp and dq a row starting at c ends by
    column c + max(dp, dq), and s >= c, so the live sets differ only within
    those max(dp, dq) + 1 columns: at most 2^(max(dp, dq) + 1) per row,
    not 2^t."""
    t = len(block)
    start = [next((j for j, e in enumerate(row) if e), t) for row in block]
    size = [sum(len(e) for e in row) for row in block]
    order = sorted(range(t), key=lambda r: (start[r], size[r]))
    live, cost = _live_sets([block[r] for r in order], limit)
    return cost, order, live


def _expand_by_minors(
    block: list[list[dict[int, int]]], order: list[int], live: list[set[int]]
) -> dict[int, int]:
    """Determinant of a square block of packed polynomials by Laplace
    expansion along its rows (Gentleman & Johnson, ACM TOMS 2(3), 1976),
    the rows used in ``order`` with the column sets ``live`` after each, as
    ``_minor_plan`` chose them.  After each row, ``minors`` maps each live
    set of columns, as a bit mask, to the nonzero minor on the rows used so
    far and those columns, stored once as a list of (packed monomial,
    coefficient) pairs with the zeros dropped; each minor is formed once
    and shared by every larger minor that expands into it, and no product
    rebuilds its list.  A set is live while the rows still to come reach
    every column outside it.  The products formed, each counted by the
    terms of its entry, add up to at most the plan's cost.  Both routes of
    ``_determinant`` expand through here: the trailing block or raw matrix
    of ``_det_packed``, and the folded matrix."""
    t = len(block)
    # the reordering's sign is the parity of its inversions
    odd = sum(a > b for i, a in enumerate(order) for b in order[i + 1:]) & 1
    minors: dict[int, list[tuple[int, int]]] = {0: [(0, 1)]}
    for r, sets in zip(order, live):
        entries = [(j, 1 << j, list(e.items()), [(m, -c) for m, c in e.items()])
                   for j, e in enumerate(block[r]) if e]
        nxt: dict[int, list[tuple[int, int]]] = {}
        for cols in sets:
            acc: dict[int, int] = {}
            for j, bit, e, neg in entries:
                minor = minors.get(cols ^ bit) if cols & bit else None
                if minor:
                    # the sign of the entry's place in the last row of the
                    # minor is (-1) to the number of its columns right of j
                    _pmul(neg if (cols >> j + 1).bit_count() & 1 else e, minor, acc)
            items = [(m, c) for m, c in acc.items() if c]
            if items:
                nxt[cols] = items
        if not nxt:
            return {}
        minors = nxt
    det = minors[(1 << t) - 1]
    return {m: -c for m, c in det} if odd else dict(det)


def _live_sets(rows: list[list[dict[int, int]]], limit: int | None) -> tuple[list[set[int]], int]:
    """The column sets live after each row when ``_expand_by_minors`` uses
    the rows in this order, and the cost of its products.  Each product of
    an entry and a minor costs the entry's number of terms, every minor
    taken as nonzero, so the cost bounds the products formed, weighted by
    the terms of their entries.  With ``limit`` not None, costing stops
    once the cost passes ``limit``, checked after each set it extends; the
    cost returned is then above ``limit`` and the live sets are incomplete."""
    full = (1 << len(rows)) - 1
    # reach[r]: the columns with a nonzero entry in row r or below
    reach = [0] * (len(rows) + 1)
    for r in range(len(rows) - 1, -1, -1):
        reach[r] = reach[r + 1] | sum(1 << j for j, e in enumerate(rows[r]) if e)
    live, cost = [{0}], 0
    for r, row in enumerate(rows):
        entries = [(1 << j, len(e)) for j, e in enumerate(row) if e]
        later = reach[r + 1]
        nxt = set()
        for mask in live[-1]:
            for bit, terms in entries:
                cols = mask | bit
                # live while the later rows reach every column outside it
                if cols != mask and not full & ~cols & ~later:
                    nxt.add(cols)
                    cost += terms
            if limit is not None and cost > limit:
                return live[1:], cost
        live.append(nxt)
    return live[1:], cost


# --- exact rational linear algebra, fraction-free on integers ---

def scale_to_integers(values: Sequence[Scalar]) -> list[int]:
    """The values times the lcm of their denominators, as ints.  A row of
    ints comes back unchanged; scaling a row of a linear system, or a whole
    sequence under a homogeneous linear recurrence, keeps its solutions."""
    if all(isinstance(x, int) for x in values):
        return list(values)
    q = [Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in q))
    return [x.numerator * (scale // x.denominator) for x in q]


def _primitive(row: list[int]) -> list[int]:
    # divided by the gcd of its entries, first nonzero entry positive
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _eliminate(row: list[int], s: list[int], p: int) -> list[int]:
    # b * row - a * s, with a = row[p] and b = s[p] over their gcd: zero at p
    a, b = row[p], s[p]
    g = gcd(a, b)
    a, b = a // g, b // g
    return [b * x - a * y for x, y in zip(row, s)]


def _echelon(rows: Iterable[Sequence[Scalar]], ncols: int) -> dict[int, list[int]]:
    """A row-echelon basis of the row space, in integers: a map from each
    pivot column to a primitive integer row whose first nonzero entry,
    positive, sits in that column, zero in the pivot columns stored before
    it.  ValueError when a row's length is not ``ncols``.

    Rows enter one at a time, each scaled to integers.  An incoming row is
    reduced against the stored rows in the order they were stored: with a
    its entry in a stored row's pivot column and b that pivot, both over
    their gcd, it becomes b * row - a * stored, which clears the column
    without fractions.  Each stored row is zero in the pivot columns stored
    before it, so columns cleared earlier stay clear, and what is left is
    zero in every pivot column.  A nonzero remainder is stored, divided by
    its content, under its first nonzero column.

    The pivot set is the rref's whatever the row order: a basis whose
    first nonzero columns differ has, as first nonzero columns of its
    combinations, exactly its own, and the rref's pivots are the first
    nonzero columns of the row space.
    """
    stored: dict[int, list[int]] = {}
    for row in rows:
        if len(row) != ncols:
            raise ValueError("matrix is not rectangular")
        row = scale_to_integers(row)
        for p, s in stored.items():
            if row[p]:
                row = _eliminate(row, s, p)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        stored[lead] = _primitive(row)
    return stored


def _back_substitute(echelon: dict[int, list[int]], f: int, ncols: int) -> list[int]:
    """A multiple of the kernel vector v of the echelon's rows with v_f = 1
    for the free column f and 0 in every other free column.

    Row p reads v_p * row[p] + sum_(c > p) row[c] * v_c = 0, so the pivot
    entries follow in decreasing column order, each from entries already
    known; a pivot column above f is 0, as every column its row reaches is.
    v is kept in integers by scaling it by row[p] / g before v_p = -sum / g
    is set, g = gcd(sum, row[p])."""
    v = [0] * ncols
    v[f] = 1
    for p in sorted((p for p in echelon if p < f), reverse=True):
        row = echelon[p]
        total = 0
        for c in range(p + 1, f + 1):
            if v[c] and row[c]:
                total += row[c] * v[c]
        if not total:
            continue
        a = row[p]
        g = gcd(total, a)
        if a != g:
            m = a // g
            v = [x * m for x in v]
        v[p] = -total // g
    return v


def rational_nullspace(
    matrix: Sequence[Sequence[Scalar]], ncols: int | None = None
) -> list[list[int]]:
    """Basis of the right nullspace over the rationals, each vector scaled to
    coprime integers with positive first nonzero entry.  An empty matrix has
    the full space as nullspace (``ncols`` must then be given).

    One vector per free column f: the kernel vector with v_f = 1 and 0 in
    every other free column, scaled.  It is unique, as a kernel vector that
    is zero in every free column is zero (its pivot entries follow from
    them by back-substitution), and it is the rref's (free column f set to
    1, pivot column p to minus the rref's entry at f): the echelon rows span
    the rref's row space, so both have one kernel.  So the basis does not
    depend on the row order or on how the echelon was computed."""
    rows = [list(row) for row in matrix]
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    echelon = _echelon(rows, ncols)
    return [
        _primitive(_back_substitute(echelon, f, ncols)) for f in range(ncols) if f not in echelon
    ]


def rational_solve(
    matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> list[Fraction] | None:
    """One exact solution of matrix * x = rhs (free unknowns set to 0), or
    None when the system is inconsistent.

    x = v[:-1] / v[-1] for the kernel vector v of [A | -rhs] that is 1 in
    the column -rhs and 0 in every free column of A: the one vector of
    rational_nullspace([A | -rhs]) that is nonzero in the last column, here
    back-substituted alone.  So the free unknowns come out 0 and each pivot
    unknown as its rref row's rhs over its pivot.  When -rhs is a pivot
    column, the system is inconsistent: a row of the row space is zero on
    every unknown and nonzero at -rhs, so every kernel vector is zero in
    the last column and None is returned.  Only this last step uses
    Fractions.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(row) + [-b] for row, b in zip(matrix, rhs)]
    if not rows:  # an empty rhs: as rational_nullspace([]) refuses it
        raise ValueError("empty matrix needs an explicit column count")
    echelon = _echelon(rows, ncols + 1)
    if ncols in echelon:
        return None
    v = _back_substitute(echelon, ncols, ncols + 1)
    return [Fraction(x, v[ncols]) for x in v[:ncols]]
