"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single `criterion N (...): PASS/FAIL` line (visible with
pytest -s or -rP) and enforces its runtime budget where one is stated.
"""

import functools
import random
import time

from cubeforge import (
    MultiPoly,
    ParamQuadruple,
    QuadForm,
    RationalGF,
    certify_theorem,
    divides,
    enumerate_solutions,
    find_form,
    forge,
    general_quadform,
    implicitize,
    pell_special,
    search_quadruples,
    sol_quad,
    taylor_coefficients,
    twist_no_solution,
    verify_param,
)
from cubeforge.parsing import parse_poly

from test_cubic import expand_orbit, naive_search
from test_quadform import naive_enumerate


def criterion(label, budget=None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None:
                    assert elapsed < budget, (
                        f"runtime {elapsed:.2f}s over budget {budget}s"
                    )
            except BaseException:
                print(f"criterion {label}: FAIL")
                raise
            print(f"criterion {label}: PASS ({elapsed:.2f}s)")

        return wrapper

    return decorate


def P(text, variables=("m", "n")):
    return parse_poly(text, variables)


@criterion("1 (almost-Fermat alternating regression)", budget=1.0)
def test_criterion_1(alternating_triple):
    seq_a, seq_b, seq_c = (taylor_coefficients(g, 41) for g in alternating_triple)
    for n in range(41):
        assert seq_a[n] ** 3 + seq_b[n] ** 3 - seq_c[n] ** 3 - (-1) ** n == 0


@criterion("2 (weighted 6859 regression)", budget=1.0)
def test_criterion_2(constant_triple_6859):
    seq_a, seq_b, seq_c = (taylor_coefficients(g, 26) for g in constant_triple_6859)
    assert (seq_a[0], seq_b[0], seq_c[0]) == (-29, -1, 25)
    assert (-29) ** 3 + 2 * (-1) ** 3 + 2 * 25**3 == 6859
    for n in range(26):
        assert seq_a[n] ** 3 + 2 * seq_b[n] ** 3 + 2 * seq_c[n] ** 3 == 6859


@criterion("3 (parametric quadruple symbolic identity)", budget=1.0)
def test_criterion_3():
    texts = (
        "m^2 + 7*m*n - 9*n^2",
        "2*m^2 - 4*m*n + 12*n^2",
        "-2*m^2 - 10*n^2",
        "-(m^2) + 9*m*n + n^2",
    )
    quadruple = ParamQuadruple(1, 1, *(QuadForm.from_poly(P(t)) for t in texts))
    assert verify_param(quadruple)


@criterion("4 (alternating unit orbit at bound 2000)", budget=5.0)
def test_criterion_4():
    orbit = sol_quad(QuadForm(-1, 9, 1), bound=2000)
    assert orbit.kind == "alternating"
    assert orbit.pairs(5) == [(1, 0), (9, 1), (82, 9), (747, 82), (6805, 747)]
    form = QuadForm(-1, 9, 1)
    for i, (m, n) in enumerate(orbit.pairs(5)):
        assert form.value(m, n) == (-1) ** (i + 1)


@criterion("5 (Pell construction grid)")
def test_criterion_5():
    for k in range(2, 7):
        for b in range(1, 5):
            pc = pell_special(k, b)
            seq_a = taylor_coefficients(pc.gf_a, 31)
            seq_b = taylor_coefficients(pc.gf_b, 31)
            for n in range(31):
                assert seq_a[n] ** 2 - pc.modulus * seq_b[n] ** 2 == 1


@criterion("6 (constant form over random initial vectors)")
def test_criterion_6():
    rng = random.Random(2026)
    done = 0
    while done < 100:
        c0, c1, d0, d1, k = (rng.randint(-5, 5) for _ in range(5))
        if c0 * d1 - c1 * d0 == 0:
            continue
        form, const = general_quadform(c0, c1, d0, d1, k)
        seq_a = taylor_coefficients(RationalGF((c0, c1), (1, -k, 1)), 31)
        seq_b = taylor_coefficients(RationalGF((d0, d1), (1, -k, 1)), 31)
        for n in range(31):
            assert form.value(seq_a[n], seq_b[n]) == const
        done += 1


@criterion("7 (forge emits certified theorems)")
def test_criterion_7():
    rng = random.Random(424242)
    for weights in ((1, -1), (1, 1)):
        start = time.perf_counter()
        theorems = forge(*weights)
        assert time.perf_counter() - start < 60.0
        assert len(theorems) >= 1
        for thm in theorems:
            cert = certify_theorem(thm)
            assert cert.certified
            depth = 10 * cert.bound
            seqs = thm.sequences(depth)
            for _ in range(10):
                n = rng.randint(cert.bound, depth - 1)
                rhs = thm.c * (
                    -1 if (thm.rhs_kind == "alternating" and n % 2) else 1
                )
                assert (
                    thm.a * seqs[0][n] ** 3
                    + thm.a * seqs[1][n] ** 3
                    + thm.b * seqs[2][n] ** 3
                    == rhs
                )


@criterion("8 (elimination divisibility regressions)")
def test_criterion_8():
    cases = [
        (("m^2 - n^2", "2*m*n", "m^2 + n^2"), "x^2 + y^2 - z^2"),
        (("2*m^2 - 3*n^2", "2*m*n", "m^2 + n^2"), "4*x^2 + 4*x*z + 25*y^2 - 24*z^2"),
        (
            ("m^3 - n^3", "m^2*n + m*n^2", "m^3 + n^3"),
            "3*x^2*y + x^2*z + 4*y^3 - 3*y*z^2 - z^3",
        ),
    ]
    for (px, py, pz), target in cases:
        s = implicitize(P(px), P(py), P(pz))
        assert divides(parse_poly(target, ("x", "y", "z")), s)


@criterion("9 (no-solution twist bit-exact)")
def test_criterion_9():
    out = twist_no_solution(
        parse_poly("x^3 + y^3 + z^3", ("x", "y", "z")),
        [[6, 7, -9], [6, -5, 4], [-8, -3, 3]],
    )
    expected = {
        (3, 0, 0): -80,
        (2, 1, 0): -360,
        (2, 0, 1): 36,
        (1, 2, 0): 1116,
        (1, 1, 1): -2556,
        (1, 0, 2): 1530,
        (0, 3, 0): 191,
        (0, 2, 1): -942,
        (0, 1, 2): 1380,
        (0, 0, 3): -638,
    }
    assert out == MultiPoly(("x", "y", "z"), expected)


@criterion("10 (degree-d form discovery suite)")
def test_criterion_10():
    from cubeforge.errors import NoTargetedForm

    rng = random.Random(31415)
    done = 0
    while done < 20:
        k1, k2 = rng.randint(-4, 4), rng.randint(-4, 4)
        den = (1, -k1, -k2, -1)
        gfs = [
            RationalGF(tuple(rng.randint(-3, 3) for _ in range(3)), den)
            for _ in range(3)
        ]
        if any(not g.num for g in gfs):
            continue
        try:
            result = find_form(gfs, 3, "constant")
        except NoTargetedForm:
            # the guaranteed integer C can be zero (e.g. linearly dependent
            # sequences); a certified vanishing form still witnesses it
            result = find_form(gfs, 3, "none")
            assert result.homogeneous_vanishing
        assert result.certificate.certified
        assert result.coefficients
        done += 1
    done = 0
    while done < 50:
        c0, c1, d0, d1 = (rng.randint(-5, 5) for _ in range(4))
        k = rng.choice([-5, -4, -3, 3, 4, 5])
        if c0 * d1 - c1 * d0 == 0:
            continue
        form, const = general_quadform(c0, c1, d0, d1, k)
        found = find_form(
            [RationalGF((c0, c1), (1, -k, 1)), RationalGF((d0, d1), (1, -k, 1))],
            2,
            "constant",
        )
        v1 = (form.qa, form.qb, form.qc, const)
        v2 = (
            found.coefficients.get((2, 0), 0),
            found.coefficients.get((1, 1), 0),
            found.coefficients.get((0, 2), 0),
            found.constant,
        )
        assert all(v1[i] * v2[j] == v1[j] * v2[i] for i in range(4) for j in range(4))
        done += 1


@criterion("11 (oracle equivalence for both searches)")
def test_criterion_11():
    rng = random.Random(271828)
    forms = [QuadForm(1, 0, -2), QuadForm(-1, 9, 1), QuadForm(2, 1, -1)]
    for _ in range(6):
        forms.append(
            QuadForm(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3) or 2)
        )
    for form in forms:
        targets = {rng.randint(-15, 15) for _ in range(3)}
        assert enumerate_solutions(form, targets, 200) == naive_enumerate(
            form, targets, 200
        )
    for a, b, bound in ((1, 1, 15), (1, -1, 15), (2, 1, 9), (1, 3, 8)):
        oracle = naive_search(a, b, bound)
        reps = search_quadruples(a, b, bound)
        covered = set()
        for q in reps:
            orbit = expand_orbit(q.coords)
            assert not (orbit & covered)
            covered |= orbit
        assert covered == oracle
