import json
import random
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest

import cubeforge.concoct as concoct
from cubeforge import (
    Certificate,
    FormResult,
    MultiPoly,
    RationalGF,
    divides,
    find_form,
    general_quadform,
    implicitize,
    kernel,
    taylor_coefficients,
    twist_no_solution,
)
from cubeforge.errors import NoForm, NoTargetedForm, SingularSubstitution
from cubeforge.parsing import parse_poly


def P(text):
    return parse_poly(text, ("m", "n"))


def XYZ(text):
    return parse_poly(text, ("x", "y", "z"))


def homog(rng, deg):
    return MultiPoly(
        ("m", "n"), {(deg - i, i): rng.randint(-3, 3) for i in range(deg + 1)}
    )


PAPER_MATRIX = [[6, 7, -9], [6, -5, 4], [-8, -3, 3]]


class TestImplicitize:
    def test_pythagorean(self):
        s = implicitize(P("m^2 - n^2"), P("2*m*n"), P("m^2 + n^2"))
        assert divides(XYZ("x^2 + y^2 - z^2"), s)
        assert s.substitute({"x": P("m^2 - n^2"), "y": P("2*m*n"), "z": P("m^2 + n^2")}).is_zero

    def test_skewed_quadratic(self):
        s = implicitize(P("2*m^2 - 3*n^2"), P("2*m*n"), P("m^2 + n^2"))
        assert divides(XYZ("4*x^2 + 4*x*z + 25*y^2 - 24*z^2"), s)

    def test_cubic_parametrization(self):
        s = implicitize(P("m^3 - n^3"), P("m^2*n + m*n^2"), P("m^3 + n^3"))
        assert divides(XYZ("3*x^2*y + x^2*z + 4*y^3 - 3*y*z^2 - z^3"), s)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            implicitize(P("5"), P("m"), P("n"))

    def test_random_substitution_vanishes(self):
        from cubeforge.errors import EliminationCollapse

        rng = random.Random(83)
        done = 0
        while done < 50:
            ps = [homog(rng, rng.choice([2, 2, 2, 3])) for _ in range(3)]
            if any(p.is_zero or p.is_constant() for p in ps):
                continue
            try:
                s = implicitize(*ps)
            except EliminationCollapse:
                continue
            assert s.substitute({"x": ps[0], "y": ps[1], "z": ps[2]}).is_zero
            done += 1

    @pytest.mark.parametrize("texts", [
        ("m^2 - n^2", "2*m*n", "m^2 + n^2"),  # expanded: criterion 8
        ("m^2*n - 2*n", "-3*m*n + 3*n^2", "3*m^2 + 2*m*n - 3*m"),  # packed
    ])
    def test_equation_that_does_not_vanish_is_refused(self, monkeypatch, texts):
        # the n-resultant moved by its content, so the primitive part by
        # one: the vanishing check refutes it on either path of
        # MultiPoly.vanishes_on
        eliminant = concoct.resultant

        def moved(f, g, var):
            out = eliminant(f, g, var)
            return out + gcd(*out.terms.values()) if var == "n" else out

        monkeypatch.setattr(concoct, "resultant", moved)
        with pytest.raises(AssertionError, match="does not vanish"):
            implicitize(*(P(text) for text in texts))

    def test_eliminant_left_with_n_is_an_internal_fault(self, monkeypatch, capsys):
        # an n-resultant that still involves n is the kernel's fault, not
        # the input's: AssertionError, which the CLI reports as exit 3
        from cubeforge.cli import main

        eliminant = concoct.resultant

        def leaky(f, g, var):
            out = eliminant(f, g, var)
            return out + MultiPoly.variable("n", out.variables) if var == "n" else out

        monkeypatch.setattr(concoct, "resultant", leaky)
        texts = ("m^2 - n^2", "2*m*n", "m^2 + n^2")
        with pytest.raises(AssertionError, match="still involves m or n"):
            implicitize(*(P(text) for text in texts))
        assert main(["eliminate", *(w for v, t in zip("xyz", texts) for w in (f"--{v}", t))]) == 3
        assert "internal invariant violated" in capsys.readouterr().err

    # x - P is free of m, so the m-eliminations share y - Q instead
    M_FREE_X = {"x": "3*n^3 - 2", "y": "-m*n - 3*m^2*n", "z": "3*m^2 + n^2 + 2 + 2*n^3"}

    def test_m_free_first_component(self):
        ps = {v: P(text) for v, text in self.M_FREE_X.items()}
        s = implicitize(ps["x"], ps["y"], ps["z"])
        assert not s.is_constant() and s.substitute(ps).is_zero

    def test_m_free_first_component_cli(self, capsys):
        from cubeforge.cli import main

        argv = [w for v, text in self.M_FREE_X.items() for w in (f"--{v}", text)]
        assert main(["eliminate", *argv]) == 0
        s = XYZ(capsys.readouterr().out.strip())
        assert s == implicitize(*(P(text) for text in self.M_FREE_X.values()))


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


def eliminate_variants():
    """Every job of the eliminate benchmark workload: its id, the polynomial
    S it prints, and the values under which S must vanish.  An eliminate
    job's S is its implicit equation under x, y, z = P, Q, R.  A twist job
    prints G = F(M (x, y, z)), so F(x, y, z) - w vanishes under the rows of
    M and w = G."""
    spec = json.loads(GOLDEN.read_text())["workloads"]["eliminate"]
    jobs = spec["fixed"] + [job for pool in spec["pools"] for group in pool["groups"] for job in group]
    out = []
    for job in jobs:
        argv, printed = job["argv"], XYZ(job["stdout"].strip())
        if argv[0] == "eliminate":
            out.append((job["id"], printed, {v: P(argv[argv.index(f"--{v}") + 1]) for v in "xyz"}))
        else:
            rows = [[int(c) for c in row.split(",")] for row in argv[argv.index("--matrix") + 1].split(";")]
            base_text = argv[argv.index("--base") + 1] if "--base" in argv else "x^3 + y^3 + z^3"
            base = parse_poly(f"{base_text} - w", ("x", "y", "z", "w"))
            values = {v: MultiPoly(("x", "y", "z"), {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
                      for v, (a, b, c) in zip("xyz", rows)}
            out.append((job["id"], base, {**values, "w": printed}))
    return out


class TestVanishingCheckOnBenchmarkInputs:
    """The zero test of MultiPoly.vanishes_on on all 68 jobs of the
    eliminate benchmark workload (perfbench/golden.json, read only)."""

    VARIANTS = eliminate_variants()

    def test_every_variant(self):
        assert len(self.VARIANTS) == 68
        for job_id, s, values in self.VARIANTS:
            assert s.vanishes_on(values), job_id
            lead = max(s.terms)
            for delta in (-1, 1):
                moved = s + MultiPoly(s.variables, {lead: delta})
                assert not moved.vanishes_on(values), (job_id, delta)

    def test_both_paths_are_taken(self):
        # the four criterion-8 inputs, whose images are binomials, are
        # expanded; at least one random parametrisation is packed
        expanded = MultiPoly.substitute
        calls = []

        def spy(p, values):
            calls.append(p)
            return expanded(p, values)

        paths = {}
        with patch.object(MultiPoly, "substitute", spy):
            for job_id, s, values in self.VARIANTS:
                calls.clear()
                assert s.vanishes_on(values)
                paths[job_id] = "expanded" if calls else "packed"
        assert all(paths[f"eliminate:criterion8-{k}"] == "expanded" for k in range(4))
        assert any(path == "packed" for job_id, path in paths.items() if ":random-" in job_id)


class TestResultantsOnBenchmarkInputs:
    """The determinants of the resultants ``implicitize`` forms on the
    eliminate jobs of the eliminate benchmark workload (perfbench/golden.json,
    read only), on both routes of kernel._determinant: integer pivots then
    expansion by minors, and one variable folded into the coefficients."""

    def test_both_routes_agree(self):
        determinant, select = kernel._determinant, kernel._folded_variable
        folded = {}
        for job_id, _, values in eliminate_variants():
            if "w" in values:  # a twist forms no resultant
                continue
            matrices, picks = [], []

            def record(m, nvars):
                matrices.append(([row[:] for row in m], nvars))
                return determinant(m, nvars)

            def pick(entries, nvars):
                picks.append(select(entries, nvars))
                return picks[-1]

            with patch.object(kernel, "_determinant", record), patch.object(kernel, "_folded_variable", pick):
                implicitize(*(values[v] for v in "xyz"))
            assert len(matrices) == len(picks) >= 2, job_id
            folded[job_id] = [t is not None for t in picks]
            for (m, nvars), t in zip(matrices, picks):
                if t is None:  # fold the first variable the entries use
                    t = next(i for i in range(nvars) if any(ev[i] for row in m for e in row for ev in e))
                with patch.object(kernel, "_folded_variable", lambda entries, nvars: None):
                    unpacked = determinant(m, nvars)
                with patch.object(kernel, "_folded_variable", lambda entries, nvars: t):
                    assert determinant(m, nvars) == unpacked, job_id
        assert len(folded) == 4 + 48  # criterion 8 and the random variants
        assert folded["eliminate:criterion8-3"][-1]
        assert not any(folded["eliminate:criterion8-2"])
        assert any(any(f) for job_id, f in folded.items() if ":random-" in job_id)


class TestTwist:
    def test_paper_coefficients(self):
        out = twist_no_solution(XYZ("x^3 + y^3 + z^3"), PAPER_MATRIX)
        assert out == XYZ(
            "-80*x^3 - 360*x^2*y + 36*x^2*z + 1116*x*y^2 - 2556*x*y*z"
            " + 1530*x*z^2 + 191*y^3 - 942*y^2*z + 1380*y*z^2 - 638*z^3"
        )

    def test_identity_matrix(self):
        f = XYZ("x^3 - 2*y^3 + 7*z^3")
        assert twist_no_solution(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == f

    def test_singular_rejected(self):
        with pytest.raises(SingularSubstitution):
            twist_no_solution(XYZ("x^3 + y^3 + z^3"), [[1, 1, 1], [1, 1, 1], [0, 0, 1]])

    def test_adjugate_inversion(self):
        # G = F o M, so G(adj(M) p) = F(det(M) p) = det^3 F(p) for cubic F
        rng = random.Random(89)
        f = XYZ("x^3 + y^3 + z^3")
        m = PAPER_MATRIX
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        adj = [
            [
                m[1][1] * m[2][2] - m[1][2] * m[2][1],
                m[0][2] * m[2][1] - m[0][1] * m[2][2],
                m[0][1] * m[1][2] - m[0][2] * m[1][1],
            ],
            [
                m[1][2] * m[2][0] - m[1][0] * m[2][2],
                m[0][0] * m[2][2] - m[0][2] * m[2][0],
                m[0][2] * m[1][0] - m[0][0] * m[1][2],
            ],
            [
                m[1][0] * m[2][1] - m[1][1] * m[2][0],
                m[0][1] * m[2][0] - m[0][0] * m[2][1],
                m[0][0] * m[1][1] - m[0][1] * m[1][0],
            ],
        ]
        g = twist_no_solution(f, m)
        for _ in range(10):
            p = [rng.randint(-9, 9) for _ in range(3)]
            image = [sum(adj[i][j] * p[j] for j in range(3)) for i in range(3)]
            lhs = g.evaluate({"x": image[0], "y": image[1], "z": image[2]})
            rhs = det**3 * f.evaluate({"x": p[0], "y": p[1], "z": p[2]})
            assert lhs == rhs


class TestFormResult:
    """A FormResult's certificate is certify_zero on P(X) - C*(+-1)^n over
    its own sequences, never an argument."""

    SEQS = (RationalGF((1,), (1, -3, 1)), RationalGF((0, 1), (1, -3, 1)))
    FORM = {(2, 0): 1, (1, 1): -3, (0, 2): 1}

    def test_certificate_argument_rejected(self):
        with pytest.raises(TypeError):
            FormResult(self.SEQS, 2, self.FORM, 1, "constant", certificate=Certificate(bound=6))

    def test_found_form_is_its_own_result(self):
        r = find_form(list(self.SEQS), 2, "constant")
        assert r == FormResult(self.SEQS, 2, self.FORM, 1, "constant")

    @pytest.mark.parametrize("constant, target", [(2, "constant"), (1, "alternating"), (0, "none")])
    def test_wrong_target_carries_a_witness(self, constant, target):
        # X^2 - 3XY + Y^2 is 1 along the pair: another constant fails at
        # n = 0, the alternating sign at n = 1
        r = FormResult(self.SEQS, 2, self.FORM, constant, target)
        assert not r.certificate.certified
        assert r.certificate.witness == (1 if constant == 1 else 0)

    @pytest.mark.parametrize("target", ["foo", "Constant", "alternate", None])
    def test_unknown_target_rejected(self, target):
        # rhs_poly would give it a constant right side, and to_json would
        # print the target as given
        with pytest.raises(ValueError, match="target must be one of"):
            FormResult(self.SEQS, 2, self.FORM, 1, target)

    @pytest.mark.parametrize("constant", [1, -1, 5])
    def test_vanishing_target_with_a_constant_rejected(self, constant):
        # "none" means P vanishes identically; with C = 1 the form would be
        # certified as constant and print "target": "none" beside "C": 1
        with patch("cubeforge.concoct.certify_zero") as certify:
            with pytest.raises(ValueError, match="target 'none' needs the constant 0"):
                FormResult(self.SEQS, 2, self.FORM, constant, "none")
        certify.assert_not_called()


class TestFindForm:
    def test_constant_pair(self):
        r = find_form(
            [RationalGF((1,), (1, -3, 1)), RationalGF((0, 1), (1, -3, 1))],
            2,
            "constant",
        )
        assert r.coefficients == {(2, 0): 1, (1, 1): -3, (0, 2): 1}
        assert r.constant == 1
        assert not r.homogeneous_vanishing
        assert r.certificate.certified

    def test_alternating_pair(self):
        r = find_form(
            [RationalGF((1,), (1, -9, -1)), RationalGF((0, 1), (1, -9, -1))],
            2,
            "alternating",
        )
        # proportional to -X^2 + 9XY + Y^2 with C = -1
        coeffs = (
            r.coefficients.get((2, 0), 0),
            r.coefficients.get((1, 1), 0),
            r.coefficients.get((0, 2), 0),
        )
        reference = (-1, 9, 1)
        scale = r.constant / -1
        assert all(c == scale * ref for c, ref in zip(coeffs, reference))

    @pytest.mark.parametrize("degree", [2.0, True])
    def test_degree_not_an_int_rejected(self, degree):
        seqs = [RationalGF((1,), (1, -3, 1)), RationalGF((0, 1), (1, -3, 1))]
        with pytest.raises(ValueError, match=f"degree must be an int, not {type(degree).__name__}"):
            find_form(seqs, degree)

    def test_identical_sequences_not_targetable(self):
        g = RationalGF((1,), (1, -3, 1))
        with pytest.raises(NoTargetedForm) as info:
            find_form([g, g], 2, "constant")
        assert {(2, 0): 1, (1, 1): -1} in info.value.vanishing

    def test_vanishing_target_none(self):
        g = RationalGF((1,), (1, -3, 1))
        r = find_form([g, g], 2, "none")
        assert r.homogeneous_vanishing and r.constant == 0
        assert r.certificate.certified

    def test_no_form_for_unrelated_sequences(self):
        with pytest.raises(NoForm):
            find_form(
                [RationalGF((1,), (1, -2)), RationalGF((1,), (1, -1, -1, -1, -1))],
                2,
                "constant",
            )

    def test_agreement_with_constructor(self):
        rng = random.Random(97)
        for _ in range(20):
            while True:
                c0, c1, d0, d1 = (rng.randint(-5, 5) for _ in range(4))
                k = rng.choice([-5, -4, -3, 3, 4, 5])
                if c0 * d1 - c1 * d0 != 0:
                    break
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
            assert all(
                v1[i] * v2[j] == v1[j] * v2[i] for i in range(4) for j in range(4)
            )

    def test_degree_three_family(self):
        rng = random.Random(101)
        done = 0
        while done < 5:
            k1, k2 = rng.randint(-4, 4), rng.randint(-4, 4)
            den = (1, -k1, -k2, -1)
            gfs = [
                RationalGF(tuple(rng.randint(-3, 3) for _ in range(3)), den)
                for _ in range(3)
            ]
            if any(not g.num for g in gfs):
                continue
            r = find_form(gfs, 3, "constant")
            assert r.certificate.certified and r.coefficients
            seqs = [taylor_coefficients(g, 31) for g in gfs]
            poly = MultiPoly(("X1", "X2", "X3"), r.coefficients)
            for n in range(31):
                value = poly.evaluate(
                    {"X1": seqs[0][n], "X2": seqs[1][n], "X3": seqs[2][n]}
                )
                assert value == r.constant
            done += 1

    @staticmethod
    def _matrix_rows(monkeypatch):
        """The row counts of the matrices find_form hands to
        rational_nullspace, in order."""
        rows = []
        nullspace = concoct.rational_nullspace
        monkeypatch.setattr(
            concoct, "rational_nullspace", lambda m, *a: rows.append(len(m)) or nullspace(m, *a)
        )
        return rows

    def test_certificate_bound_rows_when_below_the_base_count(self, monkeypatch):
        # the README's findform input: bound 4 against C(3, 2) + 4 = 7 rows
        seqs = [RationalGF((1,), (1, -3, 1)), RationalGF((0, 1), (1, -3, 1))]
        rows = self._matrix_rows(monkeypatch)
        r = find_form(seqs, 2, "constant")
        assert rows == [4] and r.certificate.bound == 4
        # a bound above the base count gives the base-first order: the same
        # nullspace, vector and result from the 7-row matrix
        rows.clear()
        monkeypatch.setattr(concoct, "certificate_bound", lambda expr, bindings: 8)
        assert find_form(seqs, 2, "constant") == r
        assert rows == [7]

    def test_base_rows_first_when_the_bound_exceeds_them(self, monkeypatch):
        # denominators of order 4: the bound is C(5, 2) = 10 for target none,
        # and 2*X1^2 - X1*X2 already certifies on the 7 base rows
        den = (1, -1, -1, -1, -1)
        seqs = [RationalGF((1, 2, 3, 4), den), RationalGF((2, 4, 6, 8), den)]
        rows = self._matrix_rows(monkeypatch)
        r = find_form(seqs, 2, "none")
        assert rows == [7] and r.certificate.bound == 10
        assert r.coefficients == {(2, 0): 2, (1, 1): -1}

    def test_serialization_shape(self):
        r = find_form(
            [RationalGF((1,), (1, -3, 1)), RationalGF((0, 1), (1, -3, 1))],
            2,
            "constant",
        )
        data = r.to_json()
        assert data == {
            "degree": 2,
            "coeffs": [[[2, 0], 1], [[1, 1], -3], [[0, 2], 1]],
            "C": 1,
            "target": "constant",
        }
