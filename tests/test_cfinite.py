import random
from fractions import Fraction

import pytest

from cubeforge import (
    MultiPoly,
    RationalGF,
    certify_zero,
    guess_recurrence,
    seq_from_terms,
    taylor_coefficients,
)
from cubeforge.cfinite import joint_guess_recurrence
from cubeforge.errors import (
    GuessFailed,
    NonIntegralGF,
    PoleAtOrigin,
    UnboundSymbol,
)


def var(name):
    return MultiPoly.variable(name)


class TestRationalGF:
    def test_normalization(self):
        g = RationalGF((2, 2), (2, -2))
        assert g.num == (1, 1) and g.den == (1, -1)

    def test_polynomial_gcd_reduced(self):
        # (1+t)(1-t) / (1-t) = 1+t
        g = RationalGF((1, 0, -1), (1, -1))
        assert g.num == (1, 1) and g.den == (1,)

    def test_pole_rejected(self):
        with pytest.raises(PoleAtOrigin):
            RationalGF((1,), (0, 1))

    def test_json_round_trip(self):
        g = RationalGF((1, 53, 9), (1, -82, -82, 1))
        assert RationalGF.from_json(g.to_json()) == g


class TestTaylor:
    def test_geometric(self):
        assert taylor_coefficients(RationalGF((1,), (1, -1)), 5) == [1, 1, 1, 1, 1]

    def test_degree_three_denominator(self):
        g = RationalGF((1, 53, 9), (1, -82, -82, 1))
        assert taylor_coefficients(g, 3) == [1, 135, 11161]

    def test_rational_values(self):
        # 1/(2 - t) has coefficients 1/2^(n+1)
        g = RationalGF((1,), (2, -1))
        assert taylor_coefficients(g, 3) == [
            Fraction(1, 2),
            Fraction(1, 4),
            Fraction(1, 8),
        ]


class TestGuess:
    def test_order_two(self):
        assert guess_recurrence([0, 1, 9, 82, 747, 6805], 3) == [9, 1]

    def test_constant(self):
        assert guess_recurrence([1, 1, 1, 1, 1, 1], 2) == [1]

    def test_no_fit(self):
        # hand-check: order 1 forces e=2 then fails at 9; order 2 forces
        # 4 = 2 e1 + e2 and 9 = 4 e1 + 2 e2, but 9 != 2 * 4
        assert guess_recurrence([1, 2, 4, 9, 17, 35, 60], 2) is None

    def test_margin_rule(self):
        # five terms are not enough for order 2 (2r+2 = 6)
        assert guess_recurrence([0, 1, 9, 82, 747], 3) is None

    def test_minimality(self):
        rng = random.Random(3)
        for _ in range(40):
            r = rng.randint(1, 3)
            coeffs = [rng.randint(-3, 3) for _ in range(r)]
            coeffs[-1] = coeffs[-1] or 1
            seq = [rng.randint(-5, 5) for _ in range(r)]
            while len(seq) < 2 * 4 + 2:
                seq.append(sum(c * seq[-1 - i] for i, c in enumerate(coeffs)))
            guessed = guess_recurrence(seq, 4)
            assert guessed is not None and len(guessed) <= r


class TestJointGuess:
    FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_pooled_margin(self):
        # order r needs r + 2 equations pooled over all the sequences
        assert joint_guess_recurrence([[1, 2], [3, 6]], 2) is None
        assert joint_guess_recurrence([[1, 2], [3, 6, 12]], 2) == [2]
        assert joint_guess_recurrence([[0, 1, 1, 2], [2, 3, 5]], 3) is None
        assert joint_guess_recurrence([[0, 1, 1, 2], [2, 3, 5, 8]], 3) == [1, 1]

    def test_shortest_sequence_limits_order(self):
        # a sequence with fewer than r terms stops the search at order r,
        # even when the others alone give enough equations
        assert joint_guess_recurrence([[5], self.FIB], 3) is None
        assert joint_guess_recurrence([[5, 8], self.FIB], 3) == [1, 1]


class TestSeqFromTerms:
    def test_recurrence_reconstruction(self):
        g = seq_from_terms([0, 1, 9, 82, 747], 3)
        assert g == RationalGF((0, 1), (1, -9, -1))

    def test_constant_sequence(self):
        assert seq_from_terms([1, 1, 1, 1], 2) == RationalGF((1,), (1, -1))

    def test_margin_rule(self):
        # four terms are not enough for order 2 (2r+1 = 5); five are, see
        # test_recurrence_reconstruction
        with pytest.raises(GuessFailed):
            seq_from_terms([0, 1, 9, 82], 3)

    def test_insufficient_data(self):
        with pytest.raises(GuessFailed):
            seq_from_terms([1], 3)

    def test_non_integer_recurrence(self):
        # s(n+1) = (3/2) s(n) on integers: 4, 6, 9 ... stays integral long
        # enough to guess but reconstructs a non-integer denominator
        seq = [4 * 3**i * 2 ** (6 - i) for i in range(7)]
        with pytest.raises(NonIntegralGF):
            seq_from_terms(seq, 1)

    def test_round_trip_random(self):
        rng = random.Random(29)
        done = 0
        while done < 100:
            den = (1,) + tuple(rng.randint(-9, 9) for _ in range(4))
            num = tuple(rng.randint(-9, 9) for _ in range(4))
            if not any(num):
                continue
            g = RationalGF(num, den)
            terms = taylor_coefficients(g, 2 * 4 + 4)
            rebuilt = seq_from_terms(terms, 4)
            assert taylor_coefficients(rebuilt, 30) == taylor_coefficients(g, 30)
            done += 1


class TestCertifyZero:
    def test_alternating_cubic_identity(self, alternating_triple):
        gf_a, gf_b, gf_c = alternating_triple
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3 - var("s")
        cert = certify_zero(
            expr, {"A": gf_a, "B": gf_b, "C": gf_c}, sign_symbol="s"
        )
        assert cert.certified
        assert cert.bound == 22

    def test_identically_zero(self, alternating_triple):
        expr = var("A") - var("A")
        cert = certify_zero(expr, {"A": alternating_triple[0]})
        assert cert.certified

    def test_missing_sign_refuted(self, alternating_triple):
        gf_a, gf_b, gf_c = alternating_triple
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3
        cert = certify_zero(expr, {"A": gf_a, "B": gf_b, "C": gf_c})
        assert not cert.certified
        assert cert.witness == 0

    def test_sign_symbol_only_linear(self):
        # with m = 2^n, (s - 1)(m - 2)(m - 8)(m - 32) vanishes at n = 0..6:
        # s - 1 is zero at even n and m hits a root at n = 1, 3, 5.  That is
        # the whole depth 7 for r = 1, D = 4, yet the value at n = 7 is not 0
        m, s = var("m"), var("s")
        expr = (s - 1) * (m - 2) * (m - 8) * (m - 32)
        assert expr.evaluate({"m": 2**7, "s": -1}) == -2903040
        with pytest.raises(ValueError):
            certify_zero(expr, {"m": RationalGF((1,), (1, -2))}, sign_symbol="s")

    def test_improper_gf_refuted(self):
        # x^50/1 is 1 at n = 50 only; its recurrence (order 0) holds from
        # the preperiod s = 51 on, so the depth is 51 + C(0+1, 1) + 2
        cert = certify_zero(var("X"), {"X": RationalGF((0,) * 50 + (1,), (1,))})
        assert cert.bound == 54
        assert cert.witness == 50

    def test_preperiod_at_the_bound(self):
        # a(n) = 1 for n <= s and 2^(n-s) after: num = 1 - t - ... - t^s over
        # 1 - 2t, preperiod s.  X - 1 is zero at n = 0..s and first nonzero at
        # n = s + 1 = s + C(r+D, D) - 1 (r = D = 1), the last index at which
        # the proof allows a first failure; without s the depth would be 4
        s = 10
        g = RationalGF((1,) + (-1,) * s, (1, -2))
        assert taylor_coefficients(g, s + 3) == [1] * (s + 1) + [2, 4]
        cert = certify_zero(var("X") - 1, {"X": g})
        assert cert.bound == s + 2 + 2
        assert cert.witness == s + 1

    def test_refutation_stops_at_the_witness(self, monkeypatch):
        import cubeforge.cfinite as cf

        expanded = []
        series = cf.taylor_series

        def counting(g):
            for value in series(g):
                expanded.append(value)
                yield value

        monkeypatch.setattr(cf, "taylor_series", counting)
        # 1/(1-t)^10 is C(n+9, 9): X^2 - 55 first fails at n = 0, depth
        # C(10+2, 2) + 2
        den = (1, -10, 45, -120, 210, -252, 210, -120, 45, -10, 1)
        cert = certify_zero(var("X") ** 2 - 55, {"X": RationalGF((1,), den)})
        assert (cert.bound, cert.witness) == (68, 0)
        assert len(expanded) == 1

    def test_unbound_symbol(self, alternating_triple):
        with pytest.raises(UnboundSymbol):
            certify_zero(var("A") + var("Q"), {"A": alternating_triple[0]})

    def test_soundness_beyond_bound(self, alternating_triple):
        gf_a, gf_b, gf_c = alternating_triple
        expr = var("A") ** 3 + var("B") ** 3 - var("C") ** 3 - var("s")
        cert = certify_zero(expr, {"A": gf_a, "B": gf_b, "C": gf_c}, sign_symbol="s")
        assert cert.certified
        rng = random.Random(59)
        depth = 40 * cert.bound
        seq_a = taylor_coefficients(gf_a, depth)
        seq_b = taylor_coefficients(gf_b, depth)
        seq_c = taylor_coefficients(gf_c, depth)
        for _ in range(10):
            n = rng.randint(cert.bound, depth - 1)
            assert seq_a[n] ** 3 + seq_b[n] ** 3 - seq_c[n] ** 3 == (-1) ** n
