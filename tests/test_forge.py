import random

import pytest

from cubeforge import (
    Certificate,
    CubicTheorem,
    RationalGF,
    certify_theorem,
    forge,
    parse_theorem,
    render,
    theorem_from_json,
    theorem_to_json,
)
from cubeforge.errors import EmptySeedSet, MalformedTheorem


def make_theorem(a, b, c, kind, gfs, depth=0):
    return CubicTheorem(
        a=a,
        b=b,
        c=c,
        rhs_kind=kind,
        gf_a=gfs[0],
        gf_b=gfs[1],
        gf_c=gfs[2],
        certificate=Certificate(bound=depth),
        provenance={},
    )


class TestCertifyTheorem:
    def test_alternating_classic(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple)
        cert = certify_theorem(thm)
        assert cert.certified and cert.bound == 22

    def test_constant_6859(self, constant_triple_6859):
        gf_a, gf_b, gf_c = constant_triple_6859
        # weights (1, 2, 2): the paired sequences carry weight 2
        thm = make_theorem(2, 1, 6859, "constant", (gf_b, gf_c, gf_a))
        cert = certify_theorem(thm)
        assert cert.certified and cert.bound == 22

    def test_mutated_numerator_refuted(self, alternating_triple):
        broken = (
            RationalGF((2, 53, 9), (1, -82, -82, 1)),
            alternating_triple[1],
            alternating_triple[2],
        )
        thm = make_theorem(1, -1, 1, "alternating", broken)
        cert = certify_theorem(thm)
        assert not cert.certified and cert.witness == 0


class TestSerialization:
    def test_round_trip(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple, depth=22)
        assert parse_theorem(render(thm, "json")) == thm

    def test_schema_fields(self, alternating_triple):
        thm = make_theorem(1, -1, 1, "alternating", alternating_triple, depth=22)
        data = theorem_to_json(thm)
        assert set(data) == {
            "a",
            "b",
            "c",
            "rhs_kind",
            "gfs",
            "certified_depth",
            "provenance",
        }
        assert data["gfs"][0] == {"num": [1, 53, 9], "den": [1, -82, -82, 1]}

    def test_malformed_rejected(self):
        with pytest.raises(MalformedTheorem):
            theorem_from_json({"a": 1, "b": 1, "c": 0, "rhs_kind": "constant", "gfs": []})
        with pytest.raises(MalformedTheorem):
            theorem_from_json(
                {
                    "a": 1,
                    "b": 1,
                    "c": 1,
                    "rhs_kind": "constant",
                    "gfs": [
                        {"num": [1], "den": [0, 1]},
                        {"num": [1], "den": [1]},
                        {"num": [1], "den": [1]},
                    ],
                }
            )

    def test_input_depth_is_not_trusted(self):
        # 1 + 1 + 1 = 5 is false at n = 0, whatever depth the input claims
        ones = {"num": [1], "den": [1, -1]}
        data = {"a": 1, "b": 1, "c": 5, "rhs_kind": "constant", "gfs": [ones] * 3,
                "certified_depth": 7}
        thm = theorem_from_json(data)
        assert thm.certificate.certified is False
        assert thm.certificate.witness == 0
        text = render(thm, "text")
        assert text.startswith("Refuted:")
        assert "for all n" not in text and "certified by checking" not in text
        assert text.endswith("fails at n = 0")
        latex = render(thm, "latex")
        assert r"&\ne 5 \quad (n = 0)" in latex
        assert latex.endswith("Refuted: the identity fails at $n = 0$.")

    @pytest.mark.parametrize("value", [1.9, "1", "1/3", True, None])
    @pytest.mark.parametrize("where", ["a", "num"])
    def test_non_integer_rejected(self, value, where):
        # with a = 1.9 read as 1, 1 + 1 + 1 = 3 would be certified
        ones = {"num": [1], "den": [1, -1]}
        data = {"a": 1, "b": 1, "c": 3, "rhs_kind": "constant", "gfs": [ones] * 3}
        if where == "a":
            data["a"] = value
        else:
            data["gfs"] = [{"num": [value], "den": [1, -1]}, ones, ones]
        with pytest.raises(MalformedTheorem):
            theorem_from_json(data)

    def test_render_text_contains_constant(self, constant_triple_6859):
        gf_a, gf_b, gf_c = constant_triple_6859
        thm = make_theorem(2, 1, 6859, "constant", (gf_b, gf_c, gf_a), depth=22)
        text = render(thm, "text")
        assert "= 6859" in text
        assert text.startswith("Theorem:") and "then for all n >= 0" in text
        assert text.endswith(f"(certified by checking n = 0 .. {thm.certificate.bound - 1})")
        latex = render(thm, "latex")
        assert r"\frac" in latex
        assert r"&= 6859 \quad (n \ge 0)" in latex
        assert latex.endswith(f"Certified by checking $n = 0, \\dots, {thm.certificate.bound - 1}$.")


class TestForge:
    def test_empty_seed_set(self):
        with pytest.raises(EmptySeedSet):
            forge(1, 1, search_bound=2)

    def test_taxicab_weights_emit(self):
        theorems = forge(1, -1)
        assert theorems
        for thm in theorems:
            assert thm.c != 0
            assert thm.rhs_kind in ("constant", "alternating")
            assert certify_theorem(thm).certified
            # weight bookkeeping: c = -w_j * e^3 up to the sign normalization
            e = thm.provenance["orbit"]["target"]
            w = thm.provenance["solved_weight"]
            assert abs(thm.c) == abs(w * e**3)
            if thm.rhs_kind == "alternating":
                assert thm.provenance["orbit"]["kind"] == "alternating"

    def test_equal_weights_emit(self):
        theorems = forge(1, 1)
        assert theorems
        assert all(certify_theorem(t).certified for t in theorems)

    def test_deterministic(self):
        assert forge(1, 1) == forge(1, 1)

    def test_spot_checks_beyond_depth(self):
        rng = random.Random(7)
        for thm in forge(1, -1)[:2]:
            cert = certify_theorem(thm)
            depth = 10 * cert.bound
            seqs = thm.sequences(depth)
            for _ in range(10):
                n = rng.randint(cert.bound, depth - 1)
                rhs = thm.c * (
                    -1 if (thm.rhs_kind == "alternating" and n % 2) else 1
                )
                lhs = (
                    thm.a * seqs[0][n] ** 3
                    + thm.a * seqs[1][n] ** 3
                    + thm.b * seqs[2][n] ** 3
                )
                assert lhs == rhs

    def test_max_theorems_cap_is_canonical_prefix(self):
        full = forge(1, 1)
        assert forge(1, 1, max_theorems=1) == full[:1]

    def test_extra_seed_accepted(self):
        from cubeforge import WeightedQuadruple

        extra = WeightedQuadruple(1, -1, 9, 10, 12, 1)
        theorems = forge(1, -1, extra_seeds=[extra])
        assert all(certify_theorem(t).certified for t in theorems)

    def test_sequences_never_identically_zero(self):
        for thm in forge(1, 1):
            for seq in thm.sequences(12):
                assert any(v != 0 for v in seq)
