import importlib
import json
import os
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from cubeforge import Certificate, MultiPoly, certify_theorem, theorem_from_json
from cubeforge import cfinite, cli, kernel, quadform
from cubeforge.cli import main
from cubeforge.errors import MalformedTheorem, ParseError
from cubeforge.parsing import MAX_NESTING, parse_poly


class TestParsePoly:
    def test_form_transcription(self):
        p = parse_poly("m^2 - 9*m*n - n^2", ("m", "n"))
        assert p == MultiPoly(("m", "n"), {(2, 0): 1, (1, 1): -9, (0, 2): -1})

    def test_parenthesized_negation(self):
        p = parse_poly("-(A^2) + 9*A*B + B^2", ("A", "B"))
        assert p == MultiPoly(("A", "B"), {(2, 0): -1, (1, 1): 9, (0, 2): 1})

    def test_double_plus_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("m++n", ("m", "n"))
        assert info.value.position == 3

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2m", ("m",))

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("m^n", ("m", "n"))

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("m + q", ("m", "n"))

    def test_print_parse_identity(self):
        texts = [
            "m^2 - 9*m*n - n^2",
            "-80*x^3 - 360*x^2*y + 36*x^2*z + 191*y^3",
            "42",
            "0",
            "-m",
        ]
        for text in texts:
            variables = ("m", "n", "x", "y", "z")
            p = parse_poly(text, variables)
            assert parse_poly(str(p), variables) == p

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", ""), ("-(", ")")])
    def test_nesting_cap(self, opener, closer):
        # MAX_NESTING levels of parentheses and unary minus parse; the opener
        # of one more is refused before the recursion nears Python's limit
        k = MAX_NESTING // len(opener)
        assert parse_poly(opener * k + "m" + closer * k, ("m",)) == parse_poly("m", ("m",))
        with pytest.raises(ParseError) as info:
            parse_poly(opener * (k + 1) + "m" + closer * (k + 1), ("m",))
        assert info.value.position == MAX_NESTING + 1
        assert f"nesting exceeds the depth cap {MAX_NESTING}" in str(info.value)


class TestCliExitCodes:
    def test_pell_success(self, capsys):
        assert main(["pell", "--form", "m^2 - 2*n^2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gf_m"]["den"] == [1, -6, 1]
        assert payload["target"] == 1 and payload["kind"] == "constant"

    def test_pell_definite_is_input_error(self, capsys):
        assert main(["pell", "--form", "m^2 + n^2"]) == 2

    def test_parse_error(self, capsys):
        assert main(["pell", "--form", "m++n"]) == 2
        assert "position 3" in capsys.readouterr().err

    def test_forge_empty_seeds(self, capsys):
        assert main(["forge", "--a", "1", "--b", "1", "--search-bound", "2"]) == 1
        assert "EmptySeedSet" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["pell", "--nope", "1"]) == 2

    @pytest.mark.parametrize(
        "command, option, cap",
        [
            (["pell", "--form", "m^2 - 2*n^2"], "--bound", cli.MAX_PELL_BOUND),
            (["pell", "--form", "m^2 - 2*n^2"], "--target-cap", cli.MAX_TARGET_CAP),
            (["forge", "--a", "1", "--b", "1"], "--search-bound", cli.MAX_SEARCH_BOUND),
            (["forge", "--a", "1", "--b", "1"], "--target-cap", cli.MAX_TARGET_CAP),
        ],
    )
    def test_work_option_over_cap(self, capsys, command, option, cap):
        assert main(command + [option, str(cap + 1)]) == 2
        assert f"{option} {cap + 1} exceeds the cap {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["forge", "--a", "1", "--b", "-1", "--max-theorems", "0"], "max_theorems"),
            (["forge", "--a", "1", "--b", "-1", "--max-theorems", "-1"], "max_theorems"),
            (["forge", "--a", "1", "--b", "-1", "--target-cap", "0"], "target_cap"),
            (["pell", "--form", "m^2-2*n^2", "--target-cap", "0"], "target_cap"),
            (["pell", "--form", "m^2-2*n^2", "--target-cap", "-5"], "target_cap"),
        ],
    )
    def test_work_option_below_one(self, capsys, argv, message):
        assert main(argv) == 2
        assert f"ValueError: {message} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["findform", "--degree", "2", "--gf", "1,2", "--gf", "0,1;1,-3,1"],
             "ValueError: generating function must be 'num;den'"),
            (["pell", "--form", "m$n"], "ParseError: unexpected character '$'"),
            (["pell", "--form", "(m+n"], "ParseError: expected ')'"),
            (["twist", "--matrix", "1,0;0,1"], "ValueError: substitution matrix must be 3x3"),
            (["forge", "--a", "0", "--b", "1"], "ValueError: weights must be nonzero"),
        ],
    )
    def test_malformed_argument_refused(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["forge", "--a", "1", "--b", "-1", "--guess-order", "4"],
            ["pell", "--form", "m^2-2*n^2", "--guess-order", "4"],
        ],
    )
    def test_guess_order_is_not_an_option(self, capsys, argv):
        # the orbit read-off always tries p = 1 and 2: the option is refused,
        # not accepted and ignored
        assert main(argv) == 2
        assert "unrecognized arguments: --guess-order 4" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--x", "--y", "--z"])
    def test_eliminate_degree_over_cap(self, capsys, option):
        cap = cli.MAX_ELIMINATE_DEGREE
        argv = {"--x": "m^3 + n", "--y": "m*n^2 - 1", "--z": "m + n^3"}
        argv[option] = f"m*n^{cap} - 1"
        assert main(["eliminate", *(w for item in argv.items() for w in item)]) == 2
        err = capsys.readouterr().err
        # refused at the "*", before the product is expanded
        assert f"product of total degree {cap + 1} exceeds the degree cap {cap} at position 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["twist", "--matrix", "1,1,0;0,1,1;1,0,1", "--base", "x^3000"],
            ["pell", "--form", "(m+n+1)^400"],
            ["eliminate", "--x", "(m+n+1)^300", "--y", "m", "--z", "n"],
            ["pell", "--form", "m^2 - 2^10000000*n^2"],
            ["pell", "--form", "(m+n)^3000"],
            # nested squares of a constant: 9^(2^28) has 2^28 * log10(9) digits
            ["pell", "--form", "m^2 - " + "(" * 28 + "9" + "^2)" * 28 + "*n^2"],
        ],
    )
    def test_polynomial_over_degree_cap_refused_in_time(self, capsys, argv):
        # parse_poly refuses the power at its "^" before expanding it
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("ParseError: ") and "exceeds the degree cap" in err
        assert len(err) < 200

    def test_twist_base_at_degree_cap(self, capsys):
        cap = cli.MAX_TWIST_DEGREE
        assert main(["twist", "--matrix", "1,0,0;0,1,0;0,0,1", "--base", f"x^{cap}"]) == 0
        assert capsys.readouterr().out.strip() == f"x^{cap}"
        assert main(["twist", "--matrix", "1,0,0;0,1,0;0,0,1", "--base", f"x^{cap}*y"]) == 2

    @pytest.mark.parametrize(
        "argv, implicit",
        [
            (["--x", "m^3 + n", "--y", "m", "--z", "n"], "-y^3 + x - z"),
            (["--x", "m", "--y", "n^3 - m*n", "--z", "n"], "z^3 - x*z - y"),
            (["--x", "m", "--y", "n", "--z", "m*n^2 + 1"], "x*y^2 - z + 1"),
        ],
    )
    def test_eliminate_degree_at_cap(self, capsys, argv, implicit):
        assert cli.MAX_ELIMINATE_DEGREE == 3
        assert main(["eliminate", *argv]) == 0
        assert capsys.readouterr().out.strip() == implicit

    @pytest.mark.parametrize(
        "form",
        ["(" * 260 + "m^2-2*n^2" + ")" * 260, "-" * 2000 + "m^2-2*n^2"],
        ids=["parentheses", "unary-minus"],
    )
    def test_deeply_nested_form_is_input_error(self, capsys, form):
        assert main(["pell", f"--form={form}"]) == 2
        assert "nesting exceeds the depth cap" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [1100, 100_000])
    @pytest.mark.parametrize(
        "argv",
        [["verify", "--file"], ["forge", "--a", "1", "--b", "1", "--seed-file"]],
        ids=["verify", "seed-file"],
    )
    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys, argv, depth):
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        if depth == 100_000:
            assert err.strip() == "ValueError: the JSON nests too deeply to be read"

    def test_pell_bound_at_cap(self, capsys):
        assert main(["pell", "--form", "m^2 - 2*n^2", "--bound", str(cli.MAX_PELL_BOUND)]) == 0

    def test_pell_huge_regulator(self, capsys):
        # a cycle of reduced forms far too long to walk, and a unit with
        # tens of thousands of digits: only the window near the box is read
        assert main(["pell", "--form", "m^2 - 1000000000039*n^2"]) == 1
        assert "NoOrbitFound" in capsys.readouterr().err

    def test_pell_refusal_text(self, capsys):
        assert main(["pell", "--form", "m^2+13*m*n+11*n^2", "--target-cap", "15"]) == 1
        assert capsys.readouterr().err == (
            "NoOrbitFound: no certified orbit for m^2 + 13*m*n + 11*n^2 with |target| <= 15, "
            "enumeration bound 2000\n"
        )
        assert main(["pell", "--form", "m^2+n^2"]) == 2
        assert capsys.readouterr().err == (
            "DefiniteForm: m^2 + n^2 has negative discriminant -4; "
            "every target admits only finitely many solutions\n"
        )


class TestForgeInvariants:
    """A vanishing value sequence or a refuted forged theorem is an internal
    error (exit 3), never a silently dropped branch."""

    @pytest.mark.parametrize(
        "name, replacement",
        [
            ("_value_gfs", lambda *args: None),
            ("certify_theorem", lambda thm: Certificate(bound=22, witness=3)),
        ],
    )
    def test_violation_exits_3(self, monkeypatch, capsys, name, replacement):
        # the package's ``forge`` attribute is the function, not the module
        monkeypatch.setattr(importlib.import_module("cubeforge.forge"), name, replacement)
        assert main(["forge", "--a", "1", "--b", "-1"]) == 3
        assert "internal invariant violated" in capsys.readouterr().err


class TestCertificateInvariants:
    """Certificates that a proof in the docstring says cannot refute: a
    refutation is an internal error (exit 3), not a clean no-result."""

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("cubeforge.quadform", ["pell", "--form", "m^2-2*n^2"]),
            ("cubeforge.concoct",
             ["findform", "--degree", "2", "--gf", "1;1,-3,1", "--gf", "0,1;1,-3,1"]),
        ],
    )
    def test_refutation_exits_3(self, monkeypatch, capsys, module, argv):
        refute = lambda expr, seqs: Certificate(bound=8, witness=3)
        monkeypatch.setattr(importlib.import_module(module), "certify_zero", refute)
        assert main(argv) == 3
        assert "internal invariant violated" in capsys.readouterr().err


class TestCliCommands:
    def test_eliminate_pythagorean(self, capsys):
        from cubeforge import divides

        assert (
            main(
                [
                    "eliminate",
                    "--x",
                    "m^2 - n^2",
                    "--y",
                    "2*m*n",
                    "--z",
                    "m^2 + n^2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip()
        s = parse_poly(out, ("x", "y", "z"))
        assert divides(parse_poly("x^2 + y^2 - z^2", ("x", "y", "z")), s)

    def test_twist_default_base(self, capsys):
        assert main(["twist", "--matrix", "6,7,-9;6,-5,4;-8,-3,3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("-80*x^3")

    def test_findform(self, capsys):
        code = main(
            [
                "findform",
                "--degree",
                "2",
                "--target",
                "constant",
                "--gf",
                "1;1,-3,1",
                "--gf",
                "0,1;1,-3,1",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["C"] == 1 and data["degree"] == 2

    def test_findform_no_target(self, capsys):
        code = main(
            [
                "findform",
                "--degree",
                "2",
                "--target",
                "constant",
                "--gf",
                "1;1,-3,1",
                "--gf",
                "1;1,-3,1",
            ]
        )
        assert code == 1

    def test_verify_certified(self, tmp_path, capsys):
        theorem = self._forged_theorem(certified_depth=22, provenance={})
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        assert main(["verify", "--file", str(path)]) == 0
        # r = 3: C(5, 3) for the cubes and 1 for the sign term; the input
        # depth is ignored
        assert capsys.readouterr().out.strip() == "certified, depth 11"

    def test_verify_refuted(self, tmp_path, capsys):
        theorem = {
            "a": 1,
            "b": -1,
            "c": 5,
            "rhs_kind": "constant",
            "gfs": [
                {"num": [1], "den": [1, -1]},
                {"num": [1], "den": [1, -1]},
                {"num": [1], "den": [1, -1]},
            ],
            "certified_depth": 0,
            "provenance": {},
        }
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        assert main(["verify", "--file", str(path)]) == 1
        assert "refuted at n=0" in capsys.readouterr().err

    def test_verify_malformed(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"a": 1}')
        assert main(["verify", "--file", str(path)]) == 2

    @pytest.mark.parametrize("a, b", [(0, -1), (1, 0)])
    def test_verify_zero_weight(self, tmp_path, capsys, a, b):
        theorem = {
            "a": a,
            "b": b,
            "c": 1,
            "rhs_kind": "constant",
            "gfs": [{"num": [1], "den": [1, -1]}] * 3,
        }
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        assert main(["verify", "--file", str(path)]) == 2
        assert "weights must be nonzero" in capsys.readouterr().err

    @staticmethod
    def _power_theorem(orders):
        # sum_n C(n+k-1, k-1) t^n = 1/(1-t)^k: the lcm has degree max(orders)
        dens = []
        for k in orders:
            den = [1]
            for _ in range(k):
                den = [x - y for x, y in zip(den + [0], [0] + den)]
            dens.append(den)
        return {
            "a": 1,
            "b": 1,
            "c": 1,
            "rhs_kind": "constant",
            "gfs": [{"num": [1], "den": den} for den in dens],
        }

    @pytest.mark.parametrize("orders", [(200, 1, 1), (11, 10, 10)])
    def test_verify_order_over_cap(self, tmp_path, capsys, orders):
        # at r = 200 the depth would be C(202, 3) + 1 = 1353401
        assert sum(orders) > cfinite.MAX_VERIFY_ORDER
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(self._power_theorem(orders)))
        assert main(["verify", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"sum to {sum(orders)}, which exceeds the cap {cfinite.MAX_VERIFY_ORDER}" in err

    def test_verify_order_at_cap(self, tmp_path, capsys):
        orders = (10, 10, 10)
        assert sum(orders) == cfinite.MAX_VERIFY_ORDER
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(self._power_theorem(orders)))
        assert main(["verify", "--file", str(path)]) == 1
        # r = 10: C(12, 3) + 1
        assert "refuted at n=0 (checked depth 221)" in capsys.readouterr().err

    @staticmethod
    def _forged_theorem(**changes):
        # forge(1, -1)'s alternating theorem with c = 1
        theorem = {
            "a": 1,
            "b": -1,
            "c": 1,
            "rhs_kind": "alternating",
            "gfs": [
                {"num": [1, 53, 9], "den": [1, -82, -82, 1]},
                {"num": [2, -26, -12], "den": [1, -82, -82, 1]},
                {"num": [2, 8, -10], "den": [1, -82, -82, 1]},
            ],
        }
        return {**theorem, **changes}

    @staticmethod
    def _improper_theorem(k):
        # A = t^k (1 at n = k only), B = 2, C = -1: A^3 + B^3 + C^3 = 7 but
        # at n = k, where it is 8
        return {
            "a": 1,
            "b": 1,
            "c": 7,
            "rhs_kind": "constant",
            "gfs": [
                {"num": [0] * k + [1], "den": [1]},
                {"num": [2], "den": [1, -1]},
                {"num": [-1], "den": [1, -1]},
            ],
        }

    @pytest.mark.parametrize("k", [20, cfinite.MAX_NUMERATOR_LENGTH - 1])
    def test_verify_improper_gf_refuted(self, tmp_path, capsys, k):
        # depth s + C(1+2, 3) + 1 with preperiod s = k + 1; k + 1 coefficients
        # is at the numerator cap for the second case
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(self._improper_theorem(k)))
        assert main(["verify", "--file", str(path)]) == 1
        assert f"refuted at n={k} (checked depth {k + 3})" in capsys.readouterr().err

    def test_verify_numerator_over_cap(self, tmp_path, capsys):
        cap = cfinite.MAX_NUMERATOR_LENGTH
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(self._improper_theorem(cap)))
        assert main(["verify", "--file", str(path)]) == 2
        assert f"has {cap + 1} coefficients, which exceeds the cap {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("length, code", [(31, 0), (32, 2)])
    def test_findform_numerator_cap(self, capsys, length, code):
        assert length in (cfinite.MAX_NUMERATOR_LENGTH, cfinite.MAX_NUMERATOR_LENGTH + 1)
        # t^(length-1) and 1/(1-t): X2^2 = 1 is the form found under the cap
        num = ",".join(["0"] * (length - 1) + ["1"])
        argv = ["findform", "--degree", "2", "--gf", f"{num};1", "--gf", "1;1,-1"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("exceeds the cap" in err) == (code == 2)

    @staticmethod
    def _binomial_den(k):
        # (1-t)^k, ascending
        den = [1]
        for _ in range(k):
            den = [x - y for x, y in zip(den + [0], [0] + den)]
        return den

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_verify_raw_denominator_orders_cap(self, tmp_path, capsys, extra, code):
        # A = (1-t)^2/(1-t)^(15+extra) and B = -(1-t)/(1-t)^14 are +-1/(1-t)^13
        # once reduced, C = 1/(1-t): A^3 + B^3 + C^3 = 1.  The raw orders
        # 15 + extra, 14 and 1 sum to the cap or one over it.
        theorem = {
            "a": 1,
            "b": 1,
            "c": 1,
            "rhs_kind": "constant",
            "gfs": [
                {"num": self._binomial_den(2), "den": self._binomial_den(15 + extra)},
                {"num": [-1, 1], "den": self._binomial_den(14)},
                {"num": [1], "den": [1, -1]},
            ],
        }
        assert 15 + extra + 14 + 1 == cfinite.MAX_VERIFY_ORDER + extra
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        assert main(["verify", "--file", str(path)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert f"sum to {cfinite.MAX_VERIFY_ORDER + 1}, which exceeds the cap" in captured.err
        else:
            assert captured.out.startswith("certified")

    def test_verify_long_denominators_refused_before_reduction(self, tmp_path, capsys):
        # three 3000-entry denominators are refused on their raw lengths,
        # before RationalGF reduces them
        theorem = {
            "a": 1,
            "b": 1,
            "c": 1,
            "rhs_kind": "constant",
            "gfs": [{"num": [1] * 31, "den": [1] + [(i % 9) - 4 for i in range(2999)]}] * 3,
        }
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        assert main(["verify", "--file", str(path)]) == 2
        assert "denominator orders sum to 8997" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_findform_orders_cap(self, capsys, extra, code):
        # 1/(1-t)^(29+extra) and 1/(1-t): X2^2 = 1 is the form found under
        # the cap, certified at depth C(30+2, 2) + 2 = 498
        den = ",".join(map(str, self._binomial_den(29 + extra)))
        argv = ["findform", "--degree", "2", "--gf", f"1;{den}", "--gf", "1;1,-1"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert f"sum to {cfinite.MAX_VERIFY_ORDER + 1}, which exceeds the cap" in err
        else:
            assert json.loads(out)["coeffs"] == [[[0, 2], 1]]

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_findform_degree_cap(self, capsys, extra, code):
        # a cubic form constant along three sequences of order 3 (a job of
        # the certify benchmark)
        degree = cli.MAX_FINDFORM_DEGREE + extra
        argv = ["findform", "--degree", str(degree), "--target", "constant",
                "--gf", "0,-2,3;1,2,-3,-1", "--gf", "0,3,4;1,2,-3,-1",
                "--gf", "1,-4,2;1,2,-3,-1"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert (f"--degree {degree} exceeds the cap" in err) == (code == 2)

    @pytest.mark.parametrize("extra, code", [(0, 1), (1, 2)])
    def test_findform_sequences_cap(self, capsys, extra, code):
        # 1/(1-k t) for k = 2, 3, ...: at the cap every cubic relation among
        # them is homogeneous (X2 X3 = X6), so no constant form exists
        count = cli.MAX_FINDFORM_SEQUENCES + extra
        argv = ["findform", "--degree", "3"]
        for k in range(2, 2 + count):
            argv += ["--gf", f"1;1,-{k}"]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 2:
            assert f"{count} --gf sequences exceed the cap {cli.MAX_FINDFORM_SEQUENCES}" in err
        else:
            assert "NoTargetedForm" in err

    @pytest.mark.parametrize("value", ["1/3", "1.5", "True"])
    def test_findform_non_integer_coefficient(self, capsys, value):
        assert main(["findform", "--degree", "2", "--gf", f"{value};1,-1", "--gf", "1;1,-1"]) == 2

    @staticmethod
    def _cancelling_theorem(coefficient, where):
        # A = -B, C = 1: A^3 + B^3 + C^3 = 1 for any A; the coefficient sits
        # in A's numerator (A = N/(1-t)) or denominator (A = 1/(1-N t))
        gf = {"num": [coefficient], "den": [1, -1]}
        if where == "den":
            gf = {"num": [1], "den": [1, -coefficient]}
        neg = {"num": [f"-{x}" if isinstance(x, str) else -x for x in gf["num"]], "den": gf["den"]}
        return {
            "a": 1,
            "b": 1,
            "c": 1,
            "rhs_kind": "constant",
            "gfs": [gf, neg, {"num": [1], "den": [1, -1]}],
        }

    # r = 1 and 2: C(3, 3) + 1 and C(4, 3) + 1
    @pytest.mark.parametrize("where, depth", [("num", 2), ("den", 5)])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_verify_coefficient_cap(self, tmp_path, capsys, where, depth, extra):
        cap = cfinite.MAX_COEFFICIENT_DIGITS
        theorem = self._cancelling_theorem(-(10 ** (cap - 1 + extra)) - 7, where)
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        code = main(["verify", "--file", str(path)])
        out, err = capsys.readouterr()
        if extra:
            assert code == 2
            assert f"a coefficient has {cap + 1} digits, which exceeds the cap {cap}" in err
        else:
            assert code == 0
            assert out.strip() == f"certified, depth {depth}"

    @pytest.mark.parametrize("where, depth", [("num", 2), ("den", 5)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_verify_coefficient_at_the_cap(self, tmp_path, capsys, where, depth, sign):
        # the cap is a magnitude: 10^60 - 1 has 60 digits and 10^60 has 61
        cap = cfinite.MAX_COEFFICIENT_DIGITS
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(self._cancelling_theorem(sign * (10**cap - 1), where)))
        assert main(["verify", "--file", str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"certified, depth {depth}"
        path.write_text(json.dumps(self._cancelling_theorem(sign * 10**cap, where)))
        assert main(["verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == (
            f"MalformedTheorem: theorem schema violation: a coefficient has {cap + 1} digits, "
            f"which exceeds the cap {cap}"
        )

    @pytest.mark.parametrize(
        "coefficient, digits",
        [("1e999999999", 10**9), ("2.5E-999999999", 10**9 - 1), (1e300, 301), ("1/3", 1)],
    )
    def test_verify_coefficient_digits_of_other_values(self, tmp_path, capsys, coefficient, digits):
        # coefficients are JSON integers only: a float or a string is refused
        # for its type, before its digits (as many as `digits` written out)
        # are counted or the number is built
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(self._cancelling_theorem(coefficient, "num")))
        code = main(["verify", "--file", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"a coefficient is a {type(coefficient).__name__}, not an integer" in err
        assert f"{digits} digits" not in err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)])
    def test_findform_coefficient_cap(self, capsys, extra, code):
        # N/(1-t) and 1/(1-t): X1 = N X2, so X1^2 - N^2 X2^2 = 0 and
        # X2^2 = 1 is the form found under the cap
        n = 10 ** (cfinite.MAX_COEFFICIENT_DIGITS - 1 + extra)
        argv = ["findform", "--degree", "2", "--gf", f"{n};1,-1", "--gf", "1;1,-1"]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("exceeds the cap" in err) == (code == 2)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_twist_coefficient_cap(self, capsys, extra):
        cap = cfinite.MAX_COEFFICIENT_DIGITS
        n = 10 ** (cap - 1 + extra) + 7
        for argv in (
            ["twist", "--matrix", f"{n},1,0;0,1,1;1,0,1"],
            ["twist", "--matrix", "1,0,0;0,1,0;0,0,1", "--base", f"x^3 + y^3 - {n}*z^3"],
        ):
            code = main(argv)
            out, err = capsys.readouterr()
            if extra:
                assert code == 2 and out == ""
                assert f"a coefficient has {cap + 1} digits, which exceeds the cap {cap}" in err
            else:
                assert code == 0 and err == "" and out.strip()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_eliminate_coefficient_cap(self, capsys, extra):
        # the literals of --x, --y and --z are held to the cap twist keeps;
        # a 60-digit literal is read, a 61-digit one refused
        cap = cfinite.MAX_COEFFICIENT_DIGITS
        n = 10 ** (cap - 1 + extra) + 7
        for texts in (
            (f"{n}*m^2 - n^2", "2*m*n", "m^2 + n^2"),
            ("m^2 - n^2", "2*m*n", f"m^2 + {n}*n^2"),
        ):
            code = main(["eliminate", "--x", texts[0], "--y", texts[1], "--z", texts[2]])
            out, err = capsys.readouterr()
            if extra:
                assert code == 2 and out == ""
                assert err.strip() == (
                    f"ValueError: a coefficient has {cap + 1} digits, which exceeds the cap {cap}"
                )
            else:
                assert code == 0 and err == "" and out.strip()

    def test_eliminate_digits_refused_before_reading(self, capsys):
        # a hundred nines, which twist refuses too, are refused before any
        # resultant is taken
        start = time.perf_counter()
        argv = ["eliminate", "--x", "9" * 100 + "*m^2 - n^2", "--y", "2*m*n", "--z", "m^2 + n^2"]
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err.strip() == (
            f"ValueError: a coefficient has 100 digits, which exceeds the cap "
            f"{cfinite.MAX_COEFFICIENT_DIGITS}"
        )

    @pytest.mark.parametrize(
        "argv, digits",
        [
            (["--matrix", "9" * 2000 + ",1,0;0,1,1;1,0,1"], 2000),
            (["--matrix", "1,1,0;0,1,1;1,0,1", "--base", f"(x+y+z+{'9' * 4000})^12"], 4000),
            (["--matrix", "1_" + "2" * 60 + ",1,0;0,1,1;1,0,1"], 61),
        ],
    )
    def test_twist_digits_refused_before_reading(self, capsys, argv, digits):
        # refused on the raw text, before any substitution and before Python's
        # own limit on int conversion is reached
        start = time.perf_counter()
        assert main(["twist", *argv]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.strip() == (
            f"ValueError: a coefficient has {digits} digits, which exceeds the cap "
            f"{cfinite.MAX_COEFFICIENT_DIGITS}"
        )

    def test_verify_empty_array(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["verify", "--file", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == "ValueError: the file holds no theorem"

    def test_forge_json_is_verifiable(self, tmp_path, capsys):
        assert main(["forge", "--a", "1", "--b", "-1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        for item in payload:
            assert certify_theorem(theorem_from_json(item)).certified
        path = tmp_path / "theorems.json"
        path.write_text(json.dumps(payload))
        assert main(["verify", "--file", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # forge records the depth that verify checks
        assert lines == [f"certified, depth {item['certified_depth']}" for item in payload]

    def test_forge_seed_file(self, tmp_path, capsys):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([[9, 10, 12, 1]]))
        code = main(
            ["forge", "--a", "1", "--b", "-1", "--seed-file", str(path)]
        )
        assert code == 0

    def test_forge_seed_file_entry_forms(self, tmp_path, capsys):
        outputs = []
        for seeds in ([[9, 10, -1, -12]], [{"coords": [9, 10, -1, -12]}]):
            path = tmp_path / "seeds.json"
            path.write_text(json.dumps(seeds))
            assert main(["forge", "--a", "1", "--b", "1", "--seed-file", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "seeds",
        [
            {"coords": [9, 10, -1, -12]},
            [5],
            [None],
            # each of these used to be read as the taxicab seed (9, 10, -1, -12)
            [[9.5, 10, -1, -12]],
            [["9", "10", "-1", "-12"]],
            [[9, 10, -1, -12.7]],
            # and this one as (1, -1, 0, 0)
            [[True, -1, 0, 0]],
            [[9, 10, -1]],
            [{"coords": [9, 10, -1, -12.0]}],
            [{"seed": [9, 10, -1, -12]}],
        ],
    )
    def test_forge_seed_file_rejected(self, tmp_path, capsys, seeds):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps(seeds))
        assert main(["forge", "--a", "1", "--b", "1", "--seed-file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ValueError: ")


class TestTheoremFromJsonCaps:
    """The library parser holds verify's caps and schema: it refuses what
    verify refuses, with the message verify prints, and accepts what is at a
    cap."""

    CASES = [
        (TestCliCommands._improper_theorem(30), None),
        (
            TestCliCommands._improper_theorem(31),
            "a numerator has 32 coefficients, which exceeds the cap 31",
        ),
        (TestCliCommands._power_theorem((10, 10, 10)), None),
        (
            TestCliCommands._power_theorem((11, 10, 10)),
            "denominator orders sum to 31, which exceeds the cap 30",
        ),
        (TestCliCommands._cancelling_theorem(-(10**59) - 7, "num"), None),
        (
            TestCliCommands._cancelling_theorem(-(10**60) - 7, "den"),
            "a coefficient has 61 digits, which exceeds the cap 60",
        ),
        (TestCliCommands._cancelling_theorem(True, "num"), "a coefficient is a bool, not an integer"),
        (TestCliCommands._cancelling_theorem(1.5, "den"), "a coefficient is a float, not an integer"),
        (TestCliCommands._cancelling_theorem("7", "num"), "a coefficient is a str, not an integer"),
        (TestCliCommands._forged_theorem(), None),
        (TestCliCommands._forged_theorem(rhs_kind="weird"), "bad rhs_kind"),
        (TestCliCommands._forged_theorem(c=0), "right-hand constant must be nonzero"),
        (
            TestCliCommands._forged_theorem(
                gfs=TestCliCommands._forged_theorem()["gfs"][:2] + [{"num": [0], "den": [1]}]
            ),
            "a sequence is identically zero",
        ),
    ]

    def test_caps(self):
        caps = (cfinite.MAX_NUMERATOR_LENGTH, cfinite.MAX_VERIFY_ORDER, cfinite.MAX_COEFFICIENT_DIGITS)
        assert caps == (31, 30, 60)

    @pytest.mark.parametrize("theorem, message", CASES)
    def test_same_verdict_as_verify(self, tmp_path, capsys, theorem, message):
        path = tmp_path / "theorem.json"
        path.write_text(json.dumps(theorem))
        code = main(["verify", "--file", str(path)])
        err = capsys.readouterr().err
        if message is None:
            assert code in (0, 1)
            assert theorem_from_json(theorem).certificate.bound > 0
        else:
            assert code == 2 and message in err
            with pytest.raises(MalformedTheorem, match=re.escape(message)):
                theorem_from_json(theorem)

    def test_over_cap_theorem_refused_at_once(self):
        # A = 1/(1-2t)^100, B = -A, C = 1/(1-t): A^3 + B^3 + C^3 = 1 at depth
        # C(104, 3) + 2.  Refused for its order sum before any reduction; with
        # exponent 60 it used to certify in 30 to 40 s (one Xeon core).
        den = [comb(100, k) * (-2) ** k for k in range(101)]
        theorem = {
            "a": 1,
            "b": 1,
            "c": 1,
            "rhs_kind": "constant",
            "gfs": [{"num": [1], "den": den}, {"num": [-1], "den": den}, {"num": [1], "den": [1, -1]}],
        }
        start = time.perf_counter()
        with pytest.raises(MalformedTheorem, match="denominator orders sum to 201, which exceeds"):
            theorem_from_json(theorem)
        assert time.perf_counter() - start < 0.5


class TestParserReuse:
    FINDFORM = ["findform", "--degree", "2", "--gf", "1;1,-3,1", "--gf", "0,1;1,-3,1"]
    BAD = ["findform", "--degree", "two", "--gf", "1;1,-1"]

    @staticmethod
    def _fresh(argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "from cubeforge.cli import entrypoint; entrypoint()", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # main() builds its parser once per process; --gf appends, so a list
        # leaking from one call into the next would change the second result
        results = []
        for argv in (self.FINDFORM, self.BAD, self.FINDFORM):
            code = main(list(argv))
            out, err = capsys.readouterr()
            results.append((code, out, err))
        assert results[1][0] == 2
        assert results[0] == results[2]
        for argv, got in zip((self.FINDFORM, self.BAD), results):
            assert got == self._fresh(argv)


class TestOneParse:
    """main parses argv once, with the verb's own parser, and gives what the
    top-level parser gives: the same exit code, stdout and stderr."""

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_matches_the_top_level_parser(self, tmp_path, capsys, monkeypatch):
        theorem = tmp_path / "theorem.json"
        theorem.write_text(json.dumps(TestCliCommands._forged_theorem()))
        file = str(theorem)
        pell = ["pell", "--form", "m^2-2*n^2"]
        table = [
            ["forge", "--a", "1", "--b", "2", "--search-bound", "4"],
            pell,
            ["eliminate", "--x", "m^2-n^2", "--y", "2*m*n", "--z", "m^2+n^2"],
            ["twist", "--matrix", "1,0,0;0,1,0;0,0,1"],
            TestParserReuse.FINDFORM,
            ["verify", "--file", file],
            *([verb, "-h"] for verb in ("forge", "pell", "eliminate", "twist", "findform", "verify")),
            ["-h"],
            ["--help"],
            ["-h", "verify"],
            [],
            ["frobnicate"],
            ["frobnicate", "--file", file],
            ["verify"],
            ["forge", "--a", "1"],
            ["forge", "--a", "x", "--b", "1"],
            ["pell", "--form", "m^2-2*n^2", "--bound", "1.5"],
            ["forge", "--a", "1", "--b", "2", "--search-bound", "4", "--fo", "json"],
            ["forge", "--a=1", "--b=2", "--search-bound=4", "--format=latex"],
            ["verify", "--file", file, "--bogus"],
            [*pell, "extra"],
            ["pell", "--form", "m^2-2*n^2", "--", "extra"],
            ["verify", "--file", "-h"],
            ["verify", "--", "--file", file],
            ["findform", "--degree", "2", "--target", "sideways", "--gf", "1;1,-1"],
            ["Verify", "--file", file],
        ]
        got = [self._run(argv, capsys) for argv in table]
        parser, _ = cli.build_parser()
        monkeypatch.setattr(cli, "_parse_args", parser.parse_args)
        expected = [self._run(argv, capsys) for argv in table]
        for argv, g, e in zip(table, got, expected):
            assert g == e, argv
        # the valid calls, then help and refusals
        assert [code for code, _, _ in got[:6]] == [0] * 6
        assert {code for code, _, _ in got[6:]} == {0, 2}

    def test_valid_call_skips_the_top_level_parser(self, monkeypatch, capsys):
        parser, _ = cli._parsers()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return type(parser).parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        assert main(["pell", "--form", "m^2-2*n^2"]) == 0
        assert calls == []
        assert main(["pell", "--form", "m^2-2*n^2", "extra"]) == 2
        assert len(calls) == 1
        assert "usage: cubeforge [-h]" in capsys.readouterr().err

    def test_reads_sys_argv_without_argv(self, monkeypatch, capsys):
        argv = ["pell", "--form", "m^2-2*n^2"]
        expected = self._run(argv, capsys)
        monkeypatch.setattr(sys, "argv", ["cubeforge", *argv])
        assert self._run(None, capsys) == expected
        monkeypatch.setattr(sys, "argv", ["cubeforge", "frobnicate"])
        code, out, err = self._run(None, capsys)
        assert code == 2 and out == ""
        assert "invalid choice: 'frobnicate'" in err


class _Reached(Exception):
    pass


class TestUnreachedHelpers:
    """No CLI verb runs the polynomial division loop: with it replaced by a
    function that raises, every verb gives the same exit code and stdout.
    The CLI caps every target at MAX_TARGET_CAP, so quadform._DiscTable.bases
    is never asked for an |e1| above it, and its root scan never takes more
    than MAX_TARGET_CAP steps."""

    def test_verbs_give_the_same_output_without_them(self, tmp_path, capsys, monkeypatch):
        cap = str(cli.MAX_TARGET_CAP)
        forge = ["forge", "--a", "1", "--b", "-1", "--target-cap", cap, "--format", "json"]
        assert main(forge) == 0
        forged = tmp_path / "forged.json"
        forged.write_text(capsys.readouterr().out)
        table = [
            forge,
            *(
                ["forge", "--a", a, "--b", b, "--target-cap", cap, "--format", "json"]
                for a, b in [("1", "2"), ("2", "-1"), ("2", "3"), ("5", "-6")]
            ),
            ["pell", "--form", "m^2-2*n^2", "--bound", "20000", "--target-cap", cap],
            TestParserReuse.FINDFORM,
            ["verify", "--file", str(forged)],
            ["eliminate", "--x", "m^3 + n", "--y", "m*n^2 - 1", "--z", "m + n^3"],
            ["twist", "--matrix", "6,7,-9;6,-5,4;-8,-3,3"],
        ]

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        expected = [run(argv) for argv in table]

        def unreached(*args):
            raise _Reached(args)

        monkeypatch.setattr(kernel, "_pdiv", unreached)
        asked = []
        bases = quadform._DiscTable.bases
        monkeypatch.setattr(
            quadform._DiscTable, "bases", lambda self, e1: asked.append(e1) or bases(self, e1)
        )
        for argv, want in zip(table, expected):
            assert run(argv) == want, argv
        # the forge runs scan the roots for |e1| up to MAX_TARGET_CAP
        assert asked and max(abs(e1) for e1 in asked) <= cli.MAX_TARGET_CAP


class TestJsonBytes:
    """The JSON reader decodes the file's bytes as UTF-8 and reads its line
    ends as a text-mode open does, so a file gives the output, or the
    error, it gave when it was read as text."""

    @staticmethod
    def _verify(path, capsys):
        code = main(["verify", "--file", str(path)])
        out, err = capsys.readouterr()
        return code, out, err

    def test_crlf_theorem_certifies_alike(self, tmp_path, capsys):
        assert main(["forge", "--a", "1", "--b", "-1", "--format", "json"]) == 0
        text = capsys.readouterr().out
        outputs = []
        for name, data in (("lf.json", text), ("crlf.json", text.replace("\n", "\r\n"))):
            path = tmp_path / name
            path.write_bytes(data.encode())
            outputs.append(self._verify(path, capsys))
        assert b"\r\n" in (tmp_path / "crlf.json").read_bytes()
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1].startswith("certified, depth ")

    def test_crlf_seed_file_forges_alike(self, tmp_path, capsys):
        outputs = []
        for end in ("\n", "\r\n"):
            path = tmp_path / "seeds.json"
            path.write_bytes(f"[{end}  [9, 10, -1, -12]{end}]{end}".encode())
            assert main(["forge", "--a", "1", "--b", "1", "--seed-file", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'\xef\xbb\xbf{"a": 1}',
             "JSONDecodeError: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (b'{"a": 1, "b": "\xff"}',
             "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
            (b'{"a":\r\n 1, "b": "\xc3',
             "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xc3 in position 17: unexpected end of data"),
            # positions count a CRLF or a lone CR as one character
            (b"[\r\n  1,\r\n  x\r\n]", "JSONDecodeError: Expecting value: line 3 column 3 (char 9)"),
            (b"[\r  1,\r  x\r]", "JSONDecodeError: Expecting value: line 3 column 3 (char 9)"),
            (b'["\r\n"]', "JSONDecodeError: Invalid control character at: line 1 column 3 (char 2)"),
        ],
        ids=["bom", "invalid-utf8", "truncated-utf8", "crlf", "cr", "crlf-in-string"],
    )
    def test_refusals_read_as_text(self, tmp_path, capsys, data, message):
        path = tmp_path / "theorem.json"
        path.write_bytes(data)
        assert self._verify(path, capsys) == (2, "", message + "\n")
