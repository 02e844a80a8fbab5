"""Golden digests of `forge` output over 60 weight pairs.

Each digest is the sha256 of, per pair (a, b) with a = 1..5 and
b = -6..6, b != 0, the line "a b exit-code" followed by the captured
stdout.  DIGEST pins the `--format json` output byte for byte across
changes that claim to leave it alone; TEXT_DIGEST and LATEX_DIGEST pin
`--format text` and `--format latex` the same way.  MASKED_DIGEST hashes
the JSON output with every `"certified_depth": N` replaced by a
placeholder, so it pins everything but the certificate depths.  It was
recorded before the depth formula was sharpened to the (degree, sign)
support of the checked expression, and it was unchanged by that change,
which re-recorded DIGEST: only depths moved.  CAP_200_DIGEST pins the
`--format json` output at `--target-cap 200`, the CLI's largest cap,
where one-sign forms of primitive discriminant 3k^2 and 5k^2 pass the
unit test of `sol_quad` and are swept.

ELIMINATE_CORPUS_DIGEST pins `implicitize` on 300 parametrizations drawn
with random.Random(7) by the recipe of the benchmark's random eliminate
inputs: the sha256 of, per input, the implicit equation as printed, or the
name of the exception's class, followed by a newline.
"""

import contextlib
import hashlib
import io
import random
import re

import pytest

from cubeforge import MultiPoly, implicitize
from cubeforge.cli import main

PAIRS = [(a, b) for a in range(1, 6) for b in range(-6, 7) if b]

DIGEST = "ceef0656702e64aa4d68863fcbd80083ba9d22a0e9c8536a6ec8853c72254da2"
MASKED_DIGEST = "afe739d0af213c80945c58a1a215acb4c007d945325cfb3cd21a781095a140e3"
TEXT_DIGEST = "b7d483d7d5b037c881f25913b3c6c7dffe1f0954b22a189b9a53628587ec8086"
LATEX_DIGEST = "1d2291dd55148b139ca18fe1344ab714145a89e31aa86c1f5407b24f083bf60a"
CAP_200_DIGEST = "7588bf09d4ad493e076c31df2cd9ced64fcfa154af7d2fd8d7a0ad7af2947a4d"
ELIMINATE_CORPUS_DIGEST = "85bd5877b8f22f9cf81f0f22c50eb6f07e506453a256ec0ffcd14b4019d40f97"

DEPTH = re.compile(r'"certified_depth": \d+')


def _forge_all(fmt, *options):
    runs = []
    for a, b in PAIRS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["forge", "--a", str(a), "--b", str(b), "--format", fmt, *options])
        runs.append((f"{a} {b} {rc}\n", out.getvalue()))
    assert len(runs) == 60
    return runs


@pytest.fixture(scope="module")
def forged():
    return _forge_all("json")


def _digest(runs, mask=lambda text: text):
    digest = hashlib.sha256()
    for header, text in runs:
        digest.update(header.encode())
        digest.update(mask(text).encode())
    return digest.hexdigest()


def test_forge_json_digest(forged):
    assert _digest(forged) == DIGEST


def test_forge_json_digest_without_depths(forged):
    assert _digest(forged, lambda text: DEPTH.sub('"certified_depth": N', text)) == MASKED_DIGEST


@pytest.mark.parametrize("fmt, digest", [("text", TEXT_DIGEST), ("latex", LATEX_DIGEST)])
def test_forge_rendered_digest(fmt, digest):
    assert _digest(_forge_all(fmt)) == digest


def test_forge_json_digest_at_the_largest_target_cap():
    assert _digest(_forge_all("json", "--target-cap", "200")) == CAP_200_DIGEST


def _random_param(rng):
    # two or three monomials of degree 1 to 2 or 3 in m and n, each with a
    # coefficient in +-1, +-2, +-3
    monomials = [(i, d - i) for d in (1, 2, 3) for i in range(d + 1)]
    degree = rng.choice((2, 3))
    pick = rng.sample([mo for mo in monomials if sum(mo) <= degree], rng.choice((2, 3)))
    return {mo: rng.choice((-3, -2, -1, 1, 2, 3)) for mo in pick}


def test_implicitize_corpus_digest():
    rng = random.Random(7)
    digest = hashlib.sha256()
    outcomes = {}
    for _ in range(300):
        components = [MultiPoly(("m", "n"), _random_param(rng)) for _ in range(3)]
        try:
            text = str(implicitize(*components))
            outcomes["equation"] = outcomes.get("equation", 0) + 1
        except Exception as exc:
            text = type(exc).__name__
            outcomes[text] = outcomes.get(text, 0) + 1
        digest.update(f"{text}\n".encode())
    assert outcomes == {"equation": 299, "EliminationCollapse": 1}
    assert digest.hexdigest() == ELIMINATE_CORPUS_DIGEST
