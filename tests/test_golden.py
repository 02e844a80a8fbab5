"""Golden digests of `forge --format json` over 60 weight pairs.

Each digest is the sha256 of, per pair (a, b) with a = 1..5 and
b = -6..6, b != 0, the line "a b exit-code" followed by the captured
stdout.  They were recorded before the magnitude sweep of sol_quad
replaced one enumeration per magnitude, and they pin the forge output
byte for byte across changes that claim to leave it alone.
"""

import contextlib
import hashlib
import io

import pytest

from cubeforge.cli import main

PAIRS = [(a, b) for a in range(1, 6) for b in range(-6, 7) if b]

DIGESTS = {
    4: "9c2f9a96d9662e317ce5661951b14f288ec67187a6956930bdbe14145e878053",
    8: "9c2f9a96d9662e317ce5661951b14f288ec67187a6956930bdbe14145e878053",
}


@pytest.mark.parametrize("order", sorted(DIGESTS))
def test_forge_json_digest(order):
    digest = hashlib.sha256()
    for a, b in PAIRS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["forge", "--a", str(a), "--b", str(b), "--format", "json",
                       "--guess-order", str(order)])
        digest.update(f"{a} {b} {rc}\n".encode())
        digest.update(out.getvalue().encode())
    assert len(PAIRS) == 60
    assert digest.hexdigest() == DIGESTS[order]
