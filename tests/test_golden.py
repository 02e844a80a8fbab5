"""Golden digest of `forge --format json` over 60 weight pairs.

The digest is the sha256 of, per pair (a, b) with a = 1..5 and
b = -6..6, b != 0, the line "a b exit-code" followed by the captured
stdout.  It was recorded before the magnitude sweep of sol_quad replaced
one enumeration per magnitude, and it pins the forge output byte for byte
across changes that claim to leave it alone.  forge then took a guess
order that bounded the unit period p of the orbit read-off by order // 2;
orders 4 (the default) and 8 both gave this digest, and the read-off now
always tries p = 1 and 2, as order 4 did.
"""

import contextlib
import hashlib
import io

from cubeforge.cli import main

PAIRS = [(a, b) for a in range(1, 6) for b in range(-6, 7) if b]

DIGEST = "9c2f9a96d9662e317ce5661951b14f288ec67187a6956930bdbe14145e878053"


def test_forge_json_digest():
    digest = hashlib.sha256()
    for a, b in PAIRS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["forge", "--a", str(a), "--b", str(b), "--format", "json"])
        digest.update(f"{a} {b} {rc}\n".encode())
        digest.update(out.getvalue().encode())
    assert len(PAIRS) == 60
    assert digest.hexdigest() == DIGEST
