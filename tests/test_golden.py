"""Golden digests of `forge --format json` over 60 weight pairs.

Each digest is the sha256 of, per pair (a, b) with a = 1..5 and
b = -6..6, b != 0, the line "a b exit-code" followed by the captured
stdout.  DIGEST pins the forge output byte for byte across changes that
claim to leave it alone.  MASKED_DIGEST hashes the same output with every
`"certified_depth": N` replaced by a placeholder, so it pins everything but
the certificate depths.  It was recorded before the depth formula was
sharpened to the (degree, sign) support of the checked expression, and it
was unchanged by that change, which re-recorded DIGEST: only depths moved.
"""

import contextlib
import hashlib
import io
import re

import pytest

from cubeforge.cli import main

PAIRS = [(a, b) for a in range(1, 6) for b in range(-6, 7) if b]

DIGEST = "ceef0656702e64aa4d68863fcbd80083ba9d22a0e9c8536a6ec8853c72254da2"
MASKED_DIGEST = "afe739d0af213c80945c58a1a215acb4c007d945325cfb3cd21a781095a140e3"

DEPTH = re.compile(r'"certified_depth": \d+')


@pytest.fixture(scope="module")
def forged():
    runs = []
    for a, b in PAIRS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["forge", "--a", str(a), "--b", str(b), "--format", "json"])
        runs.append((f"{a} {b} {rc}\n", out.getvalue()))
    assert len(runs) == 60
    return runs


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
