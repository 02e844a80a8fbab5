"""Command-line interface.

Subcommands: forge, pell, eliminate, twist, findform, verify.  Results go to
stdout, diagnostics to stderr.  Exit codes: 0 at least one certified result,
1 clean no-result, 2 input or parse error, 3 internal invariant violation.
Serialized generating functions (verify, findform --gf) are read under the
caps of cfinite.read_gfs; the caps on options and polynomial text are here.

argv is parsed once: when its first word names a verb, the rest goes to
that verb's own parser, the one the top-level parser hands it to.  Only
when argv names no verb, or the verb's parser leaves words over, does the
top-level parser run, so that help, usage lines, error texts and exit
codes are the ones it gives.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .concoct import find_form, implicitize, twist_no_solution
from .cubic import WeightedQuadruple
from .errors import (
    CubeforgeError,
    DefiniteForm,
    EliminationCollapse,
    EmptySeedSet,
    InvalidForm,
    InvalidQuadruple,
    MalformedTheorem,
    NoForm,
    NoOrbitFound,
    NoTargetedForm,
    ParseError,
    PoleAtOrigin,
    SingularSubstitution,
)
from .cfinite import check_digits, read_gfs
from .forge import forge, json_text, render, theorem_from_json, theorem_to_json
from .parsing import parse_poly
from .quadform import QuadForm, sol_quad

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Upper caps on the work options, so that no command line runs without end.
# At the caps a run takes seconds to tens of seconds, not hours.
MAX_PELL_BOUND = 20_000
MAX_SEARCH_BOUND = 100
MAX_TARGET_CAP = 200
# findform certifies at depth at most s + C(r+D-1, D) + 1
# (cfinite.certificate_bound on a degree-D form and its target), r <= the sum
# of the --gf denominator orders and D = --degree.  With that sum capped at
# cfinite.MAX_VERIFY_ORDER, D <= 3 keeps the depth within verify's at its
# cap, s + C(32, 3) + 1 = s + 4961; D = 4 would allow
# s + C(33, 4) + 1 = s + 40921.
MAX_FINDFORM_DEGREE = 3
# The number d of --gf sequences sets the width C(d+D-1, D) of the
# evaluation matrix that find_form takes the nullspace of, and the caps above
# leave it unbounded: at --degree 3 with the sequences 1/(1-k t), k = 2, 3,
# ..., 6 of them take 0.03 s, 8 take 0.2 s, 10 take 2.8 s (in-process, best
# of 3, one Xeon core) and 14 took 105 s.
MAX_FINDFORM_SEQUENCES = 8
# eliminate's resultants grow fast with the degree of its inputs.  At degree
# 3, m^3 + n, m*n^2 - 1, m + n^3 takes about 0.2 s, and the dense inputs
# with constant terms tried take up to 8 s (m^3 + n^3 + m + n + 1,
# m^3 - n^3 + m*n, m^2*n + m*n^2 + 1 about 3 s); the degree-4 analogue of
# the first did not finish in 100 s.  The library implicitize stays uncapped.
# eliminate's literals are held to cfinite.MAX_COEFFICIENT_DIGITS before
# they are read, as twist's are; that bounds the text, not the work: the
# dense input above with 60-digit literals was still running after 120 s.
MAX_ELIMINATE_DEGREE = 3
# Polynomial text is parsed under a degree cap (parse_poly's max_degree), so
# that no power is expanded before it is refused: 2 for pell, whose form is
# quadratic, MAX_ELIMINATE_DEGREE for eliminate and this one for twist's
# --base.  Uncapped, twist --base "x^3000" with the matrix 1,1,0;0,1,1;1,0,1
# took 7 s and 1.4 GB.  At 12 the dense (x+y+z+1)^12 twists in about 0.03 s,
# and at 20 in 0.3 s (one Xeon core).  twist's --matrix entries and --base
# literals are held to cfinite.MAX_COEFFICIENT_DIGITS before either is read.
MAX_TWIST_DEGREE = 12
# verify --file and forge --seed-file read at most this many bytes (4 MiB),
# so that an endless or huge file such as /dev/zero is refused rather than
# read until memory runs out.  The largest forge --format json output at the
# caps above (--search-bound 100, --target-cap 200, --max-theorems 10^9),
# over the 450 coprime pairs with 1 <= a <= 12 and 1 <= |b| <= 30, is the
# 34 theorems of (2, -1) in 87911 bytes, 1/48 of the cap.
MAX_INPUT_BYTES = 1 << 22

_EMPTY_ERRORS = (EmptySeedSet, NoOrbitFound, NoForm, NoTargetedForm, EliminationCollapse)
_INPUT_ERRORS = (
    ParseError,
    PoleAtOrigin,
    MalformedTheorem,
    DefiniteForm,
    SingularSubstitution,
    InvalidForm,
    InvalidQuadruple,
    ValueError,
    OSError,
    KeyError,
)


def _parse_form(text: str) -> QuadForm:
    return QuadForm.from_poly(parse_poly(text, ("m", "n"), max_degree=2))


def _split_gf(text: str) -> tuple[list[int], list[int]]:
    """The raw numerator and denominator of "num;den".  An empty part is the
    empty list, but an empty entry in a nonempty part is refused: dropping
    it would shift every coefficient after it."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"generating function must be 'num;den', got {text!r}")
    entries = [part.split(",") if part.strip() else [] for part in parts]
    if any(not c.strip() for part in entries for c in part):
        raise ValueError(f"generating function {text!r} has an empty coefficient")
    num, den = ([int(c) for c in part] for part in entries)
    return num, den


def _parse_matrix(text: str) -> list[list[int]]:
    rows = [r for r in text.split(";") if r.strip() != ""]
    return [[int(c) for c in row.split(",")] for row in rows]


def _load_json(path: str):
    """The JSON value in a UTF-8 file, its line ends read as a text-mode
    open reads them, so that a decoding error gives the same position;
    nesting too deep to decode raises ValueError, and so does a file of
    more than MAX_INPUT_BYTES bytes, of which one byte past the cap is
    read and nothing is decoded."""
    with open(path, "rb") as fh:
        # a read allocates the size it asks for: asking for the cap took
        # 26 us against 6 for reading a 3 kB theorem file whole (one Xeon
        # core), so the first read asks for 64 KiB, which holds nearly every
        # input file
        data = fh.read(1 << 16)
        if len(data) == 1 << 16:
            data += fh.read(MAX_INPUT_BYTES + 1 - len(data))
    if len(data) > MAX_INPUT_BYTES:
        raise ValueError(f"the file {path} exceeds the cap of {MAX_INPUT_BYTES} bytes")
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the JSON nests too deeply to be read") from None


def _load_seeds(path: str, a: int, b: int) -> list[WeightedQuadruple]:
    """The seeds of a JSON list whose entries are lists of four ints or
    {"coords": [...]} objects holding one.  Anything else raises ValueError,
    a bool, float or string coordinate too: 9.5 read as 9 would forge from
    another seed."""
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError("a seed file must hold a JSON list of seeds")
    seeds = []
    for entry in data:
        coords = entry.get("coords") if isinstance(entry, dict) else entry
        if not (isinstance(coords, list) and len(coords) == 4
                and all(type(c) is int for c in coords)):
            raise ValueError(f"seed {entry!r} is not a list of four integers")
        seeds.append(WeightedQuadruple(a, b, *coords))
    return seeds


def _check_caps(args, caps: dict[str, int]) -> None:
    for option, cap in caps.items():
        value = getattr(args, option[2:].replace("-", "_"))
        if value > cap:
            raise ValueError(f"{option} {value} exceeds the cap {cap}")


def _cmd_forge(args) -> int:
    _check_caps(args, {"--search-bound": MAX_SEARCH_BOUND, "--target-cap": MAX_TARGET_CAP})
    extra = _load_seeds(args.seed_file, args.a, args.b) if args.seed_file else None
    theorems = forge(
        args.a,
        args.b,
        search_bound=args.search_bound,
        target_cap=args.target_cap,
        max_theorems=args.max_theorems,
        extra_seeds=extra,
    )
    if not theorems:
        print("NoTheorem: every pipeline branch failed", file=sys.stderr)
        return EXIT_EMPTY
    if args.format == "json":
        print(json_text([theorem_to_json(t) for t in theorems]))
    else:
        print(
            "\n\n".join(render(t, args.format) for t in theorems)
        )
    return EXIT_OK


def _cmd_pell(args) -> int:
    _check_caps(args, {"--bound": MAX_PELL_BOUND, "--target-cap": MAX_TARGET_CAP})
    form = _parse_form(args.form)
    orbit = sol_quad(form, bound=args.bound, target_cap=args.target_cap)
    payload = {"form": str(form)}
    payload.update(orbit.to_json())
    print(json_text(payload))
    return EXIT_OK


def _cmd_eliminate(args) -> int:
    texts = (args.x, args.y, args.z)
    check_digits(re.findall(r"\d+", " ".join(texts)))
    polys = [parse_poly(text, ("m", "n"), max_degree=MAX_ELIMINATE_DEGREE) for text in texts]
    print(str(implicitize(*polys)))
    return EXIT_OK


def _cmd_twist(args) -> int:
    # int() also reads a matrix entry written with underscores
    check_digits(re.findall(r"\d+", args.matrix.replace("_", "") + " " + args.base))
    matrix = _parse_matrix(args.matrix)
    base = parse_poly(args.base, ("x", "y", "z"), max_degree=MAX_TWIST_DEGREE)
    print(str(twist_no_solution(base, matrix)))
    return EXIT_OK


def _cmd_findform(args) -> int:
    _check_caps(args, {"--degree": MAX_FINDFORM_DEGREE})
    if len(args.gf) > MAX_FINDFORM_SEQUENCES:
        raise ValueError(
            f"{len(args.gf)} --gf sequences exceed the cap {MAX_FINDFORM_SEQUENCES}"
        )
    gfs = read_gfs(_split_gf(text) for text in args.gf)
    result = find_form(gfs, args.degree, args.target)
    print(json_text(result.to_json()))
    return EXIT_OK


def _cmd_verify(args) -> int:
    data = _load_json(args.file)
    items = data if isinstance(data, list) else [data]
    if not items:
        raise ValueError("the file holds no theorem")
    all_ok = True
    for item in items:
        cert = theorem_from_json(item).certificate
        if cert.certified:
            print(f"certified, depth {cert.bound}")
        else:
            all_ok = False
            print(
                f"refuted at n={cert.witness} (checked depth {cert.bound})",
                file=sys.stderr,
            )
    return EXIT_OK if all_ok else EXIT_EMPTY


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each verb's parser by name."""
    parser = argparse.ArgumentParser(
        prog="cubeforge",
        description="Discover and certify infinite families of solutions of "
        "cubic Diophantine equations a*X^3 + a*Y^3 + b*Z^3 = c.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forge = sub.add_parser("forge", help="produce certified cubic theorems")
    p_forge.add_argument("--a", type=int, required=True)
    p_forge.add_argument("--b", type=int, required=True)
    p_forge.add_argument("--search-bound", type=int, default=12)
    p_forge.add_argument("--target-cap", type=int, default=30)
    p_forge.add_argument("--max-theorems", type=int, default=10)
    p_forge.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p_forge.add_argument("--seed-file", help="JSON file with extra [x,y,z,w] seeds")
    p_forge.set_defaults(func=_cmd_forge)

    p_pell = sub.add_parser("pell", help="solve a binary quadratic form")
    p_pell.add_argument("--form", required=True, help="polynomial in m and n")
    p_pell.add_argument("--bound", type=int, default=2000)
    p_pell.add_argument("--target-cap", type=int, default=30)
    p_pell.set_defaults(func=_cmd_pell)

    p_elim = sub.add_parser(
        "eliminate", help="implicit equation of x=P(m,n), y=Q(m,n), z=R(m,n)"
    )
    p_elim.add_argument("--x", required=True)
    p_elim.add_argument("--y", required=True)
    p_elim.add_argument("--z", required=True)
    p_elim.set_defaults(func=_cmd_eliminate)

    p_twist = sub.add_parser(
        "twist", help="substitute a nonsingular matrix into an insoluble cubic"
    )
    p_twist.add_argument("--matrix", required=True, help='"a,b,c;d,e,f;g,h,i"')
    p_twist.add_argument("--base", default="x^3 + y^3 + z^3")
    p_twist.set_defaults(func=_cmd_twist)

    p_find = sub.add_parser(
        "findform", help="find a form constant along C-finite sequences"
    )
    p_find.add_argument("--degree", type=int, required=True)
    p_find.add_argument(
        "--target", choices=("constant", "alternating", "none"), default="constant"
    )
    p_find.add_argument(
        "--gf",
        action="append",
        required=True,
        help='generating function "num;den" with ascending coefficients',
    )
    p_find.set_defaults(func=_cmd_findform)

    p_verify = sub.add_parser("verify", help="re-certify a serialized theorem")
    p_verify.add_argument("--file", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    return parser, sub.choices


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built on the first call, not at import.  Parsing leaves the parsers
    # unchanged (each call starts from a fresh namespace, and the append
    # action copies its list), so one tree serves every call.
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace the top-level parser gives for argv, from one parse.
    The top-level parser hands every word after the verb to the verb's
    parser unchanged; with none left over it adds only the verb's name,
    which nothing reads."""
    parser, verbs = _parsers()
    verb = verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _EMPTY_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except _INPUT_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CubeforgeError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())
