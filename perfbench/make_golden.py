"""Write ``golden.json``: every job the benchmark can run, with the exit code
and stdout the program gave for it.

    python3 perfbench/make_golden.py

Run it only on the commit whose behaviour is the reference; the benchmark
compares every later run against what it records.  Inputs are drawn from a
fixed generator seed, so a rerun on the same commit writes the same jobs
(the ``cost_s`` fields, measured here and used only to size a run in whole
passes, vary).  Takes a few minutes.
"""

from __future__ import annotations

import json
import random
import signal
import time

import run

GENERATOR_SEED = 2020
ENUM_PAIRS = ((1, -1), (1, 1), (1, 3), (1, -3))
GUESS_PAIRS = ((1, 2), (2, 1), (1, -2), (2, -1))
CRITERION_8 = (
    ("m^2 - n^2", "2*m*n", "m^2 + n^2"),
    ("2*m^2 - 3*n^2", "2*m*n", "m^2 + n^2"),
    ("m^3 - n^3", "m^2*n + m*n^2", "m^3 + n^3"),
    ("m^3 + n", "m*n^2 - 1", "m + n^3"),
)
# the two classical triples of tests/conftest.py, in interchange format
ALT_DEN = [1, -82, -82, 1]
CONST_DEN = [1, -103683, 103683, -1]
CLASSICAL = {
    "alternating-triple": {
        "a": 1, "b": -1, "c": 1, "rhs_kind": "alternating",
        "gfs": [{"num": [1, 53, 9], "den": ALT_DEN}, {"num": [2, -26, -12], "den": ALT_DEN},
                {"num": [2, 8, -10], "den": ALT_DEN}],
    },
    "constant-triple-6859": {
        "a": 2, "b": 1, "c": 6859, "rhs_kind": "constant",
        "gfs": [{"num": [-1, -550798, -237169], "den": CONST_DEN},
                {"num": [25, -878594, 90601], "den": CONST_DEN},
                {"num": [-29, 888826, 293155], "den": CONST_DEN}],
    },
}
PELL_FIXED = ("m^2 - 2*n^2", "-m^2 + 9*m*n + n^2")
TWIST_BASES = (None, "x^3 + 2*y^3 + 4*z^3", "x^3 + 3*y^3 + 9*z^3")

# a random elimination is kept when it takes this long at generation time,
# so that no pooled job outgrows the fixed degree-27, 1026-term case
ELIMINATE_BAND_S = (0.15, 0.3)
ELIMINATE_TIMEOUT_S = 3


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def make_job(cli, kind: str, job_id: str, argv: list[str], timeout=None):
    """Run one job on the current program and record its golden result."""
    if timeout:
        signal.alarm(timeout)
    t0 = time.perf_counter()
    try:
        rc, out = run.invoke(cli, [a.replace("{work}", str(WORKDIR)) for a in argv])
    except _Timeout:
        return None
    finally:
        signal.alarm(0)
    cost = time.perf_counter() - t0
    return {"id": job_id, "kind": kind, "argv": argv, "rc": rc, "stdout": out,
            "cost_s": round(cost, 4)}


def verify_job(cli, golden: dict, job_id: str, theorem: dict, mutate=None) -> dict:
    job = {"id": job_id, "argv": ["verify", "--file", "{work}/" + job_id + ".json"],
           "theorem": theorem}
    if mutate:
        job["mutate"] = mutate
    (job,), _ = run.materialize(golden, [job], WORKDIR)
    recorded = make_job(cli, "verify", job_id, job["argv"])
    recorded["theorem"] = theorem
    if mutate:
        recorded["mutate"] = mutate
    return recorded


def poly_text(terms: dict, names=("m", "n")) -> str:
    """Polynomial text in the CLI's syntax, highest degree first."""
    out = ""
    for ev in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[ev]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, ev) if e]
        body = "*".join(factors) if factors else str(abs(c))
        if factors and abs(c) != 1:
            body = f"{abs(c)}*{body}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def random_param(rng) -> dict:
    monomials = [(i, d - i) for d in (1, 2, 3) for i in range(d + 1)]
    degree = rng.choice((2, 3))
    pick = rng.sample([mo for mo in monomials if sum(mo) <= degree], rng.choice((2, 3)))
    return {mo: rng.choice((-3, -2, -1, 1, 2, 3)) for mo in pick}


def reflected(terms: dict, sm: int, sn: int) -> dict:
    """The polynomial after m -> sm*m, n -> sn*n."""
    return {(i, j): c * sm ** i * sn ** j for (i, j), c in terms.items()}


def forge_jobs(cli, pairs):
    return [make_job(cli, "forge", f"forge:{a},{b}",
                     ["forge", "--a", str(a), "--b", str(b), "--format", "json"])
            for a, b in pairs]


# Pools hold groups of variants.  The variants of one group cost the same:
# one problem up to a sign symmetry (a reflection of m or n, a negated matrix
# row or sequence, a negated form), or mutants of one theorem.  The seed picks
# a variant per group, so it changes inputs and outputs but not the cost of a
# pass.

def eliminate_workload(cli, rng):
    fixed = [make_job(cli, "eliminate", f"eliminate:criterion8-{k}",
                      ["eliminate", "--x", x, "--y", y, "--z", z])
             for k, (x, y, z) in enumerate(CRITERION_8)]
    groups = []
    tried = 0
    while len(groups) < 12 and tried < 600:
        tried += 1
        base = [random_param(rng) for _ in range(3)]
        group = []
        for sm, sn in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            x, y, z = (poly_text(reflected(t, sm, sn)) for t in base)
            job = make_job(cli, "eliminate", f"eliminate:random-{tried}:{sm},{sn}",
                           ["eliminate", "--x", x, "--y", y, "--z", z],
                           timeout=ELIMINATE_TIMEOUT_S)
            terms = job and 1 + job["stdout"].count(" + ") + job["stdout"].count(" - ")
            lo, hi = ELIMINATE_BAND_S
            if job is None or job["rc"] != 0 or not lo <= job["cost_s"] <= hi or terms > 1026:
                break
            group.append(job)
        else:
            groups.append(group)
    twists = []
    while len(twists) < 4:
        matrix = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        base = rng.choice(TWIST_BASES)
        group = []
        for flip in range(4):
            rows = [[-c for c in row] if k == flip else row for k, row in enumerate(matrix)]
            argv = ["twist", "--matrix", ";".join(",".join(map(str, r)) for r in rows)]
            if base:
                argv += ["--base", base]
            group.append(make_job(cli, "twist", f"twist:{len(twists)}:{flip}", argv))
        if all(job["rc"] == 0 for job in group):
            twists.append(group)
    # three variants of each random problem per pass: enough mid-size jobs
    # that the median and the tail job time are order statistics of many
    # samples rather than of one pass's handful
    return {"fixed": fixed, "pools": [{"name": "random-parametrization", "per_pass": 3,
                                       "groups": groups},
                                      {"name": "twist", "groups": twists}]}


def _gf_text(num, den) -> str:
    return ",".join(map(str, num)) + ";" + ",".join(map(str, den))


def findform_groups(cli, rng):
    """Criterion-10-style tuples: degree 2 and 3, two or three sequences over
    one denominator of order 2 or 3; the variants negate some sequences."""
    shapes = ((2, 2, 2), (3, 3, 3), (2, 3, 2), (2, 3, 3))  # (degree, sequences, order)
    groups = []
    for degree, count, order in shapes:
        kept = tried = 0
        while kept < 3 and tried < 200:
            tried += 1
            if order == 2:
                den = [1, -rng.choice((-5, -4, -3, 3, 4, 5)), 1]
            else:
                den = [1, -rng.randint(-4, 4), -rng.randint(-4, 4), -1]
            nums = [[rng.randint(-4, 4) for _ in range(order)] for _ in range(count)]
            if any(not any(n) for n in nums):
                continue
            for target in ("constant", "none"):
                group = []
                for flip in range(4):
                    argv = ["findform", "--degree", str(degree), "--target", target]
                    for k, n in enumerate(nums):
                        sign = -1 if (flip >> k) & 1 else 1
                        argv += ["--gf", _gf_text([sign * c for c in n], den)]
                    group.append(make_job(
                        cli, "findform", f"findform:{degree}-{count}-{order}-{tried}:{flip}",
                        argv))
                if all(job["rc"] == 0 for job in group):
                    groups.append(group)
                    kept += 1
                    break
    return groups


def pell_workload(cli, rng):
    fixed = [make_job(cli, "pell", f"pell:{form}", ["pell", "--form", form])
             for form in PELL_FIXED]
    groups = []
    seen = set(PELL_FIXED)
    while len(groups) < 6:
        qa, qb, qc = rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6)
        disc = qb * qb - 4 * qa * qc
        if qa == 0 or qc == 0 or disc <= 0 or int(disc ** 0.5) ** 2 == disc:
            continue
        forms = [poly_text({(2, 0): s * qa, (1, 1): s * qb, (0, 2): s * qc}) for s in (1, -1)]
        if seen & set(forms):
            continue
        seen.update(forms)
        group = [make_job(cli, "pell", f"pell:{form}", ["pell", "--form", form])
                 for form in forms]
        if all(job["rc"] == 0 and abs(json.loads(job["stdout"])["target"]) <= 4
               for job in group):
            groups.append(group)
    return fixed, groups


def mutant_groups(cli, rng, golden: dict, refs: dict):
    """Single-coefficient numerator mutations of 16 theorems, three per
    theorem, each refuted by the seed commit (exit 1)."""
    groups = []
    for tid in rng.sample(sorted(refs), 16):
        ref, thm = refs[tid]
        group = []
        while len(group) < 3:
            g = rng.randrange(3)
            mutate = [g, rng.randrange(len(thm["gfs"][g]["num"])), rng.choice((-2, -1, 1, 2))]
            job = verify_job(cli, golden, f"mutant:{tid}:{len(group)}", ref, mutate)
            if job["rc"] == 1 and job["stdout"] == "":
                group.append(job)
        groups.append(group)
    return groups


def main() -> None:
    cli = run.import_cli()
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(GENERATOR_SEED)

    enum_jobs = forge_jobs(cli, ENUM_PAIRS)
    guess_jobs = forge_jobs(cli, GUESS_PAIRS)
    golden = {
        "about": "exit code and stdout of every benchmark job on the reference commit; "
                 "written by make_golden.py",
        "generator_seed": GENERATOR_SEED,
        "classical": CLASSICAL,
        "workloads": {
            "forge-enum": {"fixed": enum_jobs, "pools": []},
            "forge-guess": {"fixed": guess_jobs, "pools": []},
        },
    }
    refs = {}
    for job in enum_jobs + guess_jobs:
        if job["rc"] == 0:
            for k, thm in enumerate(json.loads(job["stdout"])):
                refs[f"{job['id']}:{k}"] = ({"forge": job["id"], "index": k}, thm)
    for name, thm in CLASSICAL.items():
        refs[name] = ({"classical": name}, thm)
    verify_fixed = [verify_job(cli, golden, f"verify:{tid}", ref) for tid, (ref, _) in refs.items()]
    pell_fixed, pell_groups = pell_workload(cli, rng)
    golden["workloads"]["certify"] = {
        "fixed": verify_fixed + pell_fixed,
        "pools": [
            {"name": "mutant", "groups": mutant_groups(cli, rng, golden, refs)},
            {"name": "findform", "groups": findform_groups(cli, rng)},
            {"name": "pell", "groups": pell_groups},
        ],
    }
    golden["workloads"]["eliminate"] = eliminate_workload(cli, rng)
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, spec in golden["workloads"].items():
        sizes = [len(p["groups"]) for p in spec["pools"]]
        print(f"{name}: {len(spec['fixed'])} fixed jobs, pools {sizes}")


WORKDIR = run.WORK_ROOT / "golden"

if __name__ == "__main__":
    try:
        main()
    finally:
        import shutil

        shutil.rmtree(WORKDIR, ignore_errors=True)
