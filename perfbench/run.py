"""Benchmark of the cubeforge command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One closed loop: a single client, in this process and thread, calls the
user-facing entry point ``cubeforge.cli.main(argv)`` for one job after the
other with stdout captured.  The job list of a workload is drawn from the
seed (see ``select_jobs``); the loop runs as many whole passes over it as
take about ``--seconds`` at the job costs recorded in the golden file, so
every run of a workload times the same mix of jobs.

After the loop, outside the timed region, every job's exit code and stdout
are compared with the golden output recorded from the seed commit
(``golden.json``, written by ``make_golden.py``).  Certified depths are masked
in that comparison, because a sharper sound depth is a legitimate change;
instead every certified theorem, orbit and form is re-checked independently
at random n in [B, 10B], B being its recorded depth, so an unsound depth
counts as a failed job.  Eliminations and twists are checked by substitution
at random points.

The host of a shared machine runs faster and slower by half again over
fractions of a second to minutes, and the program's wall times follow it.
So while the untraced jobs run, a fixed piece of pure-Python work that uses
no cubeforge code is timed every PROBE_EVERY_S (``HostSpeed``), in the
middle of long jobs too.  Each job's time, less the probes run during it,
is divided by the mean reading from SCALE_WINDOW_S before the job to
SCALE_WINDOW_S after it, over the reading of a reference host
(REFERENCE_PROBE_S): the reported times are seconds on that host.  Set-up
times are scaled by readings taken just before and after each set-up
process.  The times as measured are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with the outside-in layer trace of ``tracer.py``, and
reports the per-layer metrics, per pass over the job list, plus the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("forge-enum", "forge-guess", "eliminate", "certify")
DEFAULT_SEED = 1
SETUP_REPEATS = 11
CHECK_POINTS = 10
TAIL_BEYOND = 10
TAIL_FLOOR_PCT = 99
PROBE_EVERY_S = 0.125
PROBE_REPS = 3
# a job is scaled by the probe readings from this long before it to this
# long after it: long enough for a few readings, short enough to follow the
# host's swings
SCALE_WINDOW_S = 0.25
# the probe time the reported figures are scaled to: a host on which
# probe() reads this reports its times unscaled
REFERENCE_PROBE_S = 0.002

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, inputs or golden)."""


# --- program and inputs ---

def import_cli():
    """Import the CLI from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "cubeforge" / "cli.py").is_file():
        raise BenchError(f"no cubeforge sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("cubeforge.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"cubeforge was imported from {cli.__file__}, not {src}")
    return cli


def default_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, so that a run without --seconds
    times the same passes as the recorded runs."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return float(json.load(fh)["run_seconds"])
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no run_seconds in {ROOT / 'BENCHMARK.json'}: {exc}") from exc


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        raise BenchError(f"missing {GOLDEN_PATH}")
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def select_jobs(golden: dict, workload: str, seed: int) -> list[dict]:
    """The workload's fixed jobs plus ``per_pass`` variants (default one),
    chosen by the seed, of every pooled group, in a seeded order.  The
    variants of a group cost the same, so each seed runs new inputs at the
    same cost."""
    rng = random.Random(f"{workload}:{seed}")
    spec = golden["workloads"][workload]
    jobs = list(spec["fixed"])
    for pool in spec["pools"]:
        for group in pool["groups"]:
            jobs.extend(rng.sample(group, pool.get("per_pass", 1)))
    rng.shuffle(jobs)
    return jobs


def theorem_input(golden: dict, job: dict) -> dict:
    """The theorem a verify job reads: one emitted by a golden forge job, or a
    classical triple, with the job's single-coefficient mutation applied."""
    ref = job["theorem"]
    if "classical" in ref:
        thm = json.loads(json.dumps(golden["classical"][ref["classical"]]))
    else:
        forge_jobs = golden["workloads"]["forge-enum"]["fixed"] + golden[
            "workloads"]["forge-guess"]["fixed"]
        source = next(j for j in forge_jobs if j["id"] == ref["forge"])
        thm = json.loads(source["stdout"])[ref["index"]]
    if "mutate" in job:
        g, i, delta = job["mutate"]
        thm["gfs"][g]["num"][i] += delta
    return thm


def materialize(golden: dict, jobs: list[dict], workdir: Path):
    """Write the jobs' input files into ``workdir``.  Returns the jobs, each
    with the ``files`` it reads, and their argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    ready = []
    for job in jobs:
        if "theorem" in job:
            name = job["argv"][-1].rsplit("/", 1)[1]
            job = dict(job, files={name: json.dumps(theorem_input(golden, job), indent=2,
                                                     sort_keys=True)})
        for name, content in job.get("files", {}).items():
            (workdir / name).write_text(content, encoding="utf-8")
        ready.append(job)
    return ready, [[a.replace("{work}", str(workdir)) for a in job["argv"]] for job in ready]


def setup(workload: str, seed: int, workdir: Path):
    cli = import_cli()
    golden = load_golden()
    jobs, argvs = materialize(golden, select_jobs(golden, workload, seed), workdir)
    return cli, golden, jobs, argvs


def measure_setup(workload: str, seed: int):
    """Median wall time, over fresh processes, from process start until the
    first job is ready: interpreter start, import, input selection and
    writing the input files.  Returns it as measured, and with each time
    divided by the mean of the ``probe()`` readings taken just before and
    just after its process, over REFERENCE_PROBE_S."""
    times = []
    scaled = []
    for k in range(SETUP_REPEATS):
        workdir = WORK_ROOT / f"setup-{os.getpid()}-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(workdir)]
        before = probe()
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1] * 2 * REFERENCE_PROBE_S / (before + probe()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times), statistics.median(scaled)


# --- host speed ---

def _probe_unit():
    """A fixed piece of pure-Python work of the kinds the program does: small
    and big integer arithmetic, fractions, dicts and tuples.  It uses no
    cubeforge code, so a change to the program cannot change its cost."""
    table = {}
    acc = 0
    for i in range(1500):
        acc = (acc + i * i) % 1009
        table[(i, acc)] = acc
    big = 3 ** 300
    for i in range(400):
        big = (big * 7919 + i) % (5 ** 400)
    frac = Fraction(1, 3)
    for i in range(1, 120):
        frac = frac * Fraction(i + 1, i + 2) + Fraction(1, i)
    return len(table), big, frac


def probe() -> float:
    """Median time of PROBE_REPS runs of ``_probe_unit``, with the garbage
    collector off so that the program's heap does not enter it."""
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPS):
            t0 = clock()
            _probe_unit()
            times.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class HostSpeed:
    """How much slower than the reference host the machine runs, sampled
    while jobs run.

    Inside the ``with`` block a SIGALRM interval timer runs ``probe()`` every
    PROBE_EVERY_S of wall time, between the program's bytecodes, so long jobs
    are sampled during their own run; one more reading is taken on entry and
    on exit.  run_passes adds the (start, end) of each job to ``jobs``."""

    def __init__(self):
        self.readings: list[tuple[float, float, float]] = []  # (start, end, probe time)
        self.jobs: list[tuple[float, float]] = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        value = probe()
        self.readings.append((t0, time.perf_counter(), value))

    def __enter__(self):
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def times(self):
        """Each job's time less the probes run during it, as measured and as
        scaled to the reference host: divided by the mean reading from
        SCALE_WINDOW_S before the job to SCALE_WINDOW_S after it, or else
        the last reading before it, over REFERENCE_PROBE_S.  A probe runs
        between two bytecodes, so it lies wholly inside a job or wholly
        outside it."""
        starts = [r[0] for r in self.readings]
        measured, scaled = [], []
        for t0, t1 in self.jobs:
            lo, hi = bisect_left(starts, t0), bisect_right(starts, t1)
            net = t1 - t0 - sum(end - start for start, end, _ in self.readings[lo:hi])
            near = self.readings[bisect_left(starts, t0 - SCALE_WINDOW_S):
                                 bisect_right(starts, t1 + SCALE_WINDOW_S)]
            measured.append(net)
            scaled.append(net * REFERENCE_PROBE_S
                          / statistics.mean(v for *_, v in near or self.readings[lo - 1:lo]))
        return measured, scaled


# --- the closed loop ---

def invoke(cli, argv: list[str]):
    """One CLI call with stdout and stderr captured; returns (exit code,
    stdout).  An exception escaping ``main`` is recorded as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def pass_count(golden: dict, workload: str, seconds: float) -> int:
    """Whole passes that take about ``seconds`` at the job costs recorded in
    the golden file.  The count depends on the workload alone, never on the
    seed or on how fast this run happens to go, so every run of a workload
    times the same multiset of jobs and its order statistics compare."""
    spec = golden["workloads"][workload]
    nominal = sum(job["cost_s"] for job in spec["fixed"]) + sum(
        pool.get("per_pass", 1) * statistics.mean(job["cost_s"] for job in group)
        for pool in spec["pools"] for group in pool["groups"])
    return max(1, round(seconds / nominal))


def run_passes(cli, argvs: list[list[str]], passes: int, tracer=None, host=None):
    """``passes`` whole passes over the job list.  Returns
    ([(job index, exit code, stdout, job seconds)], [pass seconds]), a pass
    taking the sum of its job times.  With an entered HostSpeed ``host``, the
    (start, end) of each job is added to ``host.jobs``."""
    clock = time.perf_counter
    records = []
    pass_times = []
    for _ in range(passes):
        busy = 0.0
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = len(records)
            t0 = clock()
            rc, out = invoke(cli, argv)
            t1 = clock()
            if host is not None:
                host.jobs.append((t0, t1))
            records.append((i, rc, out, t1 - t0))
            busy += t1 - t0
        pass_times.append(busy)
    return records, pass_times


def throughput(jobs_per_pass: int, pass_times: list[float]) -> float:
    """Median over passes of completed jobs per second: a slow spell on a
    shared machine spoils one pass, not the run."""
    return statistics.median(jobs_per_pass / t for t in pass_times)


def end_to_end(setup_s: float, jobs_per_pass: int, times: list[float]) -> dict:
    """The timed end-to-end metrics from the job times of whole passes."""
    passes = [sum(times[k:k + jobs_per_pass]) for k in range(0, len(times), jobs_per_pass)]
    return {
        "setup_s": setup_s,
        "jobs_per_s": throughput(jobs_per_pass, passes),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail(times)[0],
    }


def tail(samples: list[float]):
    """The job time at nearest rank ``max(ceil(0.99 n), n - TAIL_BEYOND)`` of
    the ``n`` sorted samples, as (value, percentile, samples beyond it).  From
    1000 samples on this is the highest percentile that has TAIL_BEYOND
    samples beyond it; with fewer it stays at p99 rather than fall, so with
    fewer than 100 samples it is the slowest job of the run."""
    s = sorted(samples)
    n = len(s)
    rank = max(-(-TAIL_FLOOR_PCT * n // 100), n - TAIL_BEYOND)
    return s[rank - 1], 100.0 * rank / n, n - rank


# --- correctness ---

_DEPTHS = (re.compile(r'("certified_depth": )\d+'), re.compile(r"(certified, depth )\d+"))


def mask_depths(text: str) -> str:
    for pattern in _DEPTHS:
        text = pattern.sub(r"\1B", text)
    return text


def expand(num, den, count: int) -> list:
    """Taylor coefficients of num/den, computed here so that the check does
    not trust the program's own expansion."""
    d0 = den[0]
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            acc -= den[i] * out[n - i]
        out.append(acc // d0 if acc % d0 == 0 else Fraction(acc, d0))
    return out


_TERM = re.compile(r"([+-]?)([^+-]+)")


def poly_eval(text: str, env: dict):
    """Value of a polynomial printed as in the CLI ("3*x^2*y - z^3 + 7")."""
    total = 0
    for sign, body in _TERM.findall(text.replace(" ", "")):
        value = -1 if sign == "-" else 1
        for factor in body.split("*"):
            base, _, exp = factor.partition("^")
            value *= (int(base) if base.isdigit() else env[base]) ** (int(exp) if exp else 1)
        total += value
    return total


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _beyond(depth, rng) -> list[int]:
    if not isinstance(depth, int) or depth < 1:
        raise ValueError(f"recorded depth {depth!r} is not a positive integer")
    return [rng.randint(depth, 10 * depth) for _ in range(CHECK_POINTS)]


def _sign(kind: str, n: int) -> int:
    return -1 if kind == "alternating" and n % 2 else 1


def theorem_failure(thm: dict, depth, rng):
    ns = _beyond(depth, rng)
    seqs = [expand(g["num"], g["den"], max(ns) + 1) for g in thm["gfs"]]
    a, b, c = thm["a"], thm["b"], thm["c"]
    for n in ns:
        if a * seqs[0][n] ** 3 + a * seqs[1][n] ** 3 + b * seqs[2][n] ** 3 != c * _sign(
                thm["rhs_kind"], n):
            return f"theorem fails at n={n}, beyond its depth {depth}"
    return None


def _check_forge(job, out, rng):
    for thm in json.loads(out):
        why = theorem_failure(thm, thm["certified_depth"], rng)
        if why:
            return why
    return None


def _check_verify(job, out, rng):
    (content,) = job["files"].values()
    data = json.loads(content)
    thms = data if isinstance(data, list) else [data]
    lines = out.splitlines()
    if len(lines) != len(thms):
        return "one verdict line per theorem expected"
    for line, thm in zip(lines, thms):
        why = theorem_failure(thm, int(line.rsplit(" ", 1)[1]), rng)
        if why:
            return why
    return None


def _check_pell(job, out, rng):
    orbit = json.loads(out)
    form = _arg(job["argv"], "--form")
    ns = _beyond(orbit["certified_depth"], rng)
    ms = expand(orbit["gf_m"]["num"], orbit["gf_m"]["den"], max(ns) + 1)
    vs = expand(orbit["gf_n"]["num"], orbit["gf_n"]["den"], max(ns) + 1)
    for n in ns:
        if poly_eval(form, {"m": ms[n], "n": vs[n]}) != orbit["target"] * _sign(orbit["kind"], n):
            return f"orbit leaves the form's level at n={n}"
    return None


def _check_findform(job, out, rng):
    form = json.loads(out)
    argv = job["argv"]
    gfs = []
    for i, a in enumerate(argv):
        if a == "--gf":
            num, den = argv[i + 1].split(";")
            gfs.append(([int(c) for c in num.split(",") if c],
                        [int(c) for c in den.split(",") if c]))
    dens = {tuple(den) for _, den in gfs}
    # degree of the lcm of the denominators, bounded by their product's
    r = len(next(iter(dens))) - 1 if len(dens) == 1 else sum(len(d) - 1 for d in dens)
    depth = comb(r + form["degree"], form["degree"]) + 2
    ns = _beyond(depth, rng)
    seqs = [expand(num, den, max(ns) + 1) for num, den in gfs]
    for n in ns:
        value = 0
        for ev, c in form["coeffs"]:
            term = c
            for seq, e in zip(seqs, ev):
                term *= seq[n] ** e
            value += term
        want = 0 if form["target"] == "none" else form["C"] * _sign(form["target"], n)
        if value != want:
            return f"form misses its target at n={n}"
    return None


def _check_eliminate(job, out, rng):
    argv = job["argv"]
    if out.strip() in ("", "0"):
        return "empty implicit equation"
    px, py, pz = (_arg(argv, f) for f in ("--x", "--y", "--z"))
    for _ in range(CHECK_POINTS):
        env = {"m": rng.randint(-30, 30), "n": rng.randint(-30, 30)}
        point = {"x": poly_eval(px, env), "y": poly_eval(py, env), "z": poly_eval(pz, env)}
        if poly_eval(out.strip(), point) != 0:
            return f"implicit equation does not vanish at {env}"
    return None


def _check_twist(job, out, rng):
    argv = job["argv"]
    rows = [[int(c) for c in row.split(",")] for row in _arg(argv, "--matrix").split(";")]
    base = _arg(argv, "--base", "x^3 + y^3 + z^3")
    for _ in range(CHECK_POINTS):
        v = [rng.randint(-20, 20) for _ in range(3)]
        image = dict(zip("xyz", (sum(r * x for r, x in zip(row, v)) for row in rows)))
        if poly_eval(out.strip(), dict(zip("xyz", v))) != poly_eval(base, image):
            return f"twist disagrees with the substitution at {v}"
    return None


SOUNDNESS = {
    "forge": _check_forge,
    "verify": _check_verify,
    "pell": _check_pell,
    "findform": _check_findform,
    "eliminate": _check_eliminate,
    "twist": _check_twist,
}


def job_failure(job: dict, rc, out: str, rng):
    """None when the job's result is correct, else the reason."""
    if rc != job["rc"]:
        return f"exit code {rc!r}, golden {job['rc']}"
    if mask_depths(out) != mask_depths(job["stdout"]):
        return "stdout differs from the golden output"
    if rc != 0:
        return None
    try:
        return SOUNDNESS[job["kind"]](job, out, rng)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"output could not be checked: {type(exc).__name__}: {exc}"


def count_failures(jobs: list[dict], records, seed: int):
    """Number of failed records and the distinct reasons.  Each distinct
    output of a job is checked once."""
    rng = random.Random(f"check:{seed}")
    verdict: dict = {}
    failed = 0
    reasons = {}
    for i, rc, out, _ in records:
        key = (i, rc, out)
        if key not in verdict:
            verdict[key] = job_failure(jobs[i], rc, out, rng)
        if verdict[key]:
            failed += 1
            reasons[jobs[i]["id"]] = verdict[key]
    return failed, reasons


def trace_mismatches(untraced, traced) -> int:
    """Traced jobs whose output differs from the untraced output of the same
    job: tracing must not change what the program prints."""
    seen = {}
    for i, rc, out, _ in untraced:
        seen.setdefault(i, (rc, out))
    return sum(1 for i, rc, out, _ in traced if i in seen and seen[i] != (rc, out))


# --- reporting ---

def report(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> None:
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def layer_units(metrics: dict) -> dict:
    units = {}
    for name in metrics:
        field = name.rsplit(".", 1)[1]
        if field == "self_s":
            units[name] = "s"
        elif field.endswith("_ratio") or field == "nullspace_per_call":
            units[name] = "ratio"
        elif field == "jobs_per_s" or name.endswith("overhead_jobs_per_s"):
            units[name] = "1/s"
        else:
            units[name] = "count"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="run length; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.seconds is None:
            args.seconds = default_seconds()
        import_cli()
        setup_measured, setup_s = measure_setup(args.workload, args.seed)
        cli, golden, jobs, argvs = setup(args.workload, args.seed, workdir)
        if not args.trace:
            with HostSpeed() as host:
                records, pass_times = run_passes(
                    cli, argvs, pass_count(golden, args.workload, args.seconds), host=host)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            mismatched = 0
        else:
            from tracer import Tracer

            half = pass_count(golden, args.workload, args.seconds / 2)
            plain, plain_times = run_passes(cli, argvs, half)
            tracer = Tracer()
            tracer.install()
            try:
                records, pass_times = run_passes(cli, argvs, half, tracer)
            finally:
                tracer.uninstall()
            mismatched = trace_mismatches(plain, records)
            records = plain + records
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # left in place while another run uses it

    failed, reasons = count_failures(jobs, records, args.seed)
    failed += mismatched
    for job_id, why in sorted(reasons.items()):
        print(f"FAILED {job_id}: {why}")
    if mismatched:
        print(f"FAILED: {mismatched} traced outputs differ from untraced ones")
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{len(records)} jobs run")
    print(f"failed_ratio = {failed / len(records)} ratio")

    if not args.trace:
        measured, times = host.times()
        _, pct, beyond = tail(times)
        print(f"job_s.tail is p{pct:.1f}: {beyond} of {len(times)} samples beyond it, "
              f"{len(pass_times)} passes")
        print(f"host speed: {len(host.readings)} probes, median "
              f"{statistics.median(v for *_, v in host.readings)} s, "
              f"reference {REFERENCE_PROBE_S} s")
        for name, v in end_to_end(setup_measured, len(jobs), measured).items():
            print(f"as measured: {name} = {v} {END_TO_END_UNITS[name]}")
        metrics = dict(end_to_end(setup_s, len(jobs), times), peak_rss_mb=peak_rss_mb)
        units = END_TO_END_UNITS
    else:
        traced_jps = throughput(len(jobs), pass_times)
        metrics = tracer.layer_metrics(len(pass_times))
        metrics["trace.jobs_per_s"] = traced_jps
        metrics["trace.overhead_jobs_per_s"] = throughput(len(jobs), plain_times) - traced_jps
        units = layer_units(metrics)
        out = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(out, [job["id"] for job in jobs] * len(pass_times))
        print(f"{len(tracer.start)} spans written to {out.relative_to(ROOT)}")
    report(metrics, units, failed == 0, len(records), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
