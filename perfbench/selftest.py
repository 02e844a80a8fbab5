"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on one pass of every workload:
- traced and untraced passes print byte-identical job outputs, the untraced
  one with the host-speed probes running;
- every metric name matches [A-Za-z0-9_.-]+ and BENCHMARK.json lists exactly
  the metrics the benchmark emits;
- the correctness gate can fail: a corrupted golden entry, and a certificate
  whose claim is false beyond its depth, are both counted as failed jobs;
- a held-out seed gives the same job count per pass and the same top-ranked
  layer as the default seed;
- the tail statistic never drops below p99;
- the host-speed scaling leaves the probes' time out of job times.
It also prints each workload's layer shares (self time over traced time).
Exits 1 if any check fails.  Takes about two minutes.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import sys

import run
from tracer import Tracer

HELD_OUT_SEED = 2
NAME = re.compile(r"[A-Za-z0-9_.-]+")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def traced_pass(cli, argvs):
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = run.run_passes(cli, argvs, 1, tracer)
    finally:
        tracer.uninstall()
    return records, tracer


def shares(tracer: Tracer) -> dict[str, float]:
    own = tracer.self_times()
    total = sum(own.values())
    return {k: round(v / total, 4) for k, v in sorted(own.items(), key=lambda kv: -kv[1])
            if v / total >= 0.005}


def main() -> int:
    workdir = run.WORK_ROOT / "selftest"
    golden = run.load_golden()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = None
    summary = {}
    try:
        for workload in run.WORKLOADS:
            cli, _, jobs, argvs = run.setup(workload, run.DEFAULT_SEED, workdir)
            with run.HostSpeed() as host:
                plain, _ = run.run_passes(cli, argvs, 1, host=host)
            traced, tracer = traced_pass(cli, argvs)
            check(run.trace_mismatches(plain, traced) == 0
                  and [r[:3] for r in plain] == [r[:3] for r in traced],
                  f"{workload}: traced and untraced outputs are byte-identical "
                  f"({len(host.readings)} host-speed probes in the untraced pass)")
            failed, reasons = run.count_failures(jobs, plain, run.DEFAULT_SEED)
            check(failed == 0, f"{workload}: every job matches its golden output {reasons}")
            metrics = tracer.layer_metrics(1)
            layer_names = list(metrics) + ["trace.jobs_per_s", "trace.overhead_jobs_per_s"]
            top = next(iter(shares(tracer)))

            held_jobs = run.select_jobs(golden, workload, HELD_OUT_SEED)
            shutil.rmtree(workdir, ignore_errors=True)
            held_jobs, argvs_h = run.materialize(golden, held_jobs, workdir)
            held, tracer_h = traced_pass(cli, argvs_h)
            failed_h, reasons_h = run.count_failures(held_jobs, held, HELD_OUT_SEED)
            check(failed_h == 0, f"{workload}: held-out seed matches golden {reasons_h}")
            check(len(held_jobs) == len(jobs),
                  f"{workload}: {len(jobs)} jobs per pass for both seeds")
            top_h = next(iter(shares(tracer_h)))
            check(top == top_h, f"{workload}: top layer {top} for both seeds (held-out: {top_h})")
            summary[workload] = {"jobs_per_pass": len(jobs), "shares": shares(tracer),
                                 "held_out_shares": shares(tracer_h)}
            shutil.rmtree(workdir, ignore_errors=True)

        # the gate can fail: corrupt one golden stdout of the certify workload
        cli, _, jobs, argvs = run.setup("certify", run.DEFAULT_SEED, workdir)
        records, _ = run.run_passes(cli, argvs, 1)
        victim = next(j for j in jobs if j["rc"] == 0)
        bad_jobs = [dict(j, stdout=j["stdout"] + "corrupted\n") if j is victim else j
                    for j in jobs]
        failed, reasons = run.count_failures(bad_jobs, records, run.DEFAULT_SEED)
        expected = sum(1 for r in records if jobs[r[0]] is victim)
        check(failed == expected and victim["id"] in reasons,
              f"a corrupted golden entry is counted (failed_ratio {failed}/{len(records)})")

        # ... and a depth that certifies a false theorem is caught beyond the depth
        (mutant,), _ = run.materialize(
            golden, golden["workloads"]["certify"]["pools"][0]["groups"][0][:1], workdir)
        why = run.job_failure(dict(mutant, rc=0, stdout="certified, depth 22\n"), 0,
                              "certified, depth 22\n", run.random.Random(0))
        check(why is not None and "beyond its depth" in why,
              f"an unsound certificate fails the beyond-depth check ({why})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()

    host = run.HostSpeed()
    ref, window = run.REFERENCE_PROBE_S, run.SCALE_WINDOW_S
    host.readings = [(0.0, 0.01, ref), (1.0, 1.01, 2 * ref), (2.0, 2.01, 4 * ref),
                     (2.5 + 2 * window, 2.51 + 2 * window, 8 * ref)]
    host.jobs = [(0.5, 1.5), (1.02, 2.5), (1.0 + 1.5 * window, 2.0 - 1.5 * window)]
    measured, scaled = host.times()
    want = [0.99, 1.47, 1.0 - 3 * window, 0.99 / 2, 1.47 / 3, (1.0 - 3 * window) / 2]
    check(len(measured + scaled) == 6
          and all(abs(a - b) < 1e-9 for a, b in zip(measured + scaled, want)),
          "host-speed probes are left out of job times, and a job is scaled by the "
          "readings from SCALE_WINDOW_S before it to SCALE_WINDOW_S after it, or else by the "
          "last one before it")

    tails = {n: run.tail([float(i) for i in range(n)])
             for n in (4, 12, 44, 99, 100, 999, 1000, 5382)}
    check(all(pct >= 99 for _, pct, _ in tails.values())
          and all(beyond == 10 for n, (_, _, beyond) in tails.items() if n >= 1000),
          "job_s.tail never drops below p99, and has ten samples beyond it from 1000 samples on")

    emitted = list(run.END_TO_END_UNITS) + layer_names
    check(all(NAME.fullmatch(n) for n in emitted), "every metric name matches [A-Za-z0-9_.-]+")
    check([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS),
          "BENCHMARK.json lists the end-to-end metrics")
    check([m["name"] for m in bench["per_layer"]] == layer_names,
          "BENCHMARK.json lists the per-layer metrics")
    print(json.dumps(summary, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
