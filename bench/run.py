"""Benchmark of the ``nakayama`` engine, run from the root of a checkout:

    python3 bench/run.py --workload census|large|cli --seed N \\
        --seconds S --trace 0|1 [--smoke] [--record-digest]

The library is imported from ``src/`` of the same checkout; the run
fails, printing no result, when it cannot be.  Every job of the
workload's pass runs once outside any timing and is cross-checked (see
``workloads.check``); at the default seed its output must also match
the committed digest.  Then:

* ``--trace 0`` times a closed loop over the pass, one job at a time in
  this one thread, for ``--seconds`` and at least MIN_JOBS jobs, and
  reports the end-to-end metrics;
* ``--trace 1`` times one untraced and one traced pass and reports the
  per-layer metrics of the traced pass, and the tracing overhead.

A job fails when it raises, exits with the wrong code, fails its
cross-check or the digest, or returns another output than its first
run.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGEST = HERE / "digest.json"
DEFAULT_SEED = 0
MIN_JOBS = 100
SETUP_SAMPLES = 41

# What a user of each workload waits for before the first job can start.
SETUP_CODE = {
    "census": "import nakayama",
    "large": "import nakayama",
    "cli": "import nakayama.cli; nakayama.cli.build_parser()",
}


def log(*parts):
    print("bench:", *parts, file=sys.stderr)


def load_library():
    sys.path.insert(0, str(SRC))
    try:
        import nakayama
    except ImportError as exc:
        sys.exit(f"bench: cannot import nakayama from {SRC}: {exc}")
    if not Path(nakayama.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported nakayama from {nakayama.__file__}, "
                 f"not from {SRC}")


def setup_sample(workload):
    """CPU time to import the library (and build the CLI parser) in a
    fresh interpreter."""
    code = ("import sys, time; t = time.process_time(); "
            f"sys.path.insert(0, {str(SRC)!r}); {SETUP_CODE[workload]}; "
            "print(time.process_time() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout)


def job_hash(out):
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def first_pass(workloads, jobs):
    """Run and cross-check every job once.  Returns the outputs and the
    indices of failed jobs."""
    outputs, bad = [], set()
    for k, job in enumerate(jobs):
        try:
            out = workloads.run(job)
            problem = workloads.check(job, out)
        except Exception:  # a failing job is counted, not fatal
            out, problem = None, traceback.format_exc()
        if problem:
            log(f"job {k} {job[0]} failed:", problem)
            bad.add(k)
        outputs.append(out)
    return outputs, bad


def check_digest(workload, seed, outputs, bad, record):
    """At the default seed every output must hash as committed."""
    if seed != DEFAULT_SEED:
        return
    table = json.loads(DIGEST.read_text()) if DIGEST.exists() else {}
    hashes = [job_hash(out) for out in outputs]
    if record:
        table[workload] = hashes
        DIGEST.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        log(f"recorded {len(hashes)} digests for {workload}")
        return
    want = table.get(workload)
    if want is None or len(want) != len(hashes):
        log(f"no committed digest for {workload}")
        bad.update(range(len(hashes)))
        return
    for k, (got, exp) in enumerate(zip(hashes, want)):
        if got != exp:
            log(f"job {k} output differs from the committed digest")
            bad.add(k)


def timed_loop(workloads, jobs, outputs, bad, seconds, setup, n_setup):
    """Closed loop over blocks of whole passes, each of at least
    MIN_JOBS jobs, until ``seconds`` of job time have passed.  Every run
    thus times the same mix.  In between jobs, ``setup()`` is sampled
    up to ``n_setup`` times at even intervals, so that set-up time is
    measured over the same spell of the machine as the jobs; sampling is
    left out of the blocks' time.  Returns the job latencies (ns) and
    wall time (s) of each block, the number of failed jobs and the
    set-up samples."""
    clock = time.perf_counter_ns
    per_block = math.ceil(MIN_JOBS / len(jobs))
    blocks, failed, samples = [], 0, []
    interval = int(seconds * 1e9 / n_setup)
    begin = clock()
    paused = 0  # ns spent sampling set-up time
    while not blocks or clock() - paused < begin + int(seconds * 1e9):
        latencies = []
        start, paused_before = clock(), paused
        for _ in range(per_block):
            for i, job in enumerate(jobs):
                if (len(samples) < n_setup and
                        clock() - paused >= begin + len(samples) * interval):
                    t = clock()
                    samples.append(setup())
                    paused += clock() - t
                t0 = clock()
                try:
                    out = workloads.run(job)
                except Exception:
                    out = None
                    bad.add(i)
                latencies.append(clock() - t0)
                failed += i in bad or out != outputs[i]
        wall = clock() - start - (paused - paused_before)
        blocks.append((latencies, wall / 1e9))
    return blocks, failed, samples


def one_pass(workloads, jobs):
    t0 = time.perf_counter_ns()
    outs = []
    for job in jobs:
        try:
            outs.append(workloads.run(job))
        except Exception:
            outs.append(None)
    return outs, (time.perf_counter_ns() - t0) / 1e9


def end_to_end(args, workloads, jobs, outputs, bad):
    """Each timed metric is the median over blocks of its block value."""
    n_setup = 3 if args.smoke else SETUP_SAMPLES
    blocks, failed, setups = timed_loop(
        workloads, jobs, outputs, bad, args.seconds,
        lambda: setup_sample(args.workload), n_setup)
    while len(setups) < n_setup:
        setups.append(setup_sample(args.workload))
    rates, p50s, p90s = [], [], []
    for latencies, wall in blocks:
        deciles = statistics.quantiles(latencies, n=10)
        rates.append(len(latencies) / wall)
        p50s.append(deciles[4] / 1e6)
        p90s.append(deciles[8] / 1e6)
    attempted = sum(len(latencies) for latencies, _ in blocks)
    log(f"{attempted} jobs in {len(blocks)} blocks of "
        f"{len(blocks[0][0])} jobs; jobs/s per block:",
        " ".join(f"{r:.4g}" for r in rates))
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(rates),
        "job_ms_p50": statistics.median(p50s),
        "job_ms_p90": statistics.median(p90s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    return attempted, failed, metrics


def per_layer(workloads, jobs, outputs, bad):
    from tracer import Tracer
    plain, t_plain = one_pass(workloads, jobs)
    tr = Tracer()
    tr.install()
    try:
        traced, t_traced = one_pass(workloads, jobs)
    finally:
        tr.restore()
    failed = sum(k in bad or out != outputs[k]
                 for run in (plain, traced) for k, out in enumerate(run))
    log(f"untraced pass {t_plain:.2f} s, traced pass {t_traced:.2f} s")
    metrics = tr.metrics()
    metrics["cli.out_bytes"] = sum(len(out[1]) for job, out in
                                   zip(jobs, traced) if job[0] == "cli")
    metrics["trace.overhead_frac"] = t_traced / t_plain - 1
    return 2 * len(jobs), failed, metrics


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, for a quick end-to-end check")
    p.add_argument("--record-digest", action="store_true",
                   help="write this run's output digest to digest.json")
    args = p.parse_args(argv)

    load_library()
    import workloads

    jobs = workloads.generate(args.workload, args.seed, args.smoke)
    outputs, bad = first_pass(workloads, jobs)
    if not args.smoke:
        check_digest(args.workload, args.seed, outputs, bad,
                     args.record_digest)
    if args.trace:
        attempted, failed, values = per_layer(workloads, jobs, outputs, bad)
        declared = spec["per_layer"]
    else:
        attempted, failed, values = end_to_end(args, workloads, jobs,
                                               outputs, bad)
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"bench: metrics {sorted(set(values))} do not match "
                 "BENCHMARK.json")
    result = {
        "correct": not bad and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
