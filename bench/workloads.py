"""Seeded inputs, jobs and correctness checks for the benchmark workloads.

A workload is a list of jobs.  A job is ``(kind, args)``: ``run(job)``
calls the public API of ``nakayama`` on ``args`` and returns a
comparable output, and ``check(job, out)`` cross-checks that output
against the library by a second route, returning a problem string or
``None``.  Generators draw everything from ``random.Random(seed)``; the
library only ever sees the generated series and parameters.

Outputs keep only the parts of a result that later changes must not
alter.  A library verdict is reduced to ``(ok, candidate, orbit)``, and
to ``(ok, candidate, None)`` when it fails, so a change to how a
failing check ends (its witnesses, stopping at the first failure)
keeps the digest of the ``census`` and ``large`` jobs.  CLI jobs keep
their exact stdout bytes and exit code, and ``check-nct`` prints the
failures, so any such change alters the digest of ``cli`` and needs
``run.py --record-digest``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random

import nakayama as nk
from nakayama import cli

CENSUS_M = (9, 10, 11, 12)


# -- Kupisch series samplers -------------------------------------------------

@functools.cache
def _completions(m):
    """W[t][d]: number of ways to choose the entries at distances
    t+1..m from the sink, given entry d at distance t.  The entry at
    distance t lies in [2, min(previous + 1, t)], the sink entry is 1,
    so W[1][1] is Catalan(m-1)."""
    W = [None] * (m + 1)
    W[m] = {d: 1 for d in range(1, m + 1)}
    for t in range(m - 1, 0, -1):
        W[t] = {d: sum(W[t + 1][e] for e in range(2, min(d + 1, t + 1) + 1))
                for d in range(1, t + 1)}
    return W


def uniform_series(rng, m):
    """A Kupisch series drawn uniformly from all Catalan(m-1) series with
    m vertices, by unranking a uniform rank through the completion
    counts, back to front."""
    W = _completions(m)
    rank = rng.randrange(W[1][1])
    back = [1]
    for t in range(2, m + 1):
        for e in range(2, min(back[-1] + 1, t) + 1):
            if rank < W[t][e]:
                back.append(e)
                break
            rank -= W[t][e]
    return tuple(reversed(back))


def low_series(rng, m, height):
    """A long series with entries at most ``height``: a random walk back
    to front under the Kupisch step rule (not uniform)."""
    back = [1]
    for t in range(2, m + 1):
        back.append(rng.randint(2, min(back[-1] + 1, t, height)))
    return tuple(reversed(back))


def staircase(m, h):
    """Entries of lambda_mh(m, h): (h^(m-h+1), h-1, ..., 1)."""
    return (h,) * (m - h + 1) + tuple(range(h - 1, 0, -1))


def modules(entries):
    """Module coordinates (i, j): i + j <= m + 1 and j at most the length
    of the projective on co-diagonal i + j."""
    m = len(entries)
    return [(i, j) for i in range(1, m + 1) for j in range(1, m + 2 - i)
            if j <= entries[m - i - j + 1]]


def stair_height(entries):
    """Length of the staircase tail (h, ..., 2, 1)."""
    h = 1
    while h < len(entries) and entries[-h - 1] == h + 1:
        h += 1
    return h


def fmt(entries):
    return ",".join(map(str, entries))


# -- workload generators -------------------------------------------------------

def census_jobs(rng, per_m=150):
    """An equal number of uniform series for each m in CENSUS_M."""
    jobs = [("census", (uniform_series(rng, m),))
            for m in CENSUS_M for _ in range(per_m)]
    rng.shuffle(jobs)
    return jobs


def _grid(lo, hi, k, rng, jitter):
    """k sizes spread evenly in log scale over [lo, hi], each raised by
    up to jitter, so every seed gets the same spread of sizes and the
    log-log growth slopes are fitted over evenly spaced points."""
    return [round(lo * (hi / lo) ** (i / max(k - 1, 1)))
            + rng.randint(0, jitter) for i in range(k)]


def large_jobs(rng, count=(30, 26, 48),
               sizes=((30, 75), (500, 1600), (40, 240))):
    """Three families of single big jobs, ``count`` jobs each, with sizes
    over the ranges ``sizes``: tall abutment height h, long series length
    m and (n, d) dimension d.  The parameters that set a job's cost
    (size, n, height, chain or extension) follow fixed cycles over the
    size grid, so the seed changes the instances but hardly the total
    work.  Jobs are interleaved so that any prefix of a pass holds the
    families in proportion."""
    tall = [("tall", (staircase(2 * h + rng.randint(0, 2), h), 2 + k % 3))
            for k, h in enumerate(_grid(*sizes[0], count[0], rng, 1))]
    long_ = [("long", (low_series(rng, m, 3 + k % 6), 2 + k % 4))
             for k, m in enumerate(_grid(*sizes[1], count[1], rng, 10))]
    nd = []
    for k, d in enumerate(_grid(*sizes[2], count[2], rng, 2)):
        n = 2 + k % 7
        if k % 4 == 0:  # a pure chain algebra: d a multiple of n
            d = n * max(1, round(d / n))
        else:  # a base family member extended by chains
            while d % n == 0 or not nk.supported(n, d):
                d += 1
        nd.append(("construct", (n, d)))
    ranked = []
    for family in (tall, long_, nd):
        rng.shuffle(family)
        ranked += [((k + 0.5) / len(family), job)
                   for k, job in enumerate(family)]
    return [job for _, job in sorted(ranked, key=lambda r: r[0])]


def _slice(rng, h):
    """Slice indices (i_1, ..., i_h): i_h = 1, each step down a length
    keeps the index or raises it by one."""
    idx = [1]
    for _ in range(h - 1):
        idx.append(idx[-1] + rng.randint(0, 1))
    return tuple(reversed(idx))


def cli_jobs(rng, batch=200, heights=(2, 3, 4, 5, 6)):
    """One pass of the CLI mix: a fixed number of calls of each kind, in
    seeded order.  As in ``large_jobs``, the parameters that set a call's
    cost follow fixed cycles and only the instances are seeded."""
    jobs = []

    def add(kind, argv, stdin=""):
        jobs.append(("cli", (kind, tuple(argv), stdin)))

    for k in range(4):
        n = 2 + k
        lines = [fmt(uniform_series(rng, rng.randint(4, 12)))
                 for _ in range(batch)]
        add("check-nct", ["check-nct", "--kupisch", "-", "--n", str(n)]
            + (["--json"] if k % 2 == 0 else []), "\n".join(lines) + "\n")
    invalid = ["2,1,1", "3,1", "4,2,2,1", "1,2,1", "2,0,1"]
    for k in range(2):
        lines = [fmt(uniform_series(rng, rng.randint(3, 10)))
                 for _ in range(batch)]
        for bad in rng.sample(invalid, 3):
            lines.insert(rng.randrange(len(lines) + 1), bad)
        add("validate", ["validate", "--kupisch", "-"]
            + (["--json"] if k % 2 == 0 else []), "\n".join(lines) + "\n")
    for bad in rng.sample(invalid, 2):
        add("invalid", ["check-nct", "--kupisch", bad, "--n", "2"])
    for k, form in enumerate(("ascii", "dot", "tikz", "json") * 2):
        entries = uniform_series(rng, 60 + 8 * k + rng.randint(0, 3))
        mods = modules(entries)
        high = sorted(rng.sample(mods, len(mods) // 8))
        add("ar-quiver", ["ar-quiver", "--kupisch", fmt(entries),
                          "--format", form, "--highlight",
                          json.dumps([list(x) for x in high])])
    for k in range(4):
        a = uniform_series(rng, 8 + 5 * k + rng.randint(0, 2))
        b = uniform_series(rng, 23 - 5 * k + rng.randint(0, 2))
        h = rng.randint(1, min(stair_height(a), b[0]))
        add("glue", ["glue", "--b", fmt(b), "--a", fmt(a),
                     "--height", str(h), "--check", "--json"])
    for h in heights:
        top = h + rng.randint(0, 2)
        entries = staircase(top + rng.randint(0, 6), top)
        side = rng.choice(["left", "right"])
        add("fractures", ["fractures", "--kupisch", fmt(entries),
                          "--side", side, "--height", str(h), "--json"])
    for _ in range(3):
        h, n = rng.randint(3, 6), rng.randint(2, 4)
        add("complete-slice", ["complete-slice", "--h", str(h), "--slice",
                               fmt(_slice(rng, h)), "--n", str(n), "--side",
                               rng.choice(["left", "right"]), "--json"])
    for k in range(4):
        n = 2 + k
        d = rng.choice([d for d in range(n, 26) if nk.supported(n, d)])
        emit = ("certificate", "kupisch", "certificate", "quiver")[k % 4]
        add("construct-nd", ["construct-nd", "--n", str(n), "--d", str(d),
                             "--emit", emit, "--json"])
    rng.shuffle(jobs)
    return jobs


def generate(workload, seed, smoke=False):
    """The job list of one pass; ``smoke`` gives the smallest sizes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return census_jobs(rng, per_m=2 if smoke else 150)
    if workload == "large":
        if smoke:
            return large_jobs(rng, count=(2, 2, 2),
                              sizes=((4, 8), (20, 80), (6, 20)))
        return large_jobs(rng)
    if workload == "cli":
        if smoke:
            return cli_jobs(rng, batch=5, heights=(2, 3))
        return cli_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- running jobs ---------------------------------------------------------------

def _verdict(v):
    return (v.ok, v.candidate, v.orbit if v.ok else None)


def _run_cli(kind, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = cli.sys.stdin
    cli.sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        cli.sys.stdin = saved
    return code, out.getvalue().encode()


def run(job):
    kind, args = job
    if kind == "census":
        K = nk.KupischSeries(args[0])
        return nk.gldim(K), tuple(_verdict(nk.check_nct(K, n))
                                  for n in range(2, K.m + 1))
    if kind == "tall":
        entries, n = args
        return _verdict(nk.check_nct(nk.KupischSeries(entries), n))
    if kind == "long":
        entries, n = args
        K = nk.KupischSeries(entries)
        return nk.gldim(K), _verdict(nk.check_nct(K, n))
    if kind == "construct":
        cert = nk.construct(*args)
        return (cert.kupisch.entries, cert.gldim, cert.pd_source_injective,
                _verdict(cert.verdict))
    if kind == "cli":
        return _run_cli(*args)
    raise ValueError(f"unknown job kind {kind!r}")


# -- cross-checks -----------------------------------------------------------------

def _reverify(K, n, verdict):
    """An ok verdict must survive re-verification of its own candidate."""
    ok, cand, orbit = verdict
    if not ok:
        return None
    F = nk.projective_injective_fracturing(K)
    again = nk.check_fractured(K, n, F, candidate=cand)
    if not again.ok or again.candidate != cand or again.orbit != orbit:
        return f"ok verdict for n={n} not re-verified on its candidate"
    return None


def _check_cli(kind, argv, stdin, out):
    code, raw = out
    text = raw.decode()
    as_json = "--json" in argv or "json" in argv
    records = [json.loads(line) for line in text.splitlines()] \
        if as_json else None
    if kind == "check-nct":
        n = int(argv[argv.index("--n") + 1])
        series = stdin.split()
        verdicts = [nk.check_nct(nk.parse_series(s), n) for s in series]
        want = 0 if all(v.ok for v in verdicts) else 1
        if code != want:
            return f"exit {code}, verdicts say {want}"
        if as_json:
            expect = [dict(v.to_json(), kupisch=list(nk.parse_series(s).entries),
                           n=n) for s, v in zip(series, verdicts)]
            if records != expect:
                return "check-nct JSON differs from Verdict.to_json"
        elif len(text.splitlines()) != len(series):
            return "check-nct printed a wrong number of lines"
        return None
    if kind == "validate":
        results = []
        for s in stdin.split():
            try:
                results.append({"ok": True,
                                "kupisch": list(nk.validate(
                                    [int(t) for t in s.split(",")]).entries)})
            except nk.KupischError as exc:
                results.append({"ok": False, "violation": exc.violation})
        want = 2 if any(not r["ok"] for r in results) else 0
        if code != want:
            return f"exit {code}, expected {want}"
        if as_json and records != results:
            return "validate JSON differs from the library"
        if not as_json and len(text.splitlines()) != len(results):
            return "validate printed a wrong number of lines"
        return None
    if kind == "invalid":
        return None if code == 2 and not raw else f"invalid input gave exit {code}"
    if code != 0:
        return f"exit {code}, expected 0"
    if kind == "ar-quiver":
        if not as_json:
            return None if raw else "empty rendering"
        K = nk.parse_series(argv[argv.index("--kupisch") + 1])
        high = [tuple(x) for x in json.loads(argv[argv.index("--highlight") + 1])]
        data = nk.ar_quiver(K).to_json()
        data["highlight"] = sorted(list(x) for x in high)
        return None if records == [data] else "ar-quiver JSON differs"
    if kind == "glue":
        B = nk.parse_series(argv[argv.index("--b") + 1])
        A = nk.parse_series(argv[argv.index("--a") + 1])
        g = nk.glue(B, A, int(argv[argv.index("--height") + 1]))
        want = dict(g.to_json(), invariants_ok=True, dispatch_ok=True)
        return None if records == [want] else "glue JSON differs"
    if kind == "fractures":
        h = int(argv[argv.index("--height") + 1])
        found = len(records[0]["fractures"])
        catalan = math.comb(2 * h, h) // (h + 1)
        return None if found == catalan else \
            f"{found} fractures of height {h}, expected Catalan = {catalan}"
    if kind == "complete-slice":
        h = int(argv[argv.index("--h") + 1])
        n = int(argv[argv.index("--n") + 1])
        side = argv[argv.index("--side") + 1]
        idx = [int(t) for t in argv[argv.index("--slice") + 1].split(",")]
        K, F, v, _ = nk.complete_slice(h, [(i, k) for k, i in
                                           enumerate(idx, 1)], n, side)
        rec = records[0]
        if rec["kupisch"] != list(K.entries) or rec["verdict"] != v.to_json():
            return "complete-slice JSON differs"
        return None if rec["sides"][f"{side}_nct"] else "slice side not honest"
    if kind == "construct-nd":
        n = int(argv[argv.index("--n") + 1])
        d = int(argv[argv.index("--d") + 1])
        cert = nk.construct(n, d)
        emit = argv[argv.index("--emit") + 1]
        if emit == "certificate":
            want = cert.to_json()
        elif emit == "kupisch":
            want = {"kupisch": list(cert.kupisch.entries)}
        else:
            want = nk.ar_quiver(cert.kupisch).to_json()
            want["highlight"] = sorted(list(x) for x in cert.verdict.candidate)
        return None if records == [want] else f"construct-nd {emit} JSON differs"
    return f"unknown CLI job kind {kind!r}"


def check(job, out):
    """Cross-check one output; a problem string, or None when it holds."""
    kind, args = job
    if kind == "census":
        K = nk.KupischSeries(args[0])
        g, verdicts = out
        if not 1 <= g <= K.m - 1:
            return f"gldim {g} outside [1, m-1]"
        for n, verdict in enumerate(verdicts, 2):
            problem = _reverify(K, n, verdict)
            if problem:
                return problem
        return None
    if kind == "tall":
        entries, n = args
        return _reverify(nk.KupischSeries(entries), n, out)
    if kind == "long":
        entries, n = args
        K = nk.KupischSeries(entries)
        if not 1 <= out[0] <= K.m - 1:
            return f"gldim {out[0]} outside [1, m-1]"
        return _reverify(K, n, out[1])
    if kind == "construct":
        n, d = args
        entries, g, pd_src, verdict = out
        K = nk.KupischSeries(entries)
        if not (g == d == nk.gldim(K) and pd_src == d == nk.pd(K, (K.m, 1))):
            return f"certificate for ({n}, {d}) has the wrong dimensions"
        if not verdict[0]:
            return f"certificate for ({n}, {d}) is not n-cluster-tilting"
        return _reverify(K, n, verdict)
    if kind == "cli":
        return _check_cli(*args, out)
    return f"unknown job kind {kind!r}"
