#!/usr/bin/env python3
"""Runs one xmltc benchmark workload and prints its metrics.

    python3 benchmark/run.py --workload typecheck-mix --seed 7 --seconds 25 --trace 0

Run from the root of a checkout. The script builds the release `xmltc`
binary and the harness in `benchmark/` (into `$CARGO_TARGET_DIR`, default
`.bench_build`), pins the harness — and, for serve-mix, its `xmltc serve`
child — to one CPU, and folds the harness's records into metrics. Every
timing is normalized by the reference workload sampled around it (see
README.md). The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics for
`--trace 1`. Everything else it prints, and the files it writes under
`benchmark/out/`, explains the run: raw timings, host diagnostics, run
metadata, the determinism ledger and, for traced runs, a Chrome trace and a
per-layer self-time table.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("typecheck-mix", "transform-docs", "serve-mix")
# Knobs that would change what the program does; cleared for every run.
CLEARED = ("XMLTC_THREADS", "XMLTC_CHUNK", "XMLTC_PAR_THRESHOLD", "XMLTC_LOG")
# The reference sample time the normalized timings are expressed against:
# the median sample of this benchmark on a 2-vCPU cloud host. Fixed once,
# so normalized values stay in ms and s.
NOMINAL_REF_MS = 0.65
# Reference samples within this many seconds of an operation normalize it.
WINDOW_S = 0.2
# A run during which other tasks took more than this share of the pinned
# CPU shared it; it is flagged, not dropped.
SHARED_CPU_FOREIGN = 0.05
DEADLINE_S = 170

E2E = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("ops_per_s", "1/s"),
    ("decided_share", "fraction"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics. `_ms` ones are normalized self time per operation,
# summed over the spans of that name; the others are described in README.md.
SELF_MS = {
    "typecheck.walk_ms": "typecheck.walk",
    "typecheck.product_ms": "typecheck.product",
    "automata.lazy_ms": "automata.lazy",
    "typecheck.bad_output_ms": "typecheck.bad_output",
    "dtd.parse_ms": "dtd.parse",
    "dtd.compile_ms": "dtd.compile",
    "xmlql.compile_ms": "xmlql.compile",
    "transducer-dsl.lower_ms": "transducer-dsl.lower",
    "xml.parse_ms": "xml.parse",
    "dtd.validate_ms": "dtd.validate",
    "trees.encode_ms": "trees.encode",
    "core.eval_ms": "core.eval",
    "trees.decode_ms": "trees.decode",
    "xml.serialize_ms": "xml.serialize",
    "service.handle_ms": "service.handle",
    "service.transport_ms": "service.transport",
}
# Counters recorded per operation; the metric is their mean over the
# operations that ran the layer.
COUNTERS = {
    "typecheck.walk.pairs": "count",
    "typecheck.walk.compositions": "count",
    "typecheck.walk.dbta_states": "count",
    "typecheck.walk.fixpoint_steps": "count",
    "typecheck.walk.rounds": "count",
    "typecheck.walk.memo_hit_rate": "fraction",
    "typecheck.walk.parallel_batches": "count",
    "typecheck.product.pebble_states": "count",
    "automata.lazy.states_materialized": "count",
    "dtd.tau_states": "count",
    "xmlql.transducer_states": "count",
    "xml.nodes_in": "count",
    "core.nodes_out": "count",
    "xml.bytes_out": "bytes",
}
CACHE_SHARES = {
    "service.cache.verdict_hit_share": "service.cache.verdict",
    "service.cache.violations_hit_share": "service.cache.violations",
    "service.cache.pipeline_hit_share": "service.cache.pipeline",
}
OTHER_LAYER = [
    ("typecheck.undecided_share", "fraction"),
    ("transform.aborted_share", "fraction"),
    ("service.cold_ms", "ms"),
    ("service.cache.bytes", "bytes"),
    ("bench.host_factor", "ratio"),
    ("bench.runq_wait_share", "fraction"),
    ("bench.steal_share", "fraction"),
    ("bench.ref_share", "fraction"),
    ("bench.trace_overhead", "fraction"),
]
PER_LAYER = (
    [(m, "ms") for m in SELF_MS]
    + list(COUNTERS.items())
    + [(m, "fraction") for m in CACHE_SHARES]
    + OTHER_LAYER
)


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def fail(msg):
    log(f"run.py: {msg}")
    sys.exit(2)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(env):
    """Builds the release `xmltc` binary and the harness; returns their paths."""
    for manifest, extra in ((os.path.join(ROOT, "Cargo.toml"), ["--bin", "xmltc"]),
                            (os.path.join(BENCH, "Cargo.toml"), [])):
        if not os.path.exists(manifest):
            fail(f"missing {manifest}: run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "xmltc-perf"), os.path.join(rel, "xmltc")


def cpu_stat(cpu):
    """(steal, total, busy) seconds of one CPU so far, from /proc/stat."""
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith(f"cpu{cpu} "):
                v = [int(x) / os.sysconf("SC_CLK_TCK") for x in line.split()[1:9]]
                return v[7], sum(v), sum(v) - v[3] - v[4]
    return 0.0, 0.0, 0.0


def run_harness(cmd, cpu, env, out_path, timeout):
    """Runs the harness pinned to `cpu`; returns (exit code, records)."""
    def pin():
        os.sched_setaffinity(0, {cpu})
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))

    with open(out_path, "w") as out, open(out_path + ".err", "w") as err:
        # A session of its own, so a timeout can stop the harness and the
        # server it started together.
        p = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, preexec_fn=pin,
                             cwd=ROOT, start_new_session=True)
        try:
            code = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            for _ in range(100):  # until the orphaned server is gone, at most 2 s
                try:
                    os.killpg(p.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.02)
            code = None
    recs = []
    with open(out_path) as f:
        for line in f:
            try:
                recs.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # a line cut by an abort
    return code, recs


class Timeline:
    """The reference samples of one harness process, for normalization."""

    def __init__(self, recs):
        refs = sorted(((r["t0"] + r["t1"]) / 2, r["ms"]) for r in recs if r["k"] == "ref")
        self.mids = [m for m, _ in refs]
        self.ms = [v for _, v in refs]

    def factor(self, t0, t1):
        """Nominal ÷ geometric mean of the samples within the window."""
        if not self.ms:
            return 1.0
        lo = bisect.bisect_left(self.mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t1 + WINDOW_S)
        if lo == hi:
            k = min(max(lo, 0), len(self.ms) - 1)
            if lo > 0 and (lo == len(self.ms) or t0 - self.mids[lo - 1] < self.mids[lo] - t1):
                k = lo - 1
            sel = [self.ms[k]]
        else:
            sel = self.ms[lo:hi]
        g = math.exp(sum(math.log(x) for x in sel) / len(sel))
        return NOMINAL_REF_MS / g


def nearest_rank(sorted_vals, q):
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def fold(h, s):
    """FNV-1a of a running digest and a string."""
    x = 0xcbf29ce484222325
    for b in f"{h:x}{s}".encode():
        x = ((x ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return x


def collect(segments):
    """Operations with normalized and raw times, from every segment."""
    ops = []
    for seg_id, recs in enumerate(segments):
        tl = Timeline(recs)
        pending = None
        for r in recs:
            if r["k"] == "next":
                pending = r
            elif r["k"] == "op":
                pending = None
                f = tl.factor(r["t0"], r["t1"])
                raw = (r["t1"] - r["t0"]) * 1e3
                r.update(seg=seg_id, raw_ms=raw, ms=raw * f, factor=f)
                if "tt0" in r:
                    r["traced_ms"] = (r["tt1"] - r["tt0"]) * 1e3 * tl.factor(r["tt0"], r["tt1"])
                ops.append(r)
        if pending is not None:
            ops.append({"k": "op", "i": pending["i"], "cls": pending["cls"],
                        "name": pending["name"], "ok": False, "decided": False,
                        "aborted": True, "note": "error: aborted the process",
                        "digest": "abort", "ctr": {}, "seg": seg_id})
    return ops


def end_to_end(segments, ops, workload, raw):
    """The end-to-end metrics (raw: without normalization)."""
    key = "raw_ms" if raw else "ms"
    setups = []
    for recs in segments:
        tl = Timeline(recs)
        for r in recs:
            if r["k"] == "setup" and r["counted"]:
                s = r["t1"] - r["t0"]
                setups.append(s if raw else s * tl.factor(r["t0"], r["t1"]))
    ranked = sorted(ops, key=lambda o: (not o["ok"] or "ms" not in o, o.get(key, 0.0)))
    lat = [o.get(key, math.inf) if o["ok"] else math.inf for o in ranked]
    finite = [x for x in lat if x != math.inf]

    def pct(q):
        v = nearest_rank(lat, q)
        return v if v != math.inf else max(finite)

    timed_s = sum(o[key] for o in ops if key in o) / 1e3
    completed = sum(1 for o in ops if o["ok"])
    decided = sum(1 for o in ops if o["decided"])
    if workload == "serve-mix":
        # Every session's server does the same work; take their median.
        rss = statistics.median(r["rss_kb"] for recs in segments for r in recs if r["k"] == "server")
    else:
        # The 99th percentile of the per-operation peaks, so a rare
        # memory-heavy draw cannot move it.
        rss = nearest_rank(sorted(o["rss_kb"] for o in ops if "rss_kb" in o), 0.99)
    return {
        "setup_s": statistics.median(setups),
        "latency_ms_p50": pct(0.50),
        "latency_ms_p99": pct(0.99),
        "ops_per_s": completed / timed_s,
        "decided_share": decided / len(ops),
        "peak_rss_mb": rss / 1024.0,
    }, ranked


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def host_stats(segments, walls, stat0, stat1):
    """Diagnostics that explain a run rather than measure the program."""
    run = wait = 0
    for recs in segments:
        # The last scheduler record of each harness process (an aborting
        # process writes one before the aborting document), plus the
        # servers' own.
        last = [r for r in recs if r["k"] in ("sched", "end")]
        if last:
            run += last[-1]["run_ns"]
            wait += last[-1]["wait_ns"]
        for r in recs:
            if r["k"] == "server":
                run += r["run_ns"]
                wait += r["wait_ns"]
    refs = [r for recs in segments for r in recs if r["k"] == "ref"]
    d_total = stat1[1] - stat0[1]
    return {
        "bench.host_factor": statistics.median(r["ms"] for r in refs) / NOMINAL_REF_MS,
        "bench.runq_wait_share": wait / (run + wait) if run + wait else 0.0,
        "bench.steal_share": (stat1[0] - stat0[0]) / d_total if d_total else 0.0,
        "bench.ref_share": sum(r["t1"] - r["t0"] for r in refs) / sum(walls),
    }


def spans_of(segments):
    """Every span with its normalized self time."""
    out = []
    for seg_id, recs in enumerate(segments):
        tl = Timeline(recs)
        spans = {r["id"]: r for r in recs if r["k"] == "span"}
        child = {i: 0.0 for i in spans}
        for s in spans.values():
            if s["parent"] >= 0:
                child[s["parent"]] += s["t1"] - s["t0"]
        for i, s in spans.items():
            f = tl.factor(s["t0"], s["t1"])
            s.update(seg=seg_id, self_ms=max(0.0, s["t1"] - s["t0"] - child[i]) * 1e3 * f,
                     norm=f)
            out.append(s)
    return out


def per_layer(segments, ops, spans, host):
    n = len(ops)
    m = {}
    selfs = {}
    for s in spans:
        selfs[s["name"]] = selfs.get(s["name"], 0.0) + s["self_ms"]
    for metric, name in SELF_MS.items():
        m[metric] = selfs.get(name, 0.0) / n
    for metric in COUNTERS:
        vals = [o["ctr"][metric] for o in ops if metric in o.get("ctr", {})]
        m[metric] = statistics.fmean(vals) if vals else 0.0
    for metric, c in CACHE_SHARES.items():
        vals = [o["ctr"][c] for o in ops if c in o.get("ctr", {})]
        m[metric] = statistics.fmean(vals) if vals else 0.0
    m["typecheck.undecided_share"] = sum(1 for o in ops if o["ok"] and not o["decided"]) / n
    m["transform.aborted_share"] = sum(1 for o in ops if o.get("aborted")) / n
    cold = [o["ms"] for o in ops if o["cls"] == "cold" and "ms" in o]
    m["service.cold_ms"] = statistics.fmean(cold) if cold else 0.0
    srv = [r for recs in segments for r in recs if r["k"] == "server"]
    m["service.cache.bytes"] = float(statistics.median(r["cache_bytes"] for r in srv)) if srv else 0.0
    m.update(host)
    both = [o for o in ops if "traced_ms" in o and "ms" in o]
    untraced = sum(o["ms"] for o in both)
    m["bench.trace_overhead"] = sum(o["traced_ms"] for o in both) / untraced - 1 if untraced else 0.0
    return m, selfs


def write_trace(path, spans, ops):
    """Chrome trace-event JSON, one track per harness process."""
    events = []
    for seg in sorted({s["seg"] for s in spans}):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": seg,
                       "args": {"name": f"harness-{seg}"}})
    names = {(o.get("seg"), o["i"]): o["name"] for o in ops}
    for s in sorted(spans, key=lambda s: (s["seg"], s["t0"], -s["t1"])):
        args = {"op": s["op"], "self_ms_normalized": round(s["self_ms"], 6)}
        if (s["seg"], s["op"]) in names:
            args["input"] = names[(s["seg"], s["op"])]
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": s["seg"],
                       "ts": round(s["t0"] * 1e6, 3), "dur": round((s["t1"] - s["t0"]) * 1e6, 3),
                       "args": args})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def self_time_table(selfs, n_ops):
    total = sum(selfs.values()) or 1.0
    lines = [f"{'layer':<24} {'self ms/op':>12} {'share':>7}"]
    for name, ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<24} {ms / n_ops:>12.4f} {ms / total:>7.1%}")
    return "\n".join(lines)


def ledger(key, entry):
    """Checks `entry` against the earlier run with the same key; returns the
    keys whose values differ."""
    path = os.path.join(OUT, "ledger.json")
    book = {}
    if os.path.exists(path):
        with open(path) as f:
            book = json.load(f)
    old = book.get(key)
    if old is None:
        book[key] = entry
        with open(path, "w") as f:
            json.dump(book, f, indent=1, sort_keys=True)
        return []
    return sorted(k for k in set(old) | set(entry) if old.get(k) != entry.get(k))


def git_commit():
    top = tool_version(["git", "rev-parse", "--show-toplevel"])
    if os.path.realpath(top) != os.path.realpath(ROOT):
        return "none (not a git checkout)"
    return tool_version(["git", "rev-parse", "HEAD"])


def source_digest():
    """SHA-256 of the program's sources: the commit's stand-in outside git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs]
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    env = dict(os.environ)
    cleared = [k for k in CLEARED if env.pop(k, None) is not None]
    env.setdefault("CARGO_TARGET_DIR", target_dir())
    harness, xmltc = build(env)
    os.makedirs(OUT, exist_ok=True)
    started = time.monotonic()  # the deadline covers the runs, not the build

    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    if len(allowed) > 1:
        os.sched_setaffinity(0, allowed - {cpu})  # keep this script off the measured CPU
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    base = [harness, "--workload", a.workload, "--seed", str(a.seed), "--seconds",
            str(a.seconds), "--xmltc", xmltc, "--fixtures", os.path.join(ROOT, "fixtures")]
    if a.trace:
        base.append("--trace")

    stat0, ours0, wall0 = cpu_stat(cpu), children_cpu_s(), time.monotonic()
    segments = []
    walls = []
    start = 0
    while True:
        left = DEADLINE_S - (time.monotonic() - started)
        if left <= 0:
            fail("ran out of time")
        t = time.monotonic()
        code, recs = run_harness(base + ["--start", str(start)], cpu, env,
                                 os.path.join(OUT, f"{tag}.{len(segments)}.jsonl"), left)
        walls.append(time.monotonic() - t)
        segments.append(recs)
        if code == 0:
            break
        announced = [r for r in recs if r["k"] == "next"]
        if a.workload != "transform-docs" or code != -signal.SIGABRT or not announced:
            fail(f"harness exited with {code}; see {OUT}/{tag}.{len(segments) - 1}.jsonl.err")
        start = announced[-1]["i"] + 1
    stat1 = cpu_stat(cpu)
    # CPU time other tasks (or the hypervisor, as steal) took on the pinned
    # CPU while the harness ran.
    foreign = max(0.0, (stat1[2] - stat0[2]) - (children_cpu_s() - ours0)) / (time.monotonic() - wall0)

    ops = collect(segments)
    wrong = [o for o in ops if str(o.get("note", "")).startswith("wrong")]
    errors = [o for o in ops if not o["ok"] and o not in wrong]
    for o in wrong + errors:
        log(f"FAILED op {o['i']} ({o['cls']}) {o['name']}: {o.get('note')}")
    expected_aborts = all(o["cls"] == "past-limit" for o in ops if o.get("aborted"))

    start_rec = next(r for r in segments[0] if r["k"] == "start")
    # The harness states its input digest up front, or at the end when it
    # generates inputs as it goes; transform-docs adds one per cycle.
    recs = [r for seg in segments for r in seg]
    input_digest = [r["input_digest"] for r in recs if "input_digest" in r][-1]
    cycles = {r["c"]: r["digest"] for r in recs if r["k"] == "cycle"}
    for c in sorted(cycles):
        input_digest = f"{fold(int(input_digest, 16), cycles[c]):016x}"

    result_digest = 0
    for o in sorted(ops, key=lambda o: o["i"]):
        result_digest = fold(result_digest, o["digest"])
    counters = {}
    for o in ops:
        for k, v in o.get("ctr", {}).items():
            if k != "service.wall_ms":
                counters[k] = counters.get(k, 0) + v
    entry = {"attempted": len(ops), "failed": sum(1 for o in ops if not o["ok"]),
             "decided": sum(1 for o in ops if o["decided"]),
             "result_digest": f"{result_digest:016x}", "input_digest": input_digest}
    # Runs of the same sources on the same inputs must agree exactly.
    sources = source_digest()
    key = f"{a.workload}|seed={a.seed}|seconds={a.seconds}|src={sources}"
    drift = ledger(key, entry)
    if a.trace:
        drift += ledger(key + "|traced", {k: round(v, 9) for k, v in counters.items()})
    for k in drift:
        log(f"DETERMINISM: `{k}` differs from an earlier run with seed {a.seed}")

    host = host_stats(segments, walls, stat0, stat1)
    shared = foreign > SHARED_CPU_FOREIGN
    run_meta = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "walk_threads": start_rec["threads"],
        "git_commit": git_commit(),
        "source_digest": sources,
        "rustc": tool_version(["rustc", "--version"]),
        "input_digest": input_digest, "env_cleared": list(CLEARED), "env_was_set": cleared,
        "segments": len(segments), "shared_cpu": shared,
    }
    print("run " + json.dumps(run_meta, sort_keys=True))
    print("host " + json.dumps({**host, "pinned_cpu": cpu, "foreign_cpu_share": foreign},
                               sort_keys=True))
    if shared:
        print(f"FLAG: other tasks took {foreign:.1%} of CPU {cpu} during the run; the run is kept")

    correct = not wrong and not drift and expected_aborts
    full = {"run": run_meta, "host": host, "ledger": entry}
    if a.trace:
        spans = spans_of(segments)
        metrics, selfs = per_layer(segments, ops, spans, host)
        write_trace(os.path.join(OUT, f"{a.workload}-seed{a.seed}.trace.json"), spans, ops)
        table = self_time_table(selfs, len(ops))
        with open(os.path.join(OUT, f"{a.workload}-seed{a.seed}.selftime.txt"), "w") as f:
            f.write(table + "\n")
        print(table)
        full["per_layer"] = metrics
        units = dict(PER_LAYER)
    else:
        metrics, ranked = end_to_end(segments, ops, a.workload, raw=False)
        rawm, _ = end_to_end(segments, ops, a.workload, raw=True)
        for q, name in ((0.50, "p50"), (0.99, "p99")):
            o = nearest_rank(ranked, q)
            print(f"{name} falls on {o['cls']} ({o['name']})")
        print("raw " + json.dumps(rawm, sort_keys=True))
        full["end_to_end"] = metrics
        full["raw"] = rawm
        units = dict(E2E)
    with open(os.path.join(OUT, f"{tag}.result.json"), "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    if correct:
        # The raw records are only needed to diagnose a failed check.
        for k in range(len(segments)):
            for ext in ("jsonl", "jsonl.err"):
                os.remove(os.path.join(OUT, f"{tag}.{k}.{ext}"))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o["ok"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
