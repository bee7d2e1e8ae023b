#!/usr/bin/env python3
"""Host-time benchmark for the EMCC simulator.

Run from the repository root:

    python3 hostbench/run.py --workload graph_bfs --seed 42 --seconds 10 --trace 0
    python3 hostbench/run.py --workload graph_bfs --seed 42 --seconds 10 --trace 1
    python3 hostbench/run.py --self-test
    python3 hostbench/run.py --record-digests

It builds the simulator and the driver (hostbench/driver.cc) from source
into .bench_build/ (Release), then repeats the named workload, each
repetition in a fresh process, until --seconds have been measured. Every
repetition's stats output is checked (tests/check_stats.py, digest
against the emcc_sim / emcc_campaign output for the same flags and
against the digest recorded for the seed in hostbench/digests.json).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(alternating untraced and traced repetitions, so the tracing overhead is
measured too). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Medians, quartiles and sample counts are printed above it, and the raw
repetitions plus provenance go to .bench_out/.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True   # importing tests/check_stats.py writes nothing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

# Seeds whose digests are recorded: each workload's default and a held-out one.
RECORDED_SEEDS = {"graph_bfs": (42, 7), "mcf_detailed": (42, 7),
                  "omnetpp_sampled_10x": (42, 7), "campaign_grid": (1, 7)}

# emcc_sim flags per single-run workload (graph_bfs is the CLI default).
SIM_FLAGS = {
    "graph_bfs": [],
    "mcf_detailed": ["--workload", "mcf", "--trace-len", "1500000",
                     "--warmup", "200000", "--measure", "1000000"],
    "omnetpp_sampled_10x": ["--workload", "omnetpp",
                            "--footprint-scale", "10",
                            "--trace-len", "1000000", "--sample", "8",
                            "--sample-ffwd-first", "400000",
                            "--ffwd", "40000", "--sample-warm", "2000",
                            "--sample-measure", "6000"],
}
# The campaign grid; seeds are --seed .. --seed+3.
GRID = {"workload": ["BFS", "omnetpp", "mcf"],
        "scheme": ["baseline", "emcc"], "cores": 4, "warmup": 50000,
        "measure": 200000, "trace_len": 300000,
        "graph_vertices": 1 << 18, "footprint_scale": 0.5}
WORKLOADS = list(SIM_FLAGS) + ["campaign_grid"]

# Self-test scale: every workload shrunk to well under a second.
TINY_SIM_FLAGS = {
    "graph_bfs": ["--trace-len", "20000", "--warmup", "5000",
                  "--measure", "10000"],
    "mcf_detailed": ["--workload", "mcf", "--trace-len", "20000",
                     "--warmup", "5000", "--measure", "10000"],
    "omnetpp_sampled_10x": ["--workload", "omnetpp",
                            "--footprint-scale", "0.5",
                            "--trace-len", "20000", "--sample", "2",
                            "--sample-ffwd-first", "4000",
                            "--ffwd", "1000", "--sample-warm", "1000",
                            "--sample-measure", "2000"],
}
TINY_GRID = dict(GRID, warmup=2000, measure=5000, trace_len=10000,
                 graph_vertices=1 << 12, footprint_scale=0.1)


def metric_units(kind):
    """{name: unit} for one metric list of BENCHMARK.json, which defines
    the names this script must emit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


REP_TIMEOUT_S = 170       # one repetition, however large
RUN_BUDGET_S = 150        # no repetition starts past this (exit < 180 s)
MIN_REPS = 3


class BenchError(Exception):
    """Set-up failure: the benchmark exits non-zero with no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build_dir():
    """$CARGO_TARGET_DIR when set (the usual name for a build output
    directory), else .bench_build/ in the checkout."""
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure + build the driver and both CLIs; return binary paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources next to hostbench/")
    bdir = build_dir()
    # Compiler temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    blog = os.path.join(bdir, "hostbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release", "-DEMCC_SANITIZE=OFF",
                      "-DEMCC_TSAN=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "emcc_hostbench", "emcc_sim_cli", "emcc_campaign_cli"])
    with open(blog, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(log: {blog})")
    return {"driver": os.path.join(bdir, "emcc_hostbench"),
            "sim": os.path.join(bdir, "emcc", "tools", "emcc_sim"),
            "campaign": os.path.join(bdir, "emcc", "tools",
                                     "emcc_campaign")}


# ----------------------------------------------------------- provenance

def source_digest():
    """sha256 over the simulator sources (the checkout may not be git)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "hostbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(base) for n in ns)
        for p in sorted(paths):
            if "__pycache__" in p:
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def provenance(bins):
    info = last_json(subprocess.run([bins["driver"], "info"],
                                    capture_output=True, text=True,
                                    check=True).stdout)
    if not info["timing_build"]:
        raise BenchError(f"refusing to time a {info['build_type']!r} "
                         f"build (sanitized={info['sanitized']})")
    nproc = os.cpu_count() or 1
    threads = min(nproc, 4)
    probe = last_json(subprocess.run(
        [bins["driver"], "probe", "--threads", str(threads),
         "--iters", "50000000"],
        capture_output=True, text=True, check=True).stdout)
    return {"git_commit": git_commit(), "source_digest": source_digest(),
            "build_type": info["build_type"], "compiler": info["compiler"],
            "nproc": nproc,
            "parallel_probe": {k: probe[k] for k in
                               ("threads", "t1_s", "tn_s", "speedup")}}


# ---------------------------------------------------------- correctness

def load_check_stats():
    """tests/check_stats.py, imported read-only for check_schema()."""
    path = os.path.join(ROOT, "tests", "check_stats.py")
    if not os.path.isfile(path):
        raise BenchError("tests/check_stats.py is missing")
    spec = importlib.util.spec_from_file_location("check_stats", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


CHECK_STATS = None
END_TO_END = PER_LAYER = None   # {name: unit}, from BENCHMARK.json


def stats_valid(doc):
    """check_stats.py's schema contract; it exits on the first failure."""
    try:
        CHECK_STATS.check_schema(doc)
        return True
    except SystemExit:
        return False


def parse_stats(data):
    try:
        return json.loads(data)
    except ValueError:
        return None


def sha(data):
    return hashlib.sha256(data).hexdigest()


def recorded_digest(workload, seed):
    if not os.path.isfile(DIGESTS):
        return None
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


# ------------------------------------------------------------ workloads

class Workload:
    """One named workload at one seed: how to run it and check it."""

    def __init__(self, name, seed, tiny=False):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.is_campaign = name == "campaign_grid"
        self.dir = os.path.join(OUT_DIR, f"{name}.s{seed}"
                                + (".tiny" if tiny else ""))
        os.makedirs(self.dir, exist_ok=True)
        if self.is_campaign:
            grid = dict(TINY_GRID if tiny else GRID)
            grid["seed"] = [seed + k for k in range(4)]
            self.spec = os.path.join(self.dir, "grid.json")
            with open(self.spec, "w") as f:
                json.dump({"schema": "emcc-campaign-spec-v1",
                           "name": "hostbench-grid", "deadline_s": 160,
                           "retries": 0, "backoff_ms": 1, "grid": grid}, f)
            self.jobs = min(os.cpu_count() or 1, 4)
        else:
            flags = (TINY_SIM_FLAGS if tiny else SIM_FLAGS)[name]
            self.flags = flags + ["--seed", str(seed)]
        self.reference = None         # digest of the CLI's output
        self.reference_lines = None   # its aggregate lines (campaign)

    def cli_args(self, bins, out):
        if self.is_campaign:
            return [bins["campaign"], *self.campaign_flags(out)]
        return [bins["sim"], *self.flags, "--stats-json", out]

    def campaign_flags(self, out):
        return ["--spec", self.spec, "--jobs", str(self.jobs), "--journal",
                out + ".journal", "--no-resume", "--no-fsync", "--quiet",
                "--aggregate", out]

    def driver_args(self, bins, out, traced):
        if self.is_campaign:
            return [bins["driver"], "campaign", *self.campaign_flags(out)]
        return [bins["driver"], "sim", *self.flags, "--stats-json", out,
                *(["--traced"] if traced else [])]

    def check(self, out, code):
        """Check one output. Returns (attempted, failed, digest, doc) where
        doc is the stats (sim) or the journal records (campaign)."""
        data = open(out, "rb").read() if os.path.isfile(out) else b""
        if not self.is_campaign:
            doc = parse_stats(data)
            ok = code == 0 and doc is not None and stats_valid(doc)
            ok = ok and self.reference in (None, sha(data))
            return 1, 0 if ok else 1, sha(data), doc
        records = []
        if os.path.isfile(out + ".journal"):
            with open(out + ".journal") as f:
                records = [json.loads(l) for l in f if '"run"' in l]
        runs = 4 * len(GRID["workload"]) * len(GRID["scheme"])
        if code != 0:
            return runs, runs, sha(data), records
        # A run fails if it is missing, not ok, has invalid stats, or its
        # line of the (run-sorted) aggregate differs from the reference.
        bad = set(range(runs)) - {r.get("run") for r in records}
        bad |= {r.get("run") for r in records
                if r.get("outcome") != "ok" or not stats_valid(r.get("stats"))}
        lines = data.decode(errors="replace").splitlines()
        ref = self.reference_lines
        for i in range(runs):
            if i >= len(lines) or (ref is not None and
                                   (i >= len(ref) or lines[i] != ref[i])):
                bad.add(i)
        return runs, len(bad), sha(data), records


def run_proc(args, timeout):
    t = time.monotonic()
    try:
        r = subprocess.run(args, capture_output=True, text=True,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return 124, None, time.monotonic() - t
    try:
        res = last_json(r.stdout) if r.returncode in (0, 1) else None
    except ValueError:
        res = None
    if r.returncode != 0:
        log(f"hostbench: {args[0]} exited {r.returncode}: "
            f"{r.stderr.strip()[-500:]}")
    return r.returncode, res, time.monotonic() - t


def reference_run(w, bins):
    """The user-facing CLI on the same flags: the reference output every
    repetition must reproduce byte for byte."""
    out = os.path.join(w.dir, "cli.out")
    if os.path.exists(out):
        os.remove(out)
    code, _, _ = run_proc(w.cli_args(bins, out), REP_TIMEOUT_S)
    attempted, failed, digest, _ = w.check(out, code)
    rec = None if w.tiny else recorded_digest(w.name, w.seed)
    if rec is not None and rec != digest:
        log(f"hostbench: {w.name} seed {w.seed}: output digest {digest} "
            f"!= recorded {rec}")
        failed = attempted
    if failed == 0:
        w.reference = digest
        if w.is_campaign:
            w.reference_lines = open(out).read().splitlines()
    else:
        # Nothing trustworthy to compare against: every repetition fails.
        w.reference = "unavailable"
        w.reference_lines = ["unavailable"] * attempted
    return attempted, failed


def counters(doc):
    return doc.get("counters", {}) if isinstance(doc, dict) else {}


def committed(c):
    """Measured committed instructions (sampled runs keep the last
    window's counters; every window commits the same budget)."""
    n = sum(v for k, v in c.items()
            if k.startswith("cores.") and k.endswith(".committed"))
    return n * max(1, c.get("sample.windows", 1))


def span_sum(res, name):
    return sum(s["end"] - s["start"] for s in res["spans"]
               if s["name"] == name)


def repetition(w, bins, traced):
    """One fresh-process repetition; returns a dict of measurements."""
    out = os.path.join(w.dir, "rep.out")
    for p in (out, out + ".journal"):
        if os.path.exists(p):
            os.remove(p)
    pre = None
    if traced and w.is_campaign:
        _, pre, _ = run_proc([bins["driver"], "prebuild", "--spec",
                              w.spec], REP_TIMEOUT_S)
    code, res, proc_s = run_proc(w.driver_args(bins, out, traced),
                                 REP_TIMEOUT_S)
    attempted, failed, _, doc = w.check(out, code)
    rep = {"attempted": attempted, "failed": failed, "proc_s": proc_s,
           "traced": traced}
    if res is None or (traced and w.is_campaign and pre is None):
        rep["failed"] = attempted
        return rep
    rep.update(wall_s=res["wall_s"], setup_s=res["setup_s"],
               peak_rss_mb=res["peak_rss_mb"],
               emit_s=span_sum(res, "obs.emit"))
    if w.is_campaign:
        recs = doc
        cs = [counters(r.get("stats")) for r in recs]
        host_ms = sorted(r["host_ms"] for r in recs)
        rep["sim_kips"] = sum(committed(c) for c in cs) / 1e3 / res["wall_s"]
        if rep["setup_s"] <= 0:
            rep["failed"] = attempted
        if traced:
            rep.update(layers(
                cs, build=span_sum(pre, "workloads.build"),
                graph=span_sum(pre, "workloads.graph_gen"),
                graph_in_build=True, refs=pre["refs_built"],
                construct=span_sum(pre, "system.construct"),
                run=sum(host_ms) / 1e3,
                ffwd_rate=pre["ffwd_refs"] / span_sum(pre, "system.ffwd"),
                sink=span_sum(pre, "system.run") /
                span_sum(pre, "system.run_detached") - 1.0,
                emit=rep["emit_s"], run_ms=host_ms, jobs=res["jobs"],
                wall=res["wall_s"]))
        return rep
    c = counters(doc)
    run_s = span_sum(res, "system.run")
    rep["sim_kips"] = committed(c) / 1e3 / run_s
    if traced:
        construct = span_sum(res, "system.construct")
        rep.update(layers(
            [c], build=span_sum(res, "workloads.build"),
            graph=span_sum(res, "workloads.graph_gen"),
            graph_in_build=res["graph_workload"],
            refs=res["refs_built"], construct=construct, run=run_s,
            ffwd_rate=res["ffwd_refs"] / span_sum(res, "system.ffwd"),
            sink=run_s / span_sum(res, "system.run_detached") - 1.0,
            emit=rep["emit_s"], run_ms=[(construct + run_s) * 1e3], jobs=1,
            wall=res["wall_s"]))
    return rep


def layers(cs, build, graph, graph_in_build, refs, construct, run,
           ffwd_rate, sink, emit, run_ms, jobs, wall):
    """Per-layer metrics of one traced repetition. A single-run workload
    is a batch of one run at one job. `graph` is the standalone generator
    time; it is part of `build` only for graph workloads."""
    tot = lambda key: sum(c.get(key, 0) for c in cs)
    events = tot("sim.events.executed")
    kinstr = sum(committed(c) for c in cs) / 1e3
    by_tag = lambda tag: tot(f"sim.events.by_tag.{tag}") / kinstr
    aes = sum(v for c in cs for k, v in c.items()
              if k.startswith("crypto.") and k.endswith(".ops"))
    return {
        "workloads.build_s": build, "workloads.graph_gen_s": graph,
        "workloads.trace_gen_s": build - graph if graph_in_build else build,
        "workloads.ns_per_ref": build * 1e9 / refs,
        "system.construct_s": construct, "system.run_s": run,
        "system.ffwd_refs_per_s": ffwd_rate,
        "sim.events_executed": events,
        "sim.host_ns_per_event": run * 1e9 / events,
        "sim.events_per_kinstr": events / kinstr,
        "core.events_per_kinstr": by_tag("core"),
        "cache.events_per_kinstr": by_tag("cache"),
        "dram.events_per_kinstr": by_tag("dram"),
        "secmem.events_per_kinstr": by_tag("secmem"),
        "crypto.aes_ops": aes, "noc.hops": tot("noc.hops"),
        "obs.sink_overhead_frac": sink, "obs.emit_s": emit,
        "campaign.serial_build_s": build,
        "campaign.run_ms.p50": statistics.median(run_ms),
        "campaign.run_ms.max": max(run_ms),
        "campaign.overhead_s": wall - build - sum(run_ms) / 1e3 / jobs,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(w, bins, seconds, trace):
    """Repeat until `seconds` of repetitions are measured; --trace 1
    alternates untraced and traced repetitions."""
    attempted, failed = reference_run(w, bins)
    reps = []
    start = time.monotonic()
    while True:
        for traced in ((False, True) if trace else (False,)):
            reps.append(repetition(w, bins, traced))
        elapsed = time.monotonic() - start
        pair_s = elapsed / (len(reps) // (2 if trace else 1))
        done = len(reps) >= (2 if trace else MIN_REPS) and elapsed >= seconds
        if done or elapsed + pair_s > RUN_BUDGET_S:
            break
    for r in reps:
        attempted += r["attempted"]
        failed += r["failed"]
    return attempted, failed, reps


def summarise(reps, trace):
    ok = [r for r in reps if "wall_s" in r]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    units = PER_LAYER if trace else END_TO_END
    rows = {}
    for name in units:
        if trace and name == "trace.overhead_frac":
            if plain and traced:
                t = statistics.median(r["wall_s"] for r in traced)
                u = statistics.median(r["wall_s"] for r in plain)
                rows[name] = [t / u - 1.0]
            continue
        vals = [r[name] for r in (traced if trace else plain) if name in r]
        if vals:
            rows[name] = vals
    metrics, table = {}, []
    for name, vals in rows.items():
        q1, q3 = quartiles(vals)
        med = statistics.median(vals)
        metrics[name] = {"value": med, "unit": units[name]}
        table.append(f"  {name:28s} {med:14.6g} {units[name]:10s} "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")
    return metrics, table


def run_benchmark(args):
    bins = build()
    prov = provenance(bins)
    w = Workload(args.workload, args.seed)
    attempted, failed, reps = measure(w, bins, args.seconds, args.trace)
    metrics, table = summarise(reps, args.trace)
    wanted = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(wanted):
        failed = max(failed, 1)
    with open(os.path.join(OUT_DIR, f"{args.workload}.s{args.seed}."
                           f"trace{args.trace}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "provenance": prov, "reps": reps, "metrics": metrics},
                  f, indent=1)
    print(f"provenance: {json.dumps(prov)}")
    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}): median, "
          f"quartiles, repetitions")
    print("\n".join(table))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ------------------------------------------------------------ self-test

def self_test():
    """Tiny-scale run of every workload in both modes: every metric must
    be emitted with its unit, and a planted corrupt stats file must be
    counted as a failure."""
    bins = build()
    problems = []
    for name in WORKLOADS:
        w = Workload(name, 42 if name != "campaign_grid" else 1, tiny=True)
        reference_run(w, bins)
        for trace in (0, 1):
            reps = [repetition(w, bins, False)]
            if trace:
                reps.append(repetition(w, bins, True))
            metrics, _ = summarise(reps, trace)
            wanted = PER_LAYER if trace else END_TO_END
            for m, unit in wanted.items():
                if metrics.get(m, {}).get("unit") != unit:
                    problems.append(f"{name}: {m} missing or wrong unit")
            if any(r["failed"] for r in reps):
                problems.append(f"{name}: a clean repetition failed")
        # Planted corruption: one counter changed in the CLI's output.
        out = os.path.join(w.dir, "planted.out")
        shutil.copy(os.path.join(w.dir, "cli.out"), out)
        if w.is_campaign:
            shutil.copy(os.path.join(w.dir, "cli.out.journal"),
                        out + ".journal")
        text = open(out).read()
        k = text.index('"counters":{') + len('"counters":{')
        k = text.index(":", k) + 1
        with open(out, "w") as f:
            f.write(text[:k] + "9" + text[k:])
        if w.check(out, 0)[1] == 0:
            problems.append(f"{name}: planted corrupt output passed")
        with open(out, "w") as f:
            f.write(text[: len(text) // 2])
        if w.check(out, 0)[1] == 0:
            problems.append(f"{name}: truncated output passed")
    for p in problems:
        log(f"self-test: FAIL: {p}")
    print("self-test: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def record_digests():
    """Rewrite digests.json from the CLIs at the recorded seeds. Only for
    a change that is meant to alter simulated behaviour."""
    bins = build()
    table = {}
    for name in WORKLOADS:
        for seed in RECORDED_SEEDS[name]:
            w = Workload(name, seed)
            out = os.path.join(w.dir, "cli.out")
            code, _, _ = run_proc(w.cli_args(bins, out), REP_TIMEOUT_S)
            _, failed, digest, _ = w.check(out, code)
            if failed:
                raise BenchError(f"{name} seed {seed}: CLI output invalid")
            table.setdefault(name, {})[str(seed)] = digest
            log(f"{name} seed {seed}: {digest}")
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    global CHECK_STATS, END_TO_END, PER_LAYER
    try:
        CHECK_STATS = load_check_stats()
        END_TO_END = metric_units("end_to_end")
        PER_LAYER = metric_units("per_layer")
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.self_test:
            return self_test()
        if args.record_digests:
            return record_digests()
        if args.workload is None:
            ap.error("--workload is required")
        run_benchmark(args)
        return 0
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"hostbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
