#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload hot_synth --seed 1 \
        --seconds 10 --trace 0

Builds printedd, printed-balancer and perfbench-tool from this checkout
(into $CARGO_TARGET_DIR, default .bench_build) and runs the workload.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. The run is
cut into five slices: each sets the workload up (spawn -> healthy reply
-> warm-up), drives it with the seeded closed-loop generator for a fifth
of --seconds, samples the serving processes' /proc, stops it, and sends
a fifth of the paced compute probe to a printedd of the probe's own.
Spreading the measurement over the whole run keeps a few seconds of a
slow or fast machine from deciding it. Every reply is checked against
an in-process reference and the golden digest in
perfbench/expected.json, and every metric is printed by name with its
unit. The last stdout line is the JSON result.

--trace 1 reports the per-layer metrics of BENCHMARK.json and prints
the per-layer ledger from one measured phase on the last of five
set-ups. The workloads are documented in perfbench/workloads.json.
"""

import argparse
import json
import os
import re
import resource
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

NPROC = os.cpu_count() or 1
RUN_DEADLINE_S = 170.0
SLICES = 5
# Set-ups per slice of a service workload (the last one is measured):
# a set-up takes 10-100 ms, so setup_s is the median of many.
SETUPS_PER_SLICE = 3
# Descriptors a daemon needs besides churned connections: listen
# socket, the generator's and probes' connections, logs, disk tier.
FD_HEADROOM = 1000
HOT_FRESH_BUDGET = 8000
HOT_SLICE_FRESH = 2400
COMPUTE_MIX_CONNS = 1


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """The build tree: $CARGO_TARGET_DIR when it lies in this checkout,
    else .bench_build."""
    want = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(ROOT, want))
    if os.path.commonpath([path, os.path.realpath(ROOT)]) != \
            os.path.realpath(ROOT):
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no repository sources next to perfbench/")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "cwd": ROOT}
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", bdir, "-j", str(NPROC),
                    "--target", "perfbench-tool", "printedd",
                    "printed-balancer"], check=True, **quiet)
    return {
        "tool": os.path.join(bdir, "perfbench-tool"),
        "printedd": os.path.join(bdir, "src", "service", "printedd"),
        "balancer": os.path.join(bdir, "src", "service",
                                 "printed-balancer"),
    }


def call_line(port, obj, timeout=30.0):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as s:
        s.sendall((json.dumps(obj) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode()


class Service:
    """A spawned printedd or printed-balancer."""

    BANNER = re.compile(r"listening on [0-9.]+:(\d+)")

    def __init__(self, argv, logpath):
        self.logf = open(logpath, "w")
        self.proc = subprocess.Popen(argv, stdout=self.logf,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL, cwd=ROOT)
        self.port = None
        deadline = time.monotonic() + 60
        while self.port is None:
            with open(logpath) as f:
                m = self.BANNER.search(f.read())
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None:
                self.logf.close()
                raise BenchError("%s exited during start-up" % argv[0])
            elif time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                self.logf.close()
                raise BenchError("%s printed no banner" % argv[0])
            else:
                time.sleep(0.002)

    def wait_healthy(self):
        reply = call_line(self.port, {"id": "h", "type": "health"})
        if '"ok": true' not in reply:
            raise BenchError("unhealthy: " + reply[:200])

    def stop(self):
        if self.proc.poll() is None:
            try:
                call_line(self.port, {"id": "s", "type": "shutdown"}, 10)
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.logf.close()


def spawn_workload(workload, bins, rundir, k):
    """Start the printedd of a service workload."""
    logpath = os.path.join(rundir, "serve-%d.log" % k)
    argv = [bins["printedd"], "--port", "0"]
    if workload == "cold_synth":
        argv += ["--cache-cap", "256"]
    return Service(argv, logpath)


def load_connections(workload):
    """Generator connections: nproc, except compute_mix, which uses
    one. Its requests run for milliseconds on the whole pool, so a
    second connection mostly adds waiting in the admission queue, and
    that queueing turned every slowdown of the shared machine into a
    larger one of the latencies."""
    return COMPUTE_MIX_CONNS if workload == "compute_mix" else NPROC


def fresh_connection_budget(traced):
    """Fresh connections one daemon's measured phase may open. printedd
    holds an fd and an unjoined thread for every connection it ever
    accepted: past about 12k of them its throughput falls threefold at
    a run-dependent moment, and at the descriptor limit (raised to the
    hard limit at start and inherited) accept(2) fails and stops its
    accept thread. hot_synth's measured phase therefore ends after
    HOT_FRESH_BUDGET churned connections in a traced run, and each
    slice of an untraced run after HOT_SLICE_FRESH (or its time,
    whichever comes first), so server_fds counts a fixed number."""
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    budget = HOT_FRESH_BUDGET if traced else HOT_SLICE_FRESH
    return max(100, min(budget, soft - FD_HEADROOM))


def run_tool(argv, on_phase_end, deadline):
    """Run a tool command; at its "phase-end" line call on_phase_end()
    (the /proc sample) and let it continue."""
    sample = None
    with subprocess.Popen(argv, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            for line in proc.stdout:
                if line.strip() == "phase-end":
                    sample = on_phase_end(proc.pid)
                    proc.stdin.write("\n")
                    proc.stdin.flush()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("%s timed out" % argv[1])
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s failed (exit %d)" % (argv[1], proc.returncode))
    if sample is None:
        raise BenchError("%s never reached the end of its measured phase"
                         % argv[1])
    return sample


def read_run(out, records):
    with open(out) as f:
        return json.load(f), benchlib.read_records(records)


class Probe:
    """The fixed compute probe on a printedd of its own, sent in SLICES
    parts between the measured slices: the yield / classify / ISS sweep
    figures of the workloads whose own traffic has none, and (service
    workloads) the hier flows behind their tiled_gates_per_s."""

    def __init__(self, args, bins, rundir, deadline):
        self.args, self.bins, self.rundir = args, bins, rundir
        self.deadline = deadline
        self.results, self.recs = [], []
        self.svc = Service([bins["printedd"], "--port", "0"],
                           os.path.join(rundir, "probe.log"))
        try:
            self.svc.wait_healthy()
        except BaseException:
            self.svc.stop()
            raise

    def run_part(self, k):
        out = os.path.join(self.rundir, "probe-%d.json" % k)
        records = os.path.join(self.rundir, "probe-%d.bin" % k)
        argv = [self.bins["tool"], "probe", "--seed", str(self.args.seed),
                "--port", str(self.svc.port), "--part", str(k),
                "--parts", str(SLICES), "--out", out, "--records", records]
        if self.args.workload != "tiled_synth":
            argv.append("--hier")
        subprocess.run(argv, check=True, cwd=ROOT,
                       timeout=max(1.0, self.deadline - time.monotonic()))
        result, recs = read_run(out, records)
        self.results.append(result)
        self.recs.append(recs)

    def stop(self):
        self.svc.stop()


def set_up(args, bins, rundir, setups):
    """Spawn the workload's printedd, wait for a healthy reply and send
    the warm-up requests; append the seconds that took to `setups`."""
    t0 = time.perf_counter()
    svc = spawn_workload(args.workload, bins, rundir, len(setups))
    try:
        svc.wait_healthy()
        subprocess.run([bins["tool"], "warm", "--workload", args.workload,
                        "--seed", str(args.seed), "--port", str(svc.port),
                        "--conns", str(NPROC)], check=True, cwd=ROOT)
    except BaseException:
        svc.stop()
        raise
    setups.append(time.perf_counter() - t0)
    return svc


def run_service(args, bins, rundir, deadline, probe):
    """Untraced: SLICES times set up (SETUPS_PER_SLICE times, keeping
    the last), measure a slice, sample /proc, stop, send a probe part.
    Traced: the same set-ups, the last of which serves one measured
    phase and the per-layer probes."""
    setups, results, recs, samples = [], [], [], []
    first = 0
    for k in range(SLICES):
        for _ in range(SETUPS_PER_SLICE - 1):
            set_up(args, bins, rundir, setups).stop()
        svc = None
        relay = None
        try:
            svc = set_up(args, bins, rundir, setups)
            if args.trace and k < SLICES - 1:
                continue
            out = os.path.join(rundir, "result-%d.json" % k)
            records = os.path.join(rundir, "records-%d.bin" % k)
            argv = [bins["tool"], "load", "--workload", args.workload,
                    "--seed", str(args.seed), "--first", str(first),
                    "--seconds", str(args.seconds if args.trace
                                     else args.seconds / SLICES),
                    "--port", str(svc.port),
                    "--conns", str(load_connections(args.workload)),
                    "--out", out, "--records", records,
                    "--scratch", rundir,
                    "--max-fresh", str(fresh_connection_budget(args.trace))]
            if args.trace:
                relay = Service([bins["balancer"], "--port", "0",
                                 "--worker", "127.0.0.1:%d" % svc.port],
                                os.path.join(rundir, "relay.log"))
                relay.wait_healthy()
                argv += ["--trace", "--relay-port", str(relay.port)]
            samples.append(run_tool(argv, lambda _pid: benchlib.proc_sample(
                [svc.proc.pid]), deadline))
        finally:
            if relay:
                relay.stop()
            if svc:
                svc.stop()
        result, slice_recs = read_run(out, records)
        results.append(result)
        recs.append(slice_recs)
        first += sum(p["count"] for p in result["phases"])
        if probe:
            probe.run_part(k)
    return results, recs, setups, samples


def run_tiled(args, bins, rundir, deadline, probe):
    """Untraced: SLICES tool runs of a fifth of --seconds each (the
    first also checks against a one-thread flow), a probe part after
    each. Traced: one run with the per-layer probes."""
    results, recs, setups, samples = [], [], [], []
    for k in range(1 if args.trace else SLICES):
        out = os.path.join(rundir, "result-%d.json" % k)
        records = os.path.join(rundir, "records-%d.bin" % k)
        argv = [bins["tool"], "tiled", "--seed", str(args.seed),
                "--seconds", str(args.seconds if args.trace
                                 else args.seconds / SLICES),
                "--out", out, "--records", records, "--scratch", rundir]
        if k == 0:
            argv.append("--serial")
        helpers = []
        try:
            if args.trace:
                # The service layer probes need a daemon; tiled_synth's
                # own flow runs in process, so an idle one serves them.
                svc = Service([bins["printedd"], "--port", "0"],
                              os.path.join(rundir, "probe.log"))
                helpers.append(svc)
                relay = Service([bins["balancer"], "--port", "0",
                                 "--worker", "127.0.0.1:%d" % svc.port],
                                os.path.join(rundir, "relay.log"))
                helpers.append(relay)
                for h in helpers:
                    h.wait_healthy()
                argv += ["--trace", "--port", str(svc.port),
                         "--relay-port", str(relay.port)]
            samples.append(run_tool(
                argv, lambda pid: benchlib.proc_sample([pid]), deadline))
        finally:
            for h in helpers:
                h.stop()
        result, slice_recs = read_run(out, records)
        results.append(result)
        recs.append(slice_recs)
        setups.append(result["setup_s"])
        if probe:
            probe.run_part(k)
    return results, recs, setups, samples


def ms(values):
    return [v / 1000.0 for v in values]


def slice_p50(groups, kinds=None, col=0):
    """A p50 in ms: the median of each slice (or probe part), averaged
    over them. The machine's speed alternates between a fast and a slow
    level, so a median over the whole run jumps to whichever level held
    longer; the mean of the slices' medians moves smoothly between
    them."""
    meds = []
    for group in groups:
        vals = [r[col] for r in group
                if (kinds is None or r[2] in kinds) and r[col] >= 0]
        if vals:
            meds.append(benchlib.median(vals))
    if not meds:
        raise BenchError("no %s requests measured"
                         % "/".join(kinds or ("measured",)))
    return sum(meds) / len(meds) / 1000.0


def pooled_mean(groups, kinds, col=0):
    """A mean in ms over every slice's (or probe part's) requests of
    `kinds`. A streamed classify runs on one thread, and its latency
    takes one of two levels from one request to the next; a median
    jumps between them as their shares cross one half, while the mean
    moves in proportion to the shares."""
    vals = [r[col] for group in groups for r in group
            if r[2] in kinds and r[col] >= 0]
    if not vals:
        raise BenchError("no %s requests measured" % "/".join(kinds))
    return sum(vals) / len(vals) / 1000.0


def end_to_end(args, doc, results, probes, slices, parts, setups, samples,
               totals):
    """The end-to-end metric values of one untraced run from its
    slices' and probe parts' records."""
    phases = [r["phases"][0] for r in results]
    # Errored requests fail the run; they are kept out of the timings.
    slices = [[r for r in group if r[5]] for group in slices]
    parts = [[r for r in group if r[5]] for group in parts]
    lat = ms(r[0] for group in slices for r in group)
    chunk = doc["tail_chunk"]
    if chunk is not None and len(lat) < chunk:
        log("warning: %d requests, fewer than one %d-request tail chunk"
            % (len(lat), chunk))
    typed = slices if args.workload == "compute_mix" else parts

    if args.workload == "tiled_synth":
        gates_per_s = results[0]["gates_pre_opt"] / \
            (sum(lat) / len(lat) / 1000.0)
    else:
        hier_ms = [t for p in probes for t in p["hier_ms"]]
        gates_per_s = probes[0]["hier_gates"] / \
            (sum(hier_ms) / len(hier_ms) / 1000.0)
    attempted = totals["attempted"]
    failed = totals["errors"] + totals["wrong"]
    return {
        "setup_s": benchlib.median(setups),
        "throughput_rps": sum(p["count"] for p in phases) /
        sum(p["wall_s"] for p in phases),
        "latency_p50_ms": slice_p50(slices),
        "latency_tail_ms": benchlib.chunked_tail(lat, chunk)
        if chunk is not None else max(lat),
        "yield_p50_ms": slice_p50(typed, ("yield", "yield_stream")),
        "classify_mean_ms": pooled_mean(typed, ("classify_stream",)),
        "iss_sweep_p50_ms": slice_p50(typed, ("iss_sweep",)),
        "first_partial_mean_ms": pooled_mean(typed, ("classify_stream",),
                                             col=1),
        "ok_share": (attempted - failed) / attempted,
        "rss_mb": benchlib.median([x["rss_mb"] for x in samples]),
        "server_fds": benchlib.median([x["fds"] for x in samples]),
        "tiled_gates_per_s": gates_per_s,
    }


def ledger(args, result, recs):
    """Per-layer values of a traced run, and the ledger rows: self
    time per request of each layer on this workload's request path."""
    lay = dict(result["layers"])
    untraced = [r[0] for r in recs if r[3] == 0 and r[5]]
    traced = [r[0] for r in recs if r[3] == 1 and r[5]]
    p50_traced = benchlib.median(traced)
    lay["trace_overhead"] = p50_traced - benchlib.median(untraced)
    tphase = result["phases"][1]
    lay["generator.cpu_share"] = tphase["cpu_s"] / \
        (tphase["wall_s"] * NPROC)

    w = args.workload
    rows = []

    def row(name, us, note=""):
        rows.append((name, us, note))

    if w == "tiled_synth":
        for k in ("elaborate", "optimize", "flatten", "characterize"):
            row("hier." + k, 1000 * lay["hier.%s_ms" % k])
    else:
        row("service.parse", lay["service.parse_us"])
        row("service.queue_wait", 1000 * lay["service.queue_wait_ms"],
            "daemon p50")
        kinds = {}
        for r in recs:
            if r[3] == 1:
                kinds[r[2]] = kinds.get(r[2], 0) + 1
        n = max(1, sum(kinds.values()))
        if w == "hot_synth":
            row("synth.cache (2 hits)", 2 * lay["synth.cache.hit_us"])
            row("service.connect", lay["service.connect_us"] / 20,
                "1 in 20 requests")
        elif w == "cold_synth":
            row("core.elaborate", lay["core.elaborate_us"])
            row("synth.optimize", lay["synth.optimize_us"])
            row("analysis.characterize (x2)",
                2 * lay["analysis.characterize_us"])
        elif w == "compute_mix":
            y = kinds.get("yield", 0) + kinds.get("yield_stream", 0)
            row("analysis.yield", 1000 * lay["analysis.yield_ms"] * y / n,
                "%d of %d requests" % (y, n))
            i = kinds.get("iss_sweep", 0)
            row("dse.iss_sweep", 1000 * lay["dse.iss_sweep_ms"] * i / n,
                "%d of %d requests" % (i, n))
            c = kinds.get("classify_stream", 0)
            row("ml.classify", 1000 * lay["ml.classify_ms"] * c / n,
                "%d of %d requests" % (c, n))
        row("service.render", lay["service.render_us"])
        row("service.transport", lay["service.transport_us"],
            "unloaded round trip - in-process")
        row("metrics.record", lay["metrics.record_ns"] / 1000)
    lay["unattributed_us"] = p50_traced - sum(r[1] for r in rows)
    return lay, rows, p50_traced


def print_ledger(args, lay, rows, p50_traced):
    out = ["", "Per-layer ledger: %s, seed %d (traced p50 %.1f us)" %
           (args.workload, args.seed, p50_traced)]
    out.append("  %-30s %12s  %s" % ("layer", "self us/req", "base"))
    for name, us, note in rows:
        out.append("  %-30s %12.2f  %s" % (name, us, note))
    out.append("  %-30s %12.2f  %s" % ("unattributed", lay["unattributed_us"],
                                       "traced p50 - sum of rows"))
    out.append("  %-30s %12.2f  %s" % ("trace_overhead",
                                       lay["trace_overhead"],
                                       "traced p50 - untraced p50"))
    out.append("  ratios: synth.cache.hit_ratio %.4f of %d lookups; "
               "synth.disk.hit_ratio %.4f of %d sampled lookups "
               "(in process); balancer.shard_spread %.3f (2 shards, "
               "in process); coalesce %d of %d requests" % (
                   lay.get("synth.cache.hit_ratio", 0),
                   lay.get("synth.cache.lookups", 0),
                   lay.get("synth.disk.hit_ratio", 0),
                   lay.get("synth.disk.lookups", 0),
                   lay.get("balancer.shard_spread", 0),
                   lay.get("service.coalesce_hits", 0),
                   lay.get("daemon.requests", 0)))
    print("\n".join(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true",
                    help="keep the run directory (logs, records)")
    args = ap.parse_args()
    started = time.monotonic()
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < hard:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        docs = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchError("unknown workload '%s'" % args.workload)

    bdir = build_dir()
    bins = build(bdir)
    deadline = time.monotonic() + RUN_DEADLINE_S
    rundir = os.path.join(bdir, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    probe = None
    try:
        if not args.trace:
            probe = Probe(args, bins, rundir, deadline)
        run = run_tiled if args.workload == "tiled_synth" else run_service
        results, recs, setups, samples = run(args, bins, rundir, deadline,
                                             probe)
    finally:
        if probe:
            probe.stop()
        if not args.keep:
            shutil.rmtree(rundir, ignore_errors=True)
    probes = probe.results if probe else []

    # Correctness: every reply equals the in-process reference, the
    # recorded golden values hold, and no request failed.
    problems = []
    for k, result in enumerate(results):
        if args.workload == "tiled_synth":
            for key, want in expected["tiled_synth"].items():
                if result.get(key) != want:
                    problems.append("tiled run %d: %s %s != recorded %s"
                                    % (k, key, result.get(key), want))
            continue
        for key in ("golden_digest", "golden_reference"):
            if result[key] != expected["golden_digest"]:
                problems.append("slice %d: %s %s != recorded %s" % (
                    k, key, result[key], expected["golden_digest"]))
        if result["digest"] != result["expected_digest"]:
            problems.append("slice %d: reply digest %s != reference %s" % (
                k, result["digest"], result["expected_digest"]))
    checked = results + probes
    totals = {key: sum(r[key] for r in checked)
              for key in ("attempted", "errors", "wrong")}
    first = {key: next((r[key] for r in checked if r.get(key)), "")
             for key in ("first_error", "first_wrong")}
    if totals["wrong"]:
        problems.append("%d replies differ from the reference (first: %s)"
                        % (totals["wrong"], first["first_wrong"]))
    if totals["errors"]:
        problems.append("%d requests failed (first: %s)"
                        % (totals["errors"], first["first_error"]))
    correct = not problems
    for p in problems:
        log("FAIL: " + p)

    if args.trace:
        lay, rows, p50 = ledger(args, results[-1], recs[-1])
        print_ledger(args, lay, rows, p50)
        names = bench["per_layer"]
    else:
        lay = end_to_end(args, docs[args.workload], results, probes, recs,
                         probe.recs, setups, samples, totals)
        names = bench["end_to_end"]
        count = sum(r["phases"][0]["count"] for r in results)
        wall = sum(r["phases"][0]["wall_s"] for r in results)
        cpu = sum(r["phases"][0]["cpu_s"] for r in results)
        print("\n%s, seed %d: %d requests in %d slices, %.2f s, generator "
              "CPU %.2f s (%.1f%% of %d CPUs), %d failed" % (
                  args.workload, args.seed, count, len(results), wall, cpu,
                  100 * cpu / (wall * NPROC), NPROC,
                  totals["errors"] + totals["wrong"]))
    metrics = {}
    for m in names:
        if m["name"] not in lay:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": lay[m["name"]], "unit": m["unit"]}
        print("  %-28s %16.6g %s" % (m["name"], lay[m["name"]], m["unit"]))
    log("run took %.1f s" % (time.monotonic() - started))
    print(json.dumps({
        "correct": correct,
        "attempted": int(totals["attempted"]),
        "failed": int(totals["errors"] + totals["wrong"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
