#!/usr/bin/env python3
"""Repository benchmark: NAS kernels as batch jobs under on-demand and static
connection management, measured end to end and split by layer.

    python3 perfbench/run.py --workload cg-a64-ondemand --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the job
runner (perfbench/CMakeLists.txt) from the repository's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Workloads,
recorded outputs and metric notes live in perfbench/workloads.json; see
perfbench/README.md for what each metric means.

--trace 0 runs untraced jobs back to back, each in a fresh process, for
--seconds and reports the end-to-end metrics (medians over the jobs).
--trace 1 reports the per-layer metrics: untraced/traced job pairs, the
layer probes sized from the workload's counters, and the process-history
check. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
JOB_TIMEOUT_S = 150   # one job-runner process
RUN_BUDGET_S = 150    # stop starting jobs that could end past this


class JobError(Exception):
    pass


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = os.path.join(build_dir, "odmpi_perfbench")
    commands = [["cmake", "--build", build_dir, "-j",
                 str(min(4, os.cpu_count() or 1))]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.insert(0, configure)
    for cmd in commands:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary


def invoke(binary, *args, timeout=JOB_TIMEOUT_S):
    cmd = [binary] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise JobError("timed out after %d s" % timeout)
    if proc.returncode != 0:
        raise JobError("exit code %d: %s" % (proc.returncode,
                                             proc.stderr.strip()[-300:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec_of(w):
    return "%s:%s:%d:%s" % (w["kernel"], w["class"], w["ranks"], w["model"])


def check(job, expect, seed, with_virtual):
    """Names every check the job fails; [] when it is correct. Traced jobs
    skip the virtual metrics: the tracer's allocations move the heap, and
    the registration cache is keyed by heap address."""
    bad = []
    if job["seed"] != seed:
        bad.append("JobOptions::seed %r != --seed %r" % (job["seed"], seed))
    if job["status"] != "ok":
        bad.append("status %s (%s)" % (job["status"], job["summary"]))
    if not job["verified"]:
        bad.append("verified false")
    names = ["checksum"]
    if with_virtual:
        names += ["virtual_s", "init_us", "vis_per_rank", "pinned_bytes"]
    for name in names:
        if job[name] != expect[name]:
            bad.append("%s %r != recorded %r" % (name, job[name], expect[name]))
    return bad


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


class Runner:
    """Runs job-runner processes and keeps the correctness tally."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.w = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []

    def job(self, traced):
        self.attempted += 1
        try:
            out = invoke(self.binary, "job", spec_of(self.w), self.seed,
                         1 if traced else 0)
        except JobError as e:
            self.failures.append("job %d: %s" % (self.attempted, e))
            return None
        bad = check(out, self.w["expect"], self.seed, with_virtual=not traced)
        if bad:
            self.failures.append("job %d: %s" % (self.attempted, "; ".join(bad)))
        return out

    def extra(self, what, ok, detail):
        """Counts a non-job check (probe, history) as one attempt."""
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (what, detail))


def end_to_end(runner, seconds):
    jobs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        out = runner.job(traced=False)
        if out is not None:
            jobs.append(out)
        now = time.monotonic()
        if now - start >= seconds or now - start + (now - t0) > RUN_BUDGET_S:
            break
    first = jobs[0] if jobs else None

    def med(key, scale=1.0):
        return median([j[key] * scale for j in jobs])

    metrics = {
        "host_s": (med("host_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "peak_rss_mb": (med("peak_rss_bytes", 1e-6), "MB"),
        "virtual_s": (first["virtual_s"] if first else 0.0, "sim_s"),
        "init_us": (first["init_us"] if first else 0.0, "sim_us"),
        "vis_per_rank": (first["vis_per_rank"] if first else 0.0, "count"),
        "pinned_mb": (first["pinned_bytes"] * 1e-6 if first else 0.0, "MB"),
    }
    print("jobs: %d fresh processes, %d with output" % (runner.attempted,
                                                        len(jobs)))
    for key in ("host_s", "setup_s", "body_host_s", "teardown_host_s"):
        values = sorted(j[key] for j in jobs)
        if values:
            print("  %-16s median %.4f s  min %.4f  max %.4f  (n=%d)" % (
                key, median(values), values[0], values[-1], len(values)))
    return metrics


def per_layer(runner, seconds, workloads):
    w = runner.w
    start = time.monotonic()
    pairs = []

    def pair():
        t0 = time.monotonic()
        plain, traced = runner.job(traced=False), runner.job(traced=True)
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
        return time.monotonic() - t0

    took = pair()
    if not pairs:
        return {}
    c = pairs[0][0]["counters"]
    tr = pairs[0][1]["trace"]

    sizes = dict(ranks=w["ranks"],
                 depth=pairs[0][0]["queue_depth_max"],
                 regions=round(pairs[0][0]["regions_per_rank"]),
                 peers=max(1, round(pairs[0][0]["vis_per_rank"])),
                 unexpected=max(1, tr["unexpected_depth_max"]))
    try:
        probes = invoke(runner.binary, "probes", sizes["ranks"],
                        sizes["depth"], sizes["regions"], sizes["peers"],
                        sizes["unexpected"])
        bad = [k for k in ("event_ns", "fiber_switch_ns", "covers_ns",
                           "handshake_ns", "match_ns") if probes[k] <= 0]
        runner.extra("probes", not bad, "failed probe(s) " + ", ".join(bad))
    except JobError as e:
        runner.extra("probes", False, str(e))
        probes = {}

    others = [spec_of(o) for name, o in sorted(workloads.items())
              if o is not w]
    try:
        hist = invoke(runner.binary, "history", runner.seed, spec_of(w),
                      *others)
        runner.extra("history", hist["ok"], "a job in the history process "
                     "did not end ok")
    except JobError as e:
        runner.extra("history", False, str(e))
        hist = {}
    # More pairs only while one more still ends within --seconds.
    while time.monotonic() - start + took <= min(seconds, RUN_BUDGET_S):
        took = pair()
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    write_spans(w, runner.seed, traced[0]["spans"], probes.get("spans", []))

    body_s = median([p["body_host_s"] for p in plain])
    sends = c.get("mpi.sends", 0)
    hits, misses = c.get("mpi.reg_cache_hits", 0), c.get("mpi.reg_cache_misses", 0)
    host_plain = median([p["host_s"] for p in plain])
    host_traced = median([t["host_s"] for t in traced])
    m = {
        # sim
        "sim.event_ns": (probes.get("event_ns", 0.0), "ns"),
        "sim.fiber_switch_ns": (probes.get("fiber_switch_ns", 0.0), "ns"),
        "sim.queue_depth": (sizes["depth"], "count"),
        "sim.events": (plain[0]["events"], "count"),
        "sim.host_ns_per_event": (ratio(body_s * 1e9, plain[0]["events"]), "ns"),
        "trace.events": (tr["events"], "count"),
        "trace.overhead_ratio": (ratio(host_traced, host_plain), "ratio"),
        # via
        "via.host_ns_per_packet": (ratio(body_s * 1e9, c["fabric.packets"]), "ns"),
        "via.registry.covers_ns": (probes.get("covers_ns", 0.0), "ns"),
        "via.registry.regions": (plain[0]["regions_per_rank"], "count"),
        "via.conn.handshake_ns": (probes.get("handshake_ns", 0.0), "ns"),
        "via.fabric.packets": (c["fabric.packets"], "count"),
        "via.fabric.bytes": (c["fabric.bytes"], "bytes"),
        "via.rdma.writes": (c.get("rdma.write", 0), "count"),
        "via.vi.created": (c.get("vi.created", 0), "count"),
        "via.conn.established": (c.get("conn.established", 0), "count"),
        "via.retransmits": (c.get("via.retransmits", 0), "count"),
        "via.conn.retries": (c.get("conn.retries", 0), "count"),
        # mpi
        "mpi.sends": (sends, "count"),
        "mpi.eager_share": (ratio(c.get("mpi.eager_sends", 0), sends), "ratio"),
        "mpi.rndv_sends": (c.get("mpi.rndv_sends", 0), "count"),
        "mpi.ondemand_connects": (c.get("mpi.ondemand_connects", 0), "count"),
        "mpi.parked_sends": (c.get("mpi.parked_sends", 0), "count"),
        "mpi.connect_failures": (c.get("mpi.connect_failures", 0), "count"),
        "mpi.unexpected_ratio": (ratio(c.get("mpi.unexpected_msgs", 0),
                                       c.get("mpi.recvs", 0)), "ratio"),
        "mpi.unexpected_depth_max": (tr["unexpected_depth_max"], "count"),
        "mpi.match_ns": (probes.get("match_ns", 0.0), "ns"),
        "mpi.conn.handshake_wait_us.p50": (tr["handshake_p50_us"], "sim_us"),
        "mpi.conn.handshake_wait_us.max": (tr["handshake_max_us"], "sim_us"),
        "mpi.send.park_wait_us.p50": (tr["park_p50_us"], "sim_us"),
        "mpi.send.park_wait_us.max": (tr["park_max_us"], "sim_us"),
        "mpi.reg_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "mpi.reg_cache.history_drift_bytes": (
            hist.get("reused_pinned_bytes", 0) - hist.get("fresh_pinned_bytes", 0),
            "bytes"),
        "mpi.reg_cache.history_drift_hits": (
            hist.get("reused_reg_cache_hits", 0) - hist.get("fresh_reg_cache_hits", 0),
            "count"),
        # nas
        "app.body_host_s": (body_s, "s"),
        "app.teardown_host_s": (median([p["teardown_host_s"] for p in plain]), "s"),
    }
    print("pairs: %d untraced/traced; probe sizes %s" % (len(pairs), sizes))
    if hist:
        print("history: pinned peak %.0f B fresh, %.0f B after the other "
              "workloads; registration-cache hits %d vs %d; virtual_s %r vs "
              "%r" % (hist["fresh_pinned_bytes"], hist["reused_pinned_bytes"],
                      hist["fresh_reg_cache_hits"],
                      hist["reused_reg_cache_hits"], hist["fresh_virtual_s"],
                      hist["reused_virtual_s"]))
    return m


def write_spans(w, seed, job_spans, probe_spans):
    """Writes the benchmark's own host-clock spans as Chrome trace JSON."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(os.path.abspath(target), "perfbench-traces")
    os.makedirs(out_dir, exist_ok=True)
    events = []
    for tid, spans in ((0, job_spans), (1, probe_spans)):
        for s in spans:
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else None
            events.append({"name": s["name"], "ph": "X", "pid": 0, "tid": tid,
                           "ts": s["start_us"], "dur": s["dur_us"],
                           "args": {"parent": parent}})
    path = os.path.join(out_dir, "%s-seed%d.json" % (w["name"], seed))
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    print("spans: %s" % path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2 ** 64:
        ap.error("--seed must fit in JobOptions::seed (an unsigned 64-bit)")

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    workloads = spec["workloads"]
    if args.workload not in workloads:
        sys.exit("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(sorted(workloads))))
    for name, w in workloads.items():
        w["name"] = name
    binary = build()

    w = workloads[args.workload]
    print("perfbench %s: %s class %s, %d ranks, %s connections (cLAN, "
          "polling); seed %d passed as JobOptions::seed, which the NAS "
          "kernels do not read" % (args.workload, w["kernel"], w["class"],
                                   w["ranks"], w["model"], args.seed))
    runner = Runner(binary, w, args.seed)
    if args.trace:
        metrics = per_layer(runner, args.seconds, workloads)
    else:
        metrics = end_to_end(runner, args.seconds)
    for failure in runner.failures:
        print("FAILED " + failure)
    print("fail_ratio %d/%d" % (len(runner.failures), runner.attempted))
    for name, (value, unit) in metrics.items():
        print("  %-36s %.6g %s" % (name, value, unit))
    result = {
        "correct": not runner.failures and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
