#!/usr/bin/env python3
"""The benchmark of the `rapid` atomicity checker.

    python3 rapidbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `rapid` and the in-process helper
(`rapidbench/`, a Cargo package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the workload's inputs from the seed
under `.bench_work/`, and then:

* `--trace 0` runs the workload through the user-facing `rapid` command
  for S seconds and prints the end-to-end metrics;
* `--trace 1` runs the helper's traced layer ladder and prints the
  per-layer metrics.

Every verdict is checked against the ground truth. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the exit code is non-zero when any verdict was
wrong. See rapidbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("check-rbt", "compare-std", "batch-corpus", "serve-online")
JOBS = "2"
SETUP_REPS = 5
# The tail is the highest percentile with at least 10 samples beyond it,
# so a run takes at least 11 samples.
MIN_REPS = 11
MAX_REPS = 200
# Untraced reference runs inside a traced run, for the residual and the
# tracing overhead.
REFERENCE_REPS = 3

END_TO_END = {
    "events_per_sec": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
}

PER_LAYER = {"workloads.gen.busy_s": "s"}
PER_LAYER.update({
    "tracelog.binfmt.open_s": "s",
    "tracelog.binfmt.decode.busy_s": "s",
    "tracelog.parser.busy_s": "s",
    "tracelog.validate.busy_s": "s",
    "tracelog.wire.encode.busy_s": "s",
    "tracelog.wire.decode.busy_s": "s",
})
for _c in ("optimized", "basic", "readopt"):
    PER_LAYER[f"aerodrome.{_c}.busy_s"] = "s"
    PER_LAYER[f"aerodrome.{_c}.clock_joins"] = "count"
    PER_LAYER[f"vc.pool.{_c}.heap_allocs"] = "count"
    PER_LAYER[f"vc.pool.{_c}.cow_copies"] = "count"
    PER_LAYER[f"vc.pool.{_c}.retained_bytes"] = "B"
PER_LAYER.update({
    "velodrome.busy_s": "s",
    "velodrome.edges_created": "count",
    "velodrome.dfs_visits": "count",
    "velodrome.peak_live_nodes": "count",
    "pipeline.par.batches": "count",
    "pipeline.par.batch_buffers": "count",
    "pipeline.par.critical_path_s": "s",
    "pipeline.par.overhead_s": "s",
    "pipeline.multi.discover_s": "s",
    "pipeline.multi.reset.busy_s": "s",
    "pipeline.multi.idle_s": "s",
    "pipeline.multi.critical_path_s": "s",
    "serve.sessions": "count",
    "serve.retained_bytes": "B",
    "serve.evictions": "count",
    "serve.client.send_blocked_s": "s",
    "serve.generator_lag_ms": "ms",
    "serve.pushed_before_end_ratio": "fraction",
    "serve.critical_path_s": "s",
    "residual_s": "s",
    "tracing_overhead_s": "s",
})

# Panel order of `rapid compare` / `standard_checkers`.
PANEL = ("aerodrome-basic", "aerodrome-readopt", "aerodrome", "velodrome")


class Fail(Exception):
    """A failure that stops the run before any result exists."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- processes


def measured(cmd, out_path):
    """Runs `cmd` to completion with stdout in `out_path`; returns its exit
    code, wall seconds, peak RSS in KiB, stdout and stderr."""
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8") as f:
        stderr = f.read()
    return proc.returncode, wall, usage.ru_maxrss, stdout, stderr


def helper_json(cmd, out_path):
    """Runs a helper subcommand and returns its JSON result."""
    code, _, _, stdout, stderr = measured(cmd, out_path)
    if code != 0:
        raise Fail(f"{' '.join(cmd[:2])} failed ({code}): {stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


class Server:
    """A `rapid serve --jobs 2` process on an ephemeral loopback port."""

    running = []

    def __init__(self, rapid, log_path):
        self.maxrss = 0
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [rapid, "serve", "--addr", "127.0.0.1:0", "--jobs", JOBS],
            stdout=subprocess.PIPE, stderr=self.log)
        Server.running.append(self)
        line = self.proc.stdout.readline().decode()
        m = re.search(r"listening on (\S+)", line)
        if not m:
            self.stop()
            raise Fail(f"rapid serve did not start: {line!r}")
        self.addr = m.group(1)

    def stop(self):
        """Stops the server; returns its peak RSS in KiB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss = usage.ru_maxrss
            self.proc.stdout.close()
            self.log.close()
            Server.running.remove(self)
        return self.maxrss


def build(root):
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "rapid-cli"], ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "-q", *extra]
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise Fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "rapid"), os.path.join(release, "rapidbench")


# ------------------------------------------------------------ ground truth


def read_expect(setup_dir):
    rows = []
    with open(os.path.join(setup_dir, "expect.tsv"), encoding="utf-8") as f:
        for line in f:
            path, kind, events, role = line.rstrip("\n").split("\t")
            rows.append({"path": path, "violating": kind == "violation",
                         "events": int(events), "role": role})
    return rows


def verdict_faults(violations, violating):
    """The ground-truth rules over one trace's panel verdicts
    (basic, readopt, optimized, velodrome; None = serializable)."""
    faults = []
    for name, v in zip(PANEL, violations):
        if (v is not None) != violating:
            faults.append(f"{name} says {v}, expected {'a violation' if violating else 'serializable'}")
    basic, readopt, optimized = violations[0], violations[1], violations[2]
    if basic != readopt:
        faults.append(f"basic e{basic} != readopt e{readopt}")
    if basic is not None and optimized is not None and optimized > basic:
        faults.append(f"optimized flags e{optimized} after basic e{basic}")
    return faults


def verify_check(code, out, err, expect):
    (e,) = expect
    faults = [] if code == 0 else [f"exit code {code}"]
    events = re.search(r"^events processed: (\d+)$", out, re.M)
    verdict = re.search(r"^verdict: (\S)", out, re.M)
    if not events or not verdict:
        faults.append("no verdict in the output")
    else:
        if (verdict.group(1) == "✗") != e["violating"]:
            faults.append(f"verdict {verdict.group(1)} on a {'violating' if e['violating'] else 'serializable'} trace")
        if int(events.group(1)) != e["events"]:
            faults.append(f"{events.group(1)} events processed, expected {e['events']}")
    return 1, faults


def verify_compare(code, out, err, expect):
    (e,) = expect
    faults = [] if code == 0 else [f"exit code {code}"]
    events = re.search(r"^events: (\d+)\s", out, re.M)
    if not events or int(events.group(1)) != e["events"]:
        faults.append(f"events line {events.group(0) if events else None!r}, expected {e['events']}")
    rows = re.findall(r"^(\S+)\s+([✓✗])\s+\d+\s+\d+\s+\d+\s+(?:-|e(\d+):)", out, re.M)
    if tuple(r[0] for r in rows) != PANEL:
        faults.append(f"panel rows {[r[0] for r in rows]}")
    else:
        violations = [int(r[2]) if r[1] == "✗" else None for r in rows]
        faults += verdict_faults(violations, e["violating"])
    return 1, faults


def verify_batch(code, out, err, expect):
    """Per trace: all four checkers agree with the ground truth and every
    event was checked. `rapid batch` exits 1, with its report on stderr,
    when traces violate."""
    by_name = {os.path.basename(e["path"]): e for e in expect}
    seen = {}
    for events, verdicts, path, note in re.findall(
            r"^\s*\d+\s+(\d+)\s+([✓✗]{4})\s+[\d.]+s\s+(\S+)(.*)$", out + err, re.M):
        seen[os.path.basename(path)] = (int(events), verdicts, note)
    faults = []
    if code not in (0, 1):
        faults.append(f"exit code {code}")
    for name, e in by_name.items():
        got = seen.get(name)
        want = ("✗" if e["violating"] else "✓") * 4
        if got is None:
            faults.append(f"{name}: missing")
        elif got != (e["events"], want, ""):
            faults.append(f"{name}: {got}, expected {(e['events'], want, '')}")
    return len(expect), faults


VERIFY = {"check-rbt": verify_check, "compare-std": verify_compare, "batch-corpus": verify_batch}


def command(workload, rapid, setup_dir, expect):
    if workload == "check-rbt":
        return [rapid, "check", os.path.join(setup_dir, expect[0]["path"])]
    if workload == "compare-std":
        return [rapid, "compare", os.path.join(setup_dir, expect[0]["path"]), "--jobs", JOBS]
    return [rapid, "batch", os.path.join(setup_dir, "corpus"), "--jobs", JOBS]


# ----------------------------------------------------------------- metrics


def tail(samples):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile)."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise Fail(f"{n} latency samples; the tail needs at least 11")
    return s[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Traces attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = []

    def add(self, attempted, faults, failed=None):
        self.attempted += attempted
        self.failed += min(attempted, len(faults) if failed is None else failed)
        self.faults += faults


def setup(workload, seed, work, helper, rapid):
    """Generates the inputs SETUP_REPS times, each into a fresh directory
    (for serve-online also starting and warming the server); keeps the
    last. Returns the median set-up time, the directory, the helper's
    report and the server."""
    times, gen_busy = [], []
    server = None
    for k in range(SETUP_REPS):
        d = os.path.join(work, f"setup-{k}")
        start = time.perf_counter()
        info = helper_json([helper, "setup", "--workload", workload, "--seed", str(seed), "--dir", d],
                           os.path.join(work, "setup.out"))
        if workload == "serve-online":
            server = Server(rapid, os.path.join(work, f"serve-{k}.log"))
            helper_json([helper, "warm", "--addr", server.addr, "--dir", d], os.path.join(work, "warm.out"))
        times.append(time.perf_counter() - start)
        gen_busy.append(info["gen_busy_s"])
        if k < SETUP_REPS - 1:
            shutil.rmtree(d)
            if server:
                server.stop()
    info["gen_busy_s"] = statistics.median(gen_busy)
    return statistics.median(times), d, info, server


def cli_reps(cmd, verify, expect, work, tally, seconds, min_reps):
    """Runs the command until `seconds` have passed and at least
    `min_reps` runs are made; returns (events, wall, rss KiB) per run."""
    reps = []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(reps) < min_reps) and len(reps) < MAX_REPS:
        code, wall, rss, out, err = measured(cmd, os.path.join(work, "cmd.out"))
        attempted, faults = verify(code, out, err, expect)
        if code not in (0, 1):
            faults.append(err.strip()[-500:])
        tally.add(attempted, faults)
        reps.append((sum(e["events"] for e in expect), wall, rss))
    return reps


def untraced(workload, args, work, rapid, helper):
    tally = Tally()
    setup_s, setup_dir, info, server = setup(workload, args.seed, work, helper, rapid)
    expect = read_expect(setup_dir)
    report = {"setup": info}
    if workload == "serve-online":
        try:
            run = helper_json(
                [helper, "serve", "--addr", server.addr, "--dir", setup_dir,
                 "--sat-seconds", str(0.4 * args.seconds), "--paced-seconds", str(0.6 * args.seconds)],
                os.path.join(work, "serve.out"))
        finally:
            rss = server.stop()
        tally.add(run["attempted"], run["faults"], run["failed"])
        if run["backlog_growing"]:
            log(f"warning: paced backlog grew by {run['lag_growth_ms']:.2f} ms; latencies are not steady-state")
        events_per_sec = run["events_per_sec"]
        latencies = run["latencies_ms"]
        rss_mib = rss / 1024
        report.update(samples=f"{len(latencies)} verdicts of the paced phase",
                      pushed_before_end=f"{run['pushed_before_end']}/{run['injected']}")
    else:
        reps = cli_reps(command(workload, rapid, setup_dir, expect), VERIFY[workload], expect, work, tally,
                        args.seconds, MIN_REPS)
        events_per_sec = statistics.median(e / w for e, w, _ in reps)
        latencies = [w * 1e3 for _, w, _ in reps]
        rss_mib = statistics.median(r for _, _, r in reps) / 1024
        report.update(samples=f"{len(reps)} runs, one verdict each (wall time of the command)")
    tail_ms, pct = tail(latencies)
    metrics = {
        "events_per_sec": events_per_sec,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mib,
        "verdict_p50_ms": statistics.median(latencies),
        "verdict_tail_ms": tail_ms,
    }
    report.update(tail_percentile=round(pct, 2), latency_samples=len(latencies))
    return metrics, tally, report


def traced(workload, args, work, rapid, helper):
    tally = Tally()
    _, setup_dir, info, server = setup(workload, args.seed, work, helper, rapid)
    expect = read_expect(setup_dir)
    m = {name: 0.0 for name in PER_LAYER}
    m["workloads.gen.busy_s"] = info["gen_busy_s"]
    if workload == "serve-online":
        try:
            ref = helper_json(
                [helper, "serve", "--addr", server.addr, "--dir", setup_dir,
                 "--sat-seconds", str(0.25 * args.seconds), "--paced-seconds", "0.5"],
                os.path.join(work, "serve.out"))
            run = helper_json(
                [helper, "serve", "--addr", server.addr, "--dir", setup_dir, "--traced",
                 "--sat-seconds", str(0.35 * args.seconds), "--paced-seconds", str(0.35 * args.seconds)],
                os.path.join(work, "serve.out"))
        finally:
            server.stop()
        for r in (ref, run):
            tally.add(r["attempted"], r["faults"], r["failed"])
        # The traced run's saturating events at the untraced rate.
        untraced_wall = run["sat_events"] / ref["events_per_sec"]
        traced_wall = run["traced_wall_s"]
        layers = run
    else:
        reps = cli_reps(command(workload, rapid, setup_dir, expect), VERIFY[workload], expect, work, tally,
                        0.0, REFERENCE_REPS)
        untraced_wall = statistics.median(w for _, w, _ in reps)
        layers = helper_json([helper, "ladder", "--workload", workload, "--dir", setup_dir],
                             os.path.join(work, "ladder.out"))
        tally.add(len(expect), layers["faults"])
        traced_wall = layers["traced_wall_s"]
    for name in PER_LAYER:
        if name in layers:
            m[name] = layers[name]
    m["residual_s"] = untraced_wall - layers["path_s"]
    m["tracing_overhead_s"] = traced_wall - untraced_wall
    report = {"setup": info, "untraced_wall_s": untraced_wall,
              "traced_wall_s": traced_wall, "path_s": layers["path_s"]}
    return m, tally, report


# ---------------------------------------------------------------- printing


def ladder_lines(workload, m, report):
    """The layer ladder against the untraced wall."""
    wall = report["untraced_wall_s"]
    rows = [(name, m[name]) for name in PER_LAYER
            if (name.endswith("busy_s") or name.endswith("open_s") or name.endswith("discover_s"))
            and name != "workloads.gen.busy_s" and m[name] > 0]
    lines = [f"layer ladder ({workload}), untraced wall {wall:.4f} s:"]
    for name, v in rows:
        lines.append(f"  {name:<34} {v:10.4f} s  {100 * v / wall:6.1f}% of wall")
    label = "sum of layer self times" if workload == "check-rbt" else "critical path"
    lines.append(f"  {label:<34} {report['path_s']:10.4f} s  {100 * report['path_s'] / wall:6.1f}% of wall")
    lines.append(f"  {'residual_s':<34} {m['residual_s']:10.4f} s")
    lines.append(f"  {'tracing_overhead_s':<34} {m['tracing_overhead_s']:10.4f} s "
                 f"(traced wall {report['traced_wall_s']:.4f} s)")
    return lines


def source_digest(root):
    """SHA-256 over the repository's sources, so results name the code they
    measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(root, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in ("src", "crates", "shims"):
        for d, dirs, names in os.walk(os.path.join(root, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(root, args, info):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout.strip() else None
        except OSError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "kernel": platform.release(),
        "rustc": first_line(["rustc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) if os.path.exists(os.path.join(root, ".git")) else None,
        "source_sha256": source_digest(root), "jobs": int(JOBS),
        "input_traces": info.get("traces"), "input_events": info.get("events"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "rapid-cli"))):
        log("error: run from the repository root (no Cargo.toml / crates/rapid-cli here)")
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        rapid, helper = build(root)
        os.makedirs(work)
        run = traced if args.trace else untraced
        metrics, tally, report = run(args.workload, args, work, rapid, helper)
    except Fail as e:
        log(f"error: {e}")
        return 1
    finally:
        for server in list(Server.running):
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"rapidbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':<34} {ratio:>16.6g} fraction ({tally.failed}/{tally.attempted} traces)")
    if args.trace:
        for line in ladder_lines(args.workload, metrics, report):
            print(line)
    else:
        print(f"  latency samples: {report['samples']}; tail = p{report['tail_percentile']} "
              f"of {report['latency_samples']}")
        if "pushed_before_end" in report:
            print(f"  pushed_before_end_ratio: {report['pushed_before_end']} injected violations")
    for fault in tally.faults[:20]:
        print(f"  WRONG VERDICT: {fault}")
    print("provenance: " + json.dumps(provenance(root, args, report["setup"])))
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
