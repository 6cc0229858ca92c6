#!/usr/bin/env python3
"""Repository benchmark: planning wall time and simulated throughput.

Run one workload (builds the driver on first use):

    python3 perfbench/run.py --workload plan-node --seed 1 \\
        --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Each run also
saves its full result (host stamp, tail percentile, open-loop health,
layer self times) under .bench_results/, and a traced run writes a
Chrome trace there.

Other commands:

    python3 perfbench/run.py compare <old> <new>
        Compare two result files or directories of results; refuses
        when their host stamps differ.
    python3 perfbench/run.py spread --workload <w> --seeds 10 \\
        --seconds 50
        Run several seeds and print each metric's inter-quartile
        spread as a share of its median.
    python3 perfbench/test_stats.py
        Unit checks of the statistics on fixed inputs.

See perfbench/README.md for the workloads and the metrics.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of caches

import argparse
import glob
import hashlib
import json
import os
import subprocess
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("plan-node", "plan-cluster", "serve-mix")
SETUP_LAUNCHES = 9
RUN_LIMIT_S = 170  # whole command, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    out = BUILD_DIR
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return out / "perfbench_driver"


# ---------------------------------------------------------------- stamp

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "none"


def source_digest():
    """Digest of the library and benchmark sources, which identifies
    the code measured even when the checkout is not a git tree."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_stamp(record):
    return {
        "hardware_threads": record["hardware_threads"],
        "cpu_model": cpu_model(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "git_rev": git_rev(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------- runs

def launch(driver, args, out_file, timeout):
    """Run the driver once; returns (record, spawn-to-ready seconds)."""
    if out_file.exists():
        out_file.unlink()
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([str(driver)] + args + ["--out", str(out_file)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not out_file.exists():
        log(proc.stderr[-4000:])
        raise SystemExit("perfbench: driver failed with code %d"
                         % proc.returncode)
    record = json.loads(out_file.read_text())
    out_file.unlink()
    return record, (record["ready_ns"] - spawn_ns) / 1e9


def end_to_end(record, setup_samples):
    reqs = record["requests"]
    lat = [r["latency_ms"] for r in reqs]
    ok = [r for r in reqs if r["ok"]]
    tail_value, tail_pct, tail_beyond = stats.tail(lat)
    slo = record["slo_ms"]
    metrics = {
        "setup_s": (stats.median(setup_samples), "s"),
        "latency_p50_ms": (stats.median(lat), "ms"),
        "latency_tail_ms": (tail_value, "ms"),
        "requests_per_s": (len(ok) / record["wall_s"], "1/s"),
        "cpu_s_per_request": (record["cpu_s"] / max(1, len(ok)), "s"),
        "peak_rss_mb": (record["max_rss_kb"] / 1024.0, "MB"),
        "plan_samples_per_s": (
            stats.geomean(list(record["plans"].values())), "samples/s"),
        "slo_met_ratio": (
            sum(1 for r in ok if r["latency_ms"] <= slo) / len(reqs),
            "ratio"),
    }
    details = {
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": tail_beyond,
        "slo_ms": slo,
        "setup_samples_s": setup_samples,
    }
    return metrics, details


def layer_durations(spans, name):
    return [s["end_us"] - s["start_us"] for s in spans if s["name"] == name]


def per_layer(record):
    spans = record["spans"]
    reqs = record["requests"]
    us = lambda name: stats.median(layer_durations(spans, name))
    ms = lambda name: us(name) / 1000.0
    trials = [s for s in spans if s["name"] == "runtime.trial"]
    # The sharded engine runs only on multi-node topologies: its
    # metrics are medians over those trials, and 0 windows on 1 shard
    # when the workload has none.
    sharded = [s for s in trials if s["args"]["shards"] > 1]
    sharded_arg = lambda key, none: stats.median(
        [s["args"][key] for s in sharded]) if sharded else none
    windows_us = [(s["end_us"] - s["start_us"]) / s["args"]["windows"]
                  for s in sharded if s["args"]["windows"] > 0]
    events_per_s = [s["args"]["events"] * 1e6 / (s["end_us"] - s["start_us"])
                    for s in trials if s["end_us"] > s["start_us"]]

    # planner.self_ms per traced request: its planMPress call minus the
    # probes that re-time the planner's profile, mapping and trials.
    by_request = {}
    for s in spans:
        by_request.setdefault(s["request"], {})[s["name"]] = s
    dur_ms = lambda s: (s["end_us"] - s["start_us"]) / 1000.0
    planner_self = []
    for named in by_request.values():
        if "planner.plan" not in named or "runtime.trial" not in named:
            continue
        plan = named["planner.plan"]
        planner_self.append(stats.planner_self_ms(
            dur_ms(plan), dur_ms(named["planner.profile"]),
            dur_ms(named["planner.mapper"]) if "planner.mapper" in named
            else 0.0,
            plan["args"]["trials"], dur_ms(named["runtime.trial"])))

    hits = record["planner_cache_hits"]
    base = hits + record["planner_cache_misses"]
    server = record.get("server") or {}
    served = server.get("cache_hits", 0) + server.get("cache_misses", 0)
    op_p50 = lambda op: stats.median(
        [r["latency_ms"] for r in reqs if r["op"] == op and r["ok"]])
    metrics = {
        "sim.windows": (sharded_arg("windows", 0.0), "count"),
        "sim.window_us": (stats.median(windows_us), "us"),
        "sim.shards": (sharded_arg("shards", 1.0), "count"),
        "sim.events": (stats.median(
            [s["args"]["events"] for s in trials]), "count"),
        "sim.events_per_s": (stats.median(events_per_s), "1/s"),
        "runtime.trial_ms": (ms("runtime.trial"), "ms"),
        "planner.plan_ms": (ms("planner.plan"), "ms"),
        "planner.trials": (stats.median(
            [s["args"]["trials"] for s in spans
             if s["name"] == "planner.plan"]), "count"),
        "planner.profile_ms": (ms("planner.profile"), "ms"),
        "planner.mapper_ms": (ms("planner.mapper"), "ms"),
        "planner.self_ms": (stats.median(planner_self), "ms"),
        "planner.cache_hit_ratio": (hits / base if base else 0.0, "ratio"),
        "serve.cache_entries": (server.get("cache_entries", 0), "count"),
        "serve.cache_hit_ratio": (
            server.get("cache_hits", 0) / served if served else 0.0,
            "ratio"),
        "serve.overloaded": (server.get("overloaded", 0), "count"),
        "serve.op_p50_ms.plan_hit": (op_p50("plan_hit"), "ms"),
        "serve.op_p50_ms.plan_miss": (op_p50("plan_miss"), "ms"),
        "serve.op_p50_ms.analyze": (op_p50("analyze"), "ms"),
        "serve.op_p50_ms.robustness": (op_p50("robustness"), "ms"),
        "analysis.analyze_us": (us("analysis.analyze"), "us"),
        "verify.verify_us": (us("verify.verify"), "us"),
        "compaction.roundtrip_us": (us("compaction.roundtrip"), "us"),
        "model.build_us": (us("model.build"), "us"),
        "cluster.build_us": (us("cluster.build"), "us"),
        "partition.partition_us": (us("partition.partition"), "us"),
        "pipeline.schedule_us": (us("pipeline.schedule"), "us"),
        "trace.latency_p50_ms": (
            stats.median([r["latency_ms"] for r in reqs]), "ms"),
    }
    self_us = stats.self_times(spans)
    details = {
        "planner_cache_base": base,
        "layer_self_ms": {name: round(sum(v) / 1000.0, 3)
                          for name, v in sorted(self_us.items())},
    }
    return metrics, details


def lateness_health(record):
    """Open-loop generator health: (valid, p50, max) of send - due."""
    lateness = [r["lateness_ms"] for r in record["requests"]]
    if "lateness_limits_ms" not in record or not lateness:
        return True, 0.0, 0.0
    p50_limit, max_limit = record["lateness_limits_ms"]
    p50, worst = stats.median(lateness), max(lateness)
    return p50 <= p50_limit and worst <= max_limit, p50, worst


def chrome_trace(spans):
    return {"traceEvents": [
        {"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
         "ts": s["start_us"], "dur": s["end_us"] - s["start_us"],
         "args": dict(s["args"], request=s["request"],
                      parent=s["parent"])}
        for s in spans]}


def result_path(workload, trace, seed):
    return RESULTS / ("%s-trace%d-seed%d.json" % (workload, trace, seed))


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, saved result, valid)."""
    driver = build()
    started = time.monotonic()
    RESULTS.mkdir(exist_ok=True)
    raw_file = RESULTS / ("driver-%d.json" % os.getpid())
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]

    setups = []
    for _ in range(SETUP_LAUNCHES):
        _, s = launch(driver, base + ["--setup-only"], raw_file, 30)
        setups.append(s)
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    record, s = launch(driver, base, raw_file, max(10, remaining))
    setups.append(s)

    valid, late_p50, late_max = lateness_health(record)
    attempted = len(record["requests"])
    failed = min(record["failed_checks"], attempted)
    if trace:
        metrics, details = per_layer(record)
    else:
        metrics, details = end_to_end(record, setups)
    details.update({
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": record["messages"],
        "lateness_p50_ms": late_p50,
        "lateness_max_ms": late_max,
        "valid": valid,
        "wall_s": record["wall_s"],
    })
    stamp = host_stamp(record)

    if trace:
        # Only the plan-* request path runs inside spans; on serve-mix
        # the spans cover the probes after the window, so traced minus
        # untraced p50 there would be host noise, not tracing cost.
        untraced = result_path(workload, 0, seed)
        if workload.startswith("plan-") and untraced.exists():
            prior = json.loads(untraced.read_text())
            if not stats.stamp_mismatch(prior["stamp"], stamp):
                details["tracing_overhead_ms"] = (
                    metrics["trace.latency_p50_ms"][0]
                    - prior["metrics"]["latency_p50_ms"]["value"])
        trace_file = RESULTS / ("trace-%s-seed%d.json" % (workload, seed))
        trace_file.write_text(json.dumps(chrome_trace(record["spans"])))
        details["chrome_trace"] = str(trace_file.relative_to(ROOT))

    line = {
        "correct": record["failed_checks"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    saved = {"workload": workload, "seed": seed, "trace": trace,
             "seconds": seconds, "stamp": stamp,
             "correct": line["correct"], "metrics": line["metrics"],
             "details": details}
    # An invalid run measured the generator, not the program: it is
    # not saved, and an earlier result of the same name is removed, so
    # compare never sees it.
    path = result_path(workload, trace, seed)
    if valid:
        path.write_text(json.dumps(saved, indent=1, sort_keys=True))
    elif path.exists():
        path.unlink()
    return line, saved, valid


def print_report(saved):
    print("perfbench %s seed %d trace %d on %s (%s threads, %s %s)" % (
        saved["workload"], saved["seed"], saved["trace"],
        saved["stamp"]["cpu_model"], saved["stamp"]["hardware_threads"],
        saved["stamp"]["compiler"], saved["stamp"]["build_type"]))
    for name, m in saved["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    d = saved["details"]
    if "latency_tail_percentile" in d:
        print("  latency tail is p%.2f with %d samples beyond it" % (
            d["latency_tail_percentile"], d["latency_tail_samples_beyond"]))
    print("  failed_ratio %.4g; generator lateness p50 %.3f ms, max %.3f ms"
          % (d["failed_ratio"], d["lateness_p50_ms"], d["lateness_max_ms"]))
    if "tracing_overhead_ms" in d:
        print("  tracing overhead (traced - untraced p50): %.3f ms"
              % d["tracing_overhead_ms"])
    if "layer_self_ms" in d:
        print("  layer self time (ms, whole run): " + ", ".join(
            "%s %.1f" % kv for kv in d["layer_self_ms"].items()))
    for msg in d["failures"]:
        print("  FAILED CHECK: " + msg)


def cmd_run(args):
    line, saved, valid = measure(args.workload, args.seed, args.seconds,
                                 args.trace)
    print_report(saved)
    if not valid:
        print("  INVALID RUN: the open-loop generator could not keep its"
              " schedule; no result is reported")
        return 3
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------------- compare

def load_results(path):
    path = Path(path)
    files = sorted(glob.glob(str(path / "*-trace*-seed*.json"))) \
        if path.is_dir() else [str(path)]
    results = [json.loads(Path(f).read_text()) for f in files]
    return [r for r in results if r["details"].get("valid", True)]


def cmd_compare(args):
    old, new = load_results(args.old), load_results(args.new)
    if not old or not new:
        log("compare: no results found")
        return 2
    stamps = [r["stamp"] for r in old + new]
    bad = sorted({k for s in stamps[1:] for k in
                  stats.stamp_mismatch(stamps[0], s)})
    if bad:
        print("compare: refusing to judge results from different hosts"
              " or builds (stamp fields differ: %s)" % ", ".join(bad))
        return 2
    groups = {}
    for side, results in (("old", old), ("new", new)):
        for r in results:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, {"old": [], "new": []})[side] \
                    .append(m["value"])
    print("%-12s %-30s %14s %14s %9s" % ("workload", "metric", "old",
                                         "new", "change"))
    for (workload, _, name), v in sorted(groups.items()):
        if not v["old"] or not v["new"]:
            continue
        a, b = stats.median(v["old"]), stats.median(v["new"])
        change = "%+8.1f%%" % (100.0 * (b - a) / a) if a else "       -"
        print("%-12s %-30s %14.6g %14.6g %9s" % (workload, name, a, b,
                                                 change))
    return 0


def cmd_spread(args):
    values = {}
    for seed in range(1, args.seeds + 1):
        line, saved, valid = measure(args.workload, seed, args.seconds,
                                     args.trace)
        if not valid:
            print("seed %d: INVALID RUN (generator lateness p50 %.3f ms,"
                  " max %.3f ms), left out" % (
                      seed, saved["details"]["lateness_p50_ms"],
                      saved["details"]["lateness_max_ms"]), flush=True)
            continue
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(line)), flush=True)
    for name, v in values.items():
        print("%-28s median %12.6g spread %.4f" % (
            name, stats.median(v), stats.spread(v)))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        return cmd_compare(p.parse_args(argv[1:]))
    spread = bool(argv) and argv[0] == "spread"
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    if spread:
        p.add_argument("--seeds", type=int, default=10)
        return cmd_spread(p.parse_args(argv[1:]))
    p.add_argument("--seed", type=int, required=True)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
