#!/usr/bin/env python3
"""Whole-run benchmark of the OpenOptics simulator.

Builds perfbench_workload from the checkout's sources, then runs one
workload repeatedly, each time in a fresh process (so getrusage peak RSS
belongs to that run alone), for --seconds seconds. Every run's outputs are
checked. Host-time metrics are medians over the runs, at reference speed
(see REFERENCE_S); simulated metrics are means over the input seeds the
runs cycle through (see SUBSEEDS).

    python3 perfbench/run.py --workload packet64_kv --seed 1 --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs. --trace 1
alternates traced and untraced runs and reports the per-layer ledger of the
traced runs plus telemetry.trace_overhead_pct; the traced runs also leave
spans.trace.json, profile.txt and metrics.csv in the ledger directory.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": runs, "failed": runs that failed, "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mice_fct_p50_us", "us"),
    ("mice_fct_p99_us", "us"),
    ("elephant_fct_p50_us", "us"),
    ("elephant_fct_p90_us", "us"),
    ("flows_failed_share", "share"),
]
# Host times and peak RSS vary from run to run: medians over the runs. The
# rest are simulated outputs.
RUN_MEDIANS = {"setup_s", "run_s", "wall_s", "peak_rss_mb"}
PERCENTILE_COUNT = {
    "mice_fct_p50_us": "mice_n",
    "mice_fct_p99_us": "mice_n",
    "elephant_fct_p50_us": "elephant_n",
    "elephant_fct_p90_us": "elephant_n",
}

PER_LAYER = [
    ("routing.compute_s", "s"),
    ("routing.paths", "count"),
    ("core.deploy_routing_s", "s"),
    ("core.tft_entries", "count"),
    ("core.setup_rss_mb", "MB"),
    ("core.teardown_s", "s"),
    ("optics.deploy_topo_s", "s"),
    ("eventsim.events", "count"),
    ("eventsim.ns_per_event", "ns"),
    ("eventsim.peak_queue_depth", "count"),
    ("eventsim.compactions", "count"),
    ("eventsim.pending_at_end", "count"),
    ("eventsim.profiled_share", "share"),
    ("parallel.windows", "count"),
    ("parallel.cross_delivered", "count"),
    ("core.drops_congestion", "count"),
    ("core.slice_misses", "count"),
    ("core.packets_injected", "count"),
    ("transport.fluid_recomputes", "count"),
    ("transport.fluid_wake_ns", "ns"),
    ("transport.fluid_launched", "count"),
    ("transport.tcp_rto_events", "count"),
    ("traffic.start_s", "s"),
    ("traffic.flows_emitted", "count"),
    ("traffic.flows_fluid", "count"),
    ("traffic.flows_completed", "count"),
    ("traffic.wave_ns", "ns"),
    ("control.deploy_update_ms", "ms"),
    ("control.txn_commits", "count"),
    ("control.txn_aborts", "count"),
    ("control.commit_latency_p50_us", "us"),
    ("quorum.elections", "count"),
    ("services.scanner_audits", "count"),
    ("services.ladder_transitions", "count"),
    ("services.scanner_probes", "count"),
    ("chaos.polls", "count"),
    ("chaos.violations", "count"),
    ("telemetry.trace_overhead_pct", "%"),
]
# Host-time and RSS layer metrics: medians over the traced runs. The rest
# are counts, identical in every run of a seed.
LAYER_MEDIANS = {
    "routing.compute_s", "core.deploy_routing_s", "core.setup_rss_mb",
    "core.teardown_s", "optics.deploy_topo_s", "eventsim.ns_per_event",
    "transport.fluid_wake_ns", "traffic.start_s", "traffic.wave_ns",
    "control.deploy_update_ms",
}

# A run with --seed n measures the workload on input seeds
# SUBSEEDS*n .. SUBSEEDS*n + SUBSEEDS-1; the simulated metrics are their
# mean, which keeps seed-to-seed spread below the bounds.
SUBSEEDS = 4
MIN_RUNS = 6
DEADLINE_S = 150.0    # stop starting runs after this, whatever --seconds says

# Host times, end-to-end and per-layer, are reported at reference speed.
HOST_TIMES = {
    "setup_s", "run_s", "wall_s", "routing.compute_s", "core.deploy_routing_s",
    "core.teardown_s", "optics.deploy_topo_s", "eventsim.ns_per_event",
    "transport.fluid_wake_ns", "traffic.start_s", "traffic.wave_ns",
    "control.deploy_update_ms",
}
# On a shared host the CPU speed drifts in phases of tens of seconds, as
# long as one invocation, so medians over an invocation's runs move with
# the phase. run.py therefore times a fixed reference kernel (reference.cpp,
# which shares no code with the simulator) before the first run and after
# each, and scales every host time by REFERENCE_S over the median reference
# time of the invocation. The raw medians are printed beside the scaled ones.
REFERENCE_S = 0.25


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds perfbench_workload and the reference
    kernel; returns their paths."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(bdir, "perfbench_workload"),
            os.path.join(bdir, "perfbench_reference"))


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_revision():
    """Git revision when the checkout is a repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, rev = out.stdout.split()
        if os.path.samefile(top, ROOT):
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                h.update(file_sha256(path).encode())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def run_once(binary, workload, seed, ledger):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if ledger:
        os.makedirs(ledger, exist_ok=True)
        cmd += ["--ledger", ledger]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    errors = list(result["errors"]) if result else []
    if proc.returncode != 0 and not errors:
        errors.append("exit code %d: %s" % (proc.returncode,
                                             proc.stderr.strip()[-500:]))
    return result, errors


def check_digest(bdir, binary_hash, workload, seed, sim):
    """Simulated outputs must repeat across every run of one build, also
    across invocations: the first run of a (build, workload, seed) records
    them, later ones compare."""
    path = os.path.join(bdir, "sim_outputs.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, json.JSONDecodeError):
        known = {}
    key = "%s:%s:%d" % (binary_hash[:16], workload, seed)
    if key in known:
        return known[key] == sim
    known[key] = sim
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, sort_keys=True)
    os.replace(tmp, path)
    return True


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def time_reference(reference):
    out = subprocess.run([reference], capture_output=True, text=True, check=True)
    return float(out.stdout.split()[0])


def measure(binary, reference, args, ledger):
    """Runs the workload in fresh processes until --seconds have passed and
    every kind of run has its minimum, timing the reference kernel before
    the first run and after each. Returns (runs by kind, reference times,
    runs attempted, errors, seconds taken); each run is (its seed, its
    result)."""
    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    # Untraced end-to-end runs cycle through SUBSEEDS input seeds, so any
    # run past the SUBSEEDS-th repeats a seed and checks determinism; the
    # minimum of MIN_RUNS keeps the medians of the slowest workload
    # (rotor128_setup, ~5.5 s a run) over as many runs as the time budget
    # allows. Traced runs and their untraced partners share one seed, so
    # the overhead compares like with like.
    min_runs = 3 if args.trace else MIN_RUNS
    runs = {k: [] for k in kinds}
    errors = []
    attempted = 0
    start = time.monotonic()
    ref_times = [time_reference(reference)]
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(runs[k]) >= min_runs for k in kinds)
        if (enough and elapsed >= args.seconds) or elapsed >= DEADLINE_S:
            break
        kind = kinds[attempted % len(kinds)]
        seed = args.seed * SUBSEEDS
        if not args.trace:
            seed += attempted % SUBSEEDS
        attempted += 1
        result, errs = run_once(binary, args.workload, seed,
                                ledger if kind == "traced" else None)
        if errs or result is None:
            errors += ["%s run %d (seed %d): %s" % (kind, attempted, seed, e)
                       for e in (errs or ["no result"])]
            break
        runs[kind].append((seed, result))
        ref_times.append(time_reference(reference))
    if not errors and not all(len(runs[k]) >= min_runs for k in kinds):
        errors.append("deadline reached after %d runs" % attempted)
    return runs, ref_times, attempted, errors, time.monotonic() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary, reference = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    binary_hash = file_sha256(binary)

    ledger = os.path.join(bdir, "ledger", "%s-seed%d" % (args.workload, args.seed))
    runs, ref_times, attempted, errors, took = measure(binary, reference, args, ledger)

    # Simulated outputs repeat exactly for one (build, workload, seed).
    sim_of = {}
    for seed, r in (x for kind in runs.values() for x in kind):
        if sim_of.setdefault(seed, r["sim"]) != r["sim"]:
            errors.append("seed %d: simulated outputs differ between runs" % seed)
    for seed, sim in sorted(sim_of.items()):
        if not check_digest(bdir, binary_hash, args.workload, seed, sim):
            errors.append("seed %d: simulated outputs differ from an earlier "
                          "run of this build" % seed)
    for e in errors:
        log("CHECK FAILED: " + e)
    if errors:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": 1, "metrics": {}}))
        return 1

    base = [r for _, r in runs["untraced"]]
    sims = [sim_of[s] for s in sorted(sim_of)]
    print("perfbench %s seed=%d: %d untraced%s runs on seeds %s in %.1f s" % (
        args.workload, args.seed, len(base),
        " + %d traced" % len(runs["traced"]) if args.trace else "",
        ",".join(str(s) for s in sorted(sim_of)), took))
    print("host: nproc=%d cpu=%r compiler=%r build=%s revision=%s" % (
        nproc(), cpu_model(), base[0]["compiler"], base[0]["build_type"],
        source_revision()))

    scale = REFERENCE_S / statistics.median(ref_times)
    print("host speed: reference median %.4f s over %d timings (%.4f .. %.4f); "
          "host times scaled by %.4f" % (statistics.median(ref_times),
                                         len(ref_times), min(ref_times),
                                         max(ref_times), scale))

    def sim_mean(fn):
        return statistics.fmean(fn(s) for s in sims)

    metrics = {}
    if args.trace == 0:
        for name, unit in END_TO_END:
            if name in RUN_MEDIANS:
                vals = [r["phase"][name] for r in base]
                raw = statistics.median(vals)
                k = scale if name in HOST_TIMES else 1.0
                value = raw * k
                q1, q3 = quartiles(vals)
                extra = "median of %d runs, q1 %.6g, q3 %.6g" % (
                    len(vals), q1 * k, q3 * k)
                if name in HOST_TIMES:
                    extra += "; raw median %.6g" % raw
            elif name == "flows_failed_share":
                value = sim_mean(lambda s: s["flows_failed_at_drain"] / s["flows_emitted"])
                extra = "failed/emitted: " + ", ".join(
                    "%d/%d" % (s["flows_failed_at_drain"], s["flows_emitted"])
                    for s in sims)
            else:
                value = sim_mean(lambda s: s[name])
                extra = "n=" + ",".join(str(s[PERCENTILE_COUNT[name]]) for s in sims)
            print("  %-22s %14.6g %-6s (%s)" % (name, value, unit, extra))
            metrics[name] = {"value": value, "unit": unit}
    else:
        traced = [r for _, r in runs["traced"]]
        for name, unit in PER_LAYER:
            if name == "telemetry.trace_overhead_pct":
                value = 100.0 * (statistics.median(r["phase"]["wall_s"] for r in traced) /
                                 statistics.median(r["phase"]["wall_s"] for r in base) - 1.0)
            elif name in LAYER_MEDIANS:
                value = statistics.median(r["layer"][name] for r in traced)
                if name in HOST_TIMES:
                    value *= scale
            else:
                value = traced[0]["layer"][name]
            print("  %-32s %16.6g %s" % (name, value, unit))
            metrics[name] = {"value": value, "unit": unit}
        print("ledger: %s (spans.trace.json, profile.txt, metrics.csv)" % ledger)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
