// Invariant-monitor overhead smoke: runs the identical seeded traffic-
// engine workload (the one BENCH_engine.json tracks)
// with no monitor, with a monitor constructed but never started (every hot
// path hook is a null-check or an untaken branch — the "detached" cost
// contract), and with the monitor polling every 100 us of virtual time.
// Acceptance: detached is free (identical event count, wall within noise)
// and attached polling stays within a few percent; both configurations
// must land the exact same delivery/drop counters, since invariant checks
// are read-only by contract.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"

#include "arch/arch.h"
#include "bench/bench_util.h"
#include "chaos/invariants.h"
#include "runner/runner.h"
#include "traffic/engine.h"
#include "workload/traces.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct RunResult {
  double wall_ms = 0;
  std::int64_t events = 0;
  std::int64_t delivered = 0;
  std::int64_t fabric_drops = 0;
  std::int64_t violations = 0;
};

enum class Mode { None, Detached, Attached };

RunResult run(Mode mode) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 2;
  p.uplinks = 2;
  p.seed = 7;
  auto inst = runner::make_arch("rotornet-direct", p);

  std::unique_ptr<chaos::InvariantMonitor> mon;
  if (mode != Mode::None) {
    mon = std::make_unique<chaos::InvariantMonitor>(*inst.net);
    mon->attach_controller(inst.ctl.get());
    if (mode == Mode::Attached) mon->start(100_us);
  }

  // The engine-throughput workload (BENCH_engine.json): a streaming
  // traffic engine driving every host, so poll cost is measured against a
  // realistic packet rate rather than an idle fabric.
  traffic::TrafficSpec spec;
  spec.sources = static_cast<std::int64_t>(inst.net->num_hosts()) * 64;
  spec.load = 0.3;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.size.hh_fraction = 0.05;
  spec.size.hh = workload::trace_cdf(workload::TraceKind::Hadoop);
  spec.burst.enabled = true;
  spec.seed = 11;
  traffic::TrafficEngine eng(*inst.net, std::move(spec));
  eng.start();

  const auto t0 = std::chrono::steady_clock::now();
  inst.run_for(40_ms);
  const auto t1 = std::chrono::steady_clock::now();
  eng.stop();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.events = inst.net->sim().events_executed();
  r.delivered = inst.net->optical().delivered();
  r.fabric_drops = inst.net->optical().total_drops();
  if (mon) {
    // check_now, not check_at_drain: a streaming engine never quiesces
    // (transport flows and resync beacons outlive the measured window), so
    // the exact conservation ledger doesn't apply here — it's covered by
    // tests/test_chaos.cpp and the chaos_fuzz experiment, which do drain.
    mon->check_now();
    r.violations = mon->total_violations();
    if (!mon->ok()) std::printf("%s", mon->report().c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_engine.json";
  bench::banner("invariant-monitor overhead: detached / attached polling",
                "detached hooks are a null-check; polled checks a few %");

  run(Mode::None);  // warm up allocators and caches

  // Paired interleaved reps: rep i runs none/detached/attached back to
  // back and the overhead estimate is the MEDIAN of the per-rep wall
  // ratios. Pairing inside a rep cancels slow drift (CPU frequency
  // scaling, container throttling) because the compared runs are adjacent
  // in time; the median throws away steal-time outliers. The old
  // methodology — sequential per-mode blocks, best-of-3 each — let drift
  // bias whole blocks and charged a phantom +1.2 % to the detached mode,
  // whose hooks never even execute; on shared runners the block-to-block
  // noise floor is several percent, bigger than the budget under test.
  constexpr int kReps = 7;
  RunResult base, detached, attached;
  double base_ms = 1e300, detached_ms = 1e300, attached_ms = 1e300;
  std::vector<double> ratio_d, ratio_a;
  for (int i = 0; i < kReps; ++i) {
    const auto b = run(Mode::None);
    const auto d = run(Mode::Detached);
    const auto a = run(Mode::Attached);
    if (i == 0) {
      base = b;
      detached = d;
      attached = a;
    }
    base_ms = std::min(base_ms, b.wall_ms);
    detached_ms = std::min(detached_ms, d.wall_ms);
    attached_ms = std::min(attached_ms, a.wall_ms);
    ratio_d.push_back(d.wall_ms / b.wall_ms);
    ratio_a.push_back(a.wall_ms / b.wall_ms);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double detached_pct = (median(ratio_d) - 1.0) * 100.0;
  const double attached_pct = (median(ratio_a) - 1.0) * 100.0;

  std::printf("  %-10s wall=%8.1f ms  events=%lld  (%.2f M events/s)\n",
              "none", base_ms, static_cast<long long>(base.events),
              static_cast<double>(base.events) / base_ms / 1e3);
  std::printf("  %-10s wall=%8.1f ms  events=%lld  (%+.1f%%)\n",
              "detached", detached_ms,
              static_cast<long long>(detached.events), detached_pct);
  std::printf("  %-10s wall=%8.1f ms  events=%lld  (%+.1f%%)\n",
              "attached", attached_ms,
              static_cast<long long>(attached.events), attached_pct);

  // Read-only contract: the monitor must never perturb simulation results.
  if (attached.delivered != base.delivered ||
      attached.fabric_drops != base.fabric_drops ||
      detached.delivered != base.delivered ||
      detached.events != base.events) {
    std::printf("FAIL: monitor perturbed the run "
                "(delivered %lld/%lld/%lld, events %lld/%lld)\n",
                static_cast<long long>(base.delivered),
                static_cast<long long>(detached.delivered),
                static_cast<long long>(attached.delivered),
                static_cast<long long>(base.events),
                static_cast<long long>(detached.events));
    return 2;
  }
  if (attached.violations != 0 || detached.violations != 0) {
    std::printf("FAIL: healthy workload tripped %lld violations\n",
                static_cast<long long>(attached.violations +
                                       detached.violations));
    return 2;
  }
  // Loose smoke bounds to survive noisy shared runners; the real budgets
  // (tracked in BENCH_engine.json) are 0% detached and <2% attached.
  if (detached_pct > 10.0 || attached_pct > 50.0) {
    std::printf("FAIL: overhead detached %.1f%% / attached %.1f%% "
                "exceeds smoke bound\n",
                detached_pct, attached_pct);
    return 2;
  }
  std::printf(
      "  detached %+.1f%%  attached %+.1f%% "
      "(median paired ratio over %d interleaved reps)\n",
      detached_pct, attached_pct, kReps);

  // Fold the measured rows into BENCH_engine.json next to the engine
  // throughput baseline (same workload, same file, diffable across PRs).
  json::Object sec;
  sec["base_wall_ms"] = base_ms;
  sec["detached_wall_ms"] = detached_ms;
  sec["attached_wall_ms"] = attached_ms;
  sec["detached_overhead_pct"] = detached_pct;
  sec["attached_overhead_pct"] = attached_pct;
  sec["attached_extra_events"] = attached.events - base.events;
  sec["sim_events"] = base.events;
  sec["poll_interval_us"] = 100.0;
  sec["reps"] = static_cast<std::int64_t>(kReps);
  sec["method"] =
      "median of per-rep paired wall ratios; modes alternate within each "
      "rep so drift cancels";
  json::Object section;
  section["invariant_overhead"] = std::move(sec);
  if (bench::fold_into_json(out, std::move(section))) {
    std::printf("  wrote %s\n", out.c_str());
  }
  std::printf("invariant overhead smoke passed\n");
  return 0;
}
