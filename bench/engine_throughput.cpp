// Traffic-engine throughput bench: how fast the lane engine pushes simulated
// time as the fabric grows and worker threads are added (events/sec per
// ToR count x worker count). Single-worker throughput of the same traffic
// mix is measured end to end by perfbench's packet64_kv workload. Folds the
// measured rows into BENCH_engine.json next to the other benches' sections.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common/json.h"
#include "traffic/engine.h"

using namespace oo;
using namespace oo::literals;

namespace {

struct Row {
  int tors = 0;
  int shards = 1;
  std::int64_t threshold = 0;
  double wall_ms = 0;
  std::int64_t sim_events = 0;
  std::int64_t flows = 0;
  std::int64_t flows_fluid = 0;
  double events_per_sec = 0;
  double flows_per_sec = 0;
};

traffic::TrafficSpec base_spec(std::int64_t sources) {
  traffic::TrafficSpec spec;
  spec.sources = sources;
  spec.load = 0.3;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.size.hh_fraction = 0.05;
  spec.size.hh = workload::trace_cdf(workload::TraceKind::Hadoop);
  spec.burst.enabled = true;
  spec.seed = 11;
  return spec;
}

Row run_point(int tors, std::int64_t threshold, SimTime horizon, int shards,
              std::int64_t sources_per_host) {
  arch::Params p;
  p.tors = tors;
  p.hosts_per_tor = 2;
  p.uplinks = 2;
  p.seed = 7;
  p.shards = shards;
  auto inst = runner::make_arch("rotornet-direct", p);

  traffic::TrafficSpec spec = base_spec(
      static_cast<std::int64_t>(inst.net->num_hosts()) * sources_per_host);
  spec.hybrid_threshold = threshold;
  traffic::TrafficEngine eng(*inst.net, std::move(spec));
  eng.start();

  const auto t0 = std::chrono::steady_clock::now();
  inst.run_for(horizon);
  const auto t1 = std::chrono::steady_clock::now();
  eng.stop();

  Row r;
  r.tors = tors;
  r.shards = shards;
  r.threshold = threshold;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.sim_events = inst.net->sim().events_executed();
  r.flows = eng.flows_emitted();
  r.flows_fluid = eng.flows_fluid();
  const double wall_sec = r.wall_ms / 1e3;
  if (wall_sec > 0) {
    r.events_per_sec = static_cast<double>(r.sim_events) / wall_sec;
    r.flows_per_sec = static_cast<double>(r.flows) / wall_sec;
  }
  return r;
}

void print_row(const char* label, const Row& r) {
  std::printf(
      "  %-18s wall=%8.1f ms  events=%10lld (%8.2f M/s)  flows=%8lld "
      "(fluid %lld)\n",
      label, r.wall_ms, static_cast<long long>(r.sim_events),
      r.events_per_sec / 1e6, static_cast<long long>(r.flows),
      static_cast<long long>(r.flows_fluid));
}

json::Object row_json(const Row& r) {
  json::Object o;
  o["tors"] = r.tors;
  o["shards"] = r.shards;
  o["hybrid_threshold"] = r.threshold;
  o["wall_ms"] = r.wall_ms;
  o["sim_events"] = r.sim_events;
  o["flows"] = r.flows;
  o["flows_fluid"] = r.flows_fluid;
  o["events_per_sec"] = r.events_per_sec;
  o["flows_per_sec"] = r.flows_per_sec;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_engine.json";
  bench::banner("engine_throughput: streaming traffic engine",
                "events/sec grows with worker threads once the fabric "
                "has enough lanes per core");

  // Sharded engine sweep: ToR count x worker count. shards=1 is the
  // windowed lane engine run inline (the parallelism baseline — it pays
  // window bookkeeping but no threads); shards>1 adds worker threads.
  // Horizons shrink with fabric size to keep the sweep affordable; the
  // per-row events/sec is the comparable figure.
  std::printf("\nShard sweep (hybrid threshold 1 MB):\n");
  json::Array shard_rows;
  for (const int tors : {8, 64, 256}) {
    const SimTime horizon = tors >= 256 ? 3_ms : tors >= 64 ? 10_ms : 30_ms;
    double base_eps = 0;
    for (const int shards : {1, 2, 4, 8}) {
      const Row r = run_point(tors, 1 << 20, horizon, shards,
                              /*sources_per_host=*/16);
      char label[48];
      std::snprintf(label, sizeof label, "tors=%d shards=%d", tors, shards);
      print_row(label, r);
      if (shards == 1) {
        base_eps = r.events_per_sec;
      } else if (base_eps > 0) {
        std::printf("  %-18s speedup vs shards=1: %.2fx\n", "",
                    r.events_per_sec / base_eps);
      }
      shard_rows.push_back(row_json(r));
    }
  }

  json::Object doc;
  doc["bench"] = "engine_throughput";
  doc["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  // Shard speedups only materialize with real cores: on a 1-vCPU
  // container the workers time-slice one core and the sweep measures
  // barrier overhead, not parallelism. The recorded rows are honest for
  // the host they ran on; compare like with like.
  doc["host_note"] =
      "shard_sweep speedup requires >= `shards` physical cores; on a "
      "single-vCPU host shards>1 rows measure synchronization overhead "
      "only";
  doc["shard_sweep"] = std::move(shard_rows);
  if (!bench::fold_into_json(out, std::move(doc))) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
