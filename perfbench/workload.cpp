// One benchmark workload, run once in this process. The workload is built
// through the public calls a user script makes (api::Net, deploy_topo,
// routing::direct_to, deploy_routing, start_traffic, run_for, ~Net); each
// call is timed from outside as its own layer. After the run the outputs
// are checked and one JSON object is printed on stdout: host-time phases,
// peak RSS, the simulated outputs (which must repeat exactly for a given
// seed) and the per-layer counters.
//
//   perfbench_workload --workload packet64_kv --seed 7 [--ledger DIR]
//
// --ledger traces the run: an EventProfiler is attached from the run to
// the end of settling, and DIR receives spans.trace.json (the per-call spans as a Chrome
// trace), profile.txt (per-tag events and ns/event) and metrics.csv (the
// metrics registry). Untraced runs attach nothing.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/openoptics.h"
#include "common/json.h"
#include "common/rng.h"
#include "parallel/sharded.h"
#include "routing/to_routing.h"
#include "services/fault_plan.h"
#include "topo/round_robin.h"

using namespace oo;
using namespace oo::literals;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workloads. Every one is rotornet-direct with 2 hosts per ToR, 2 uplinks
// and shards=1 (the inline lane engine: one simulation thread).

struct Workload {
  const char* name;
  int tors;
  SimTime horizon;  // traffic arrival window (the timed run_for)
  SimTime drain;    // fixed window after arrivals stop, about a third of
                    // the rotation period; flows not done by then count
                    // as failed
  bool chaos;       // control-plane churn, faults, scanner, quorum
};

constexpr int kHostsPerTor = 2;
constexpr int kUplinks = 2;
constexpr int kShards = 1;
constexpr std::int64_t kMiB = std::int64_t{1} << 20;

const Workload kWorkloads[] = {
    {"rotor128_setup", 128, 2_ms, 4_ms, false},
    {"fluid64_hadoop", 64, 40_ms, 2_ms, false},
    {"packet64_kv", 64, 8_ms, 2_ms, false},
    {"control64_chaos", 64, 30_ms, 2_ms, true},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// KV-store sizes with 5% Hadoop heavy hitters, bursty sources — the
// engine_throughput mix.
traffic::TrafficSpec kv_mix(int hosts, double load, std::int64_t threshold) {
  traffic::TrafficSpec spec;
  spec.sources = static_cast<std::int64_t>(hosts) * 16;
  spec.load = load;
  spec.size.base = workload::trace_cdf(workload::TraceKind::KvStore);
  spec.size.hh_fraction = 0.05;
  spec.size.hh = workload::trace_cdf(workload::TraceKind::Hadoop);
  spec.burst.enabled = true;
  spec.hybrid_threshold = threshold;
  return spec;
}

traffic::TrafficSpec traffic_for(const Workload& w, std::uint64_t seed) {
  const int hosts = w.tors * kHostsPerTor;
  traffic::TrafficSpec spec;
  if (std::string(w.name) == "fluid64_hadoop") {
    spec.sources = static_cast<std::int64_t>(hosts) * 16;
    spec.load = 0.3;
    spec.size.base = workload::trace_cdf(workload::TraceKind::Hadoop);
    spec.burst.enabled = true;
    spec.hybrid_threshold = 100'000;
  } else if (w.chaos) {
    spec = kv_mix(hosts, 0.05, kMiB);
  } else {
    spec = kv_mix(hosts, 0.3, kMiB);
  }
  spec.seed = derive_seed(seed, 0, "perfbench.traffic");
  return spec;
}

// ---------------------------------------------------------------------------
// Spans around the public calls, kept in memory; written as one Chrome
// trace when the run is traced.

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  // Runs fn() and records its host time; returns the duration in seconds.
  double time(const char* name, const std::function<void()>& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans_.push_back({name, t0, t1});
    return seconds_between(t0, t1);
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path);
    json::Array events;
    for (const auto& s : spans_) {
      json::Object e;
      e["name"] = s.name;
      e["ph"] = "X";
      e["pid"] = 1;
      e["tid"] = 1;
      e["ts"] = std::chrono::duration<double, std::micro>(s.start - origin_)
                    .count();
      e["dur"] =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      events.push_back(std::move(e));
    }
    json::Object doc;
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    out << json::Value(std::move(doc)).dump(1) << "\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// control64_chaos: periodic small overlay updates through
// Controller::deploy_update, timed per call (host) and per commit (sim).

struct Churn {
  bool active = true;
  std::int64_t tick = 0;
  std::int64_t rejected = 0;
  std::int64_t committed = 0;
  std::int64_t aborted = 0;
  std::vector<double> call_ms;
  std::vector<double> commit_latency_us;
};

// Direct paths into `dst` from the next four ToRs — a few hundred entries,
// a small transactional write compared with the bulk routing install. The
// entries match on their source ToR, so they sit beside the wildcard-source
// base routes instead of replacing them. (The time-flow table keeps one
// entry per match key: an overlay on the base routes' own keys replaces
// them, and clearing that overlay later leaves those keys with no route.)
std::vector<core::Path> overlay_for(
    const std::vector<core::Path>& paths,
    const std::vector<std::vector<std::size_t>>& by_dst, NodeId dst,
    int tors) {
  std::vector<core::Path> out;
  for (const std::size_t i : by_dst[static_cast<std::size_t>(dst)]) {
    const NodeId src = paths[i].hops.front().node;
    const int ahead = (src - dst + tors) % tors;
    if (ahead >= 1 && ahead <= 4) {
      out.push_back(paths[i]);
      out.back().src = src;
    }
  }
  return out;
}

void arm_chaos(api::Net& net, const Workload& w, std::uint64_t seed,
               const std::vector<core::Path>& paths,
               std::vector<std::vector<std::size_t>>& by_dst, Churn& churn,
               std::unique_ptr<services::FaultPlan>& plan) {
  net.enable_health_scanner();

  // Lossy, delayed southbound channel from here on: the bulk install above
  // committed on the ideal channel; every overlay update now runs as an
  // asynchronous two-phase transaction that can abort.
  core::SouthboundConfig sb;
  sb.latency = 20_us;
  sb.loss_prob = 0.01;
  net.controller().southbound().configure(sb);

  plan = std::make_unique<services::FaultPlan>(
      net.network(), derive_seed(seed, 0, "perfbench.faults"),
      &net.controller());
  plan->gray_pair(3_ms, 5, 0, kInvalidNode, 0.9, 15_ms);
  plan->kill_leader(8_ms, 2_ms);
  plan->flap_port(12_ms, 9, 1, 300_us, 2_ms, 4, 0.1);
  plan->kill_leader(20_ms, 2_ms);
  plan->arm();

  by_dst.assign(static_cast<std::size_t>(w.tors), {});
  for (std::size_t i = 0; i < paths.size(); ++i) {
    by_dst[static_cast<std::size_t>(paths[i].dst)].push_back(i);
  }
  sim::Simulator& sim = net.sim();
  sim.schedule_every(500_us, 1_ms, [&net, &sim, &paths, &by_dst, &churn,
                                    tors = w.tors] {
    if (!churn.active) return;
    const NodeId dst = static_cast<NodeId>(churn.tick++ % tors);
    const auto overlay = overlay_for(paths, by_dst, dst, tors);
    const SimTime issued = sim.now();
    const auto t0 = Clock::now();
    const bool issued_ok = net.controller().deploy_update(
        net.schedule(), overlay, core::LookupMode::PerHop,
        core::MultipathMode::None, /*priority=*/1, /*clear_priority=*/1,
        SimTime::zero(), [&sim, &churn, issued](bool committed) {
          if (committed) {
            ++churn.committed;
            churn.commit_latency_us.push_back((sim.now() - issued).us());
          } else {
            ++churn.aborted;
          }
        });
    churn.call_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    if (!issued_ok) ++churn.rejected;
  });
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload NAME --seed N "
               "[--ledger DIR]\n"
               "workloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string ledger;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--ledger") {
      ledger = argv[i + 1];
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const Workload* wp = find_workload(name);
  if (wp == nullptr) return usage(("unknown workload '" + name + "'").c_str());
  if (!have_seed) return usage("--seed is required");
  const Workload& w = *wp;
  const bool traced = !ledger.empty();

  std::vector<std::string> errors;
  auto expect = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };

  api::Config cfg;
  cfg.node_num = w.tors;
  cfg.hosts_per_node = kHostsPerTor;
  cfg.uplink = kUplinks;
  cfg.seed = derive_seed(seed, 0, "perfbench.net");
  cfg.shards = kShards;
  if (w.chaos) {
    cfg.controller_replicas = 3;
    cfg.election_timeout_us = 200.0;
    cfg.heartbeat_us = 50.0;
  }

  // Declared before the Net so they outlive every simulator callback.
  Churn churn;
  std::vector<std::vector<std::size_t>> by_dst;
  std::int64_t invariant_polls = 0;
  telemetry::EventProfiler profiler;
  std::vector<core::Path> paths;
  std::unique_ptr<services::FaultPlan> plan;
  std::unique_ptr<api::Net> net;

  const auto origin = Clock::now();
  Spans spans(origin);
  json::Object phase;
  json::Object layer;

  // ---- setup: the Net constructor through start_traffic ----
  phase["ctor_s"] = spans.time("api::Net", [&] {
    net = std::make_unique<api::Net>(cfg);
  });
  bool topo_ok = false;
  phase["deploy_topo_s"] = spans.time("deploy_topo", [&] {
    topo_ok = net->deploy_topo(topo::round_robin_1d(w.tors, kUplinks),
                               topo::round_robin_period(w.tors));
  });
  if (!topo_ok) {
    std::fprintf(stderr, "CHECK FAILED: deploy_topo rejected the schedule\n");
    return 1;
  }
  phase["direct_to_s"] = spans.time("routing::direct_to", [&] {
    paths = routing::direct_to(net->schedule());
  });
  bool routing_ok = false;
  phase["deploy_routing_s"] = spans.time("deploy_routing", [&] {
    routing_ok = net->deploy_routing(paths, core::LookupMode::PerHop,
                                     core::MultipathMode::None);
  });
  expect(routing_ok, "deploy_routing failed: " + net->last_error());
  phase["attach_s"] = spans.time("attach_services", [&] {
    auto& monitor = net->enable_invariants();
    monitor.add_check("perfbench.poll_count", [&invariant_polls] {
      ++invariant_polls;
      return std::string();
    });
    if (w.chaos) arm_chaos(*net, w, seed, paths, by_dst, churn, plan);
  });
  phase["start_traffic_s"] = spans.time("start_traffic", [&] {
    net->start_traffic(traffic_for(w, seed));
  });
  const auto setup_end = Clock::now();
  const double setup_s = seconds_between(origin, setup_end);
  const double setup_rss = peak_rss_mb();

  core::Network& network = net->network();
  sim::Simulator& sim = net->sim();
  traffic::TrafficEngine& traffic = *net->traffic();
  std::int64_t tft_entries = 0;
  for (NodeId n = 0; n < network.num_tors(); ++n) {
    tft_entries += static_cast<std::int64_t>(network.tor(n).tft().size());
  }

  // ---- run: the arrival window ----
  if (traced) sim.set_profiler(&profiler);
  const std::int64_t events_before_run = sim.events_executed();
  const double run_s =
      spans.time("run_for", [&] { net->run_for(w.horizon); });
  const std::int64_t run_events = sim.events_executed() - events_before_run;

  // ---- drain: arrivals stop; the fixed window decides failed flows ----
  const double drain_s = spans.time("drain", [&] {
    traffic.stop();
    churn.active = false;
    net->run_for(w.drain);
  });
  const std::int64_t emitted_at_drain = traffic.flows_emitted();
  const std::int64_t failed_at_drain =
      emitted_at_drain - traffic.flows_completed();
  json::Object fct;  // FCT aggregates as they stand at the drain deadline
  const auto& mice = traffic.mice_fct_us();
  const auto& elephants = traffic.elephant_fct_us();
  const std::int64_t mice_n = mice.count();
  const std::int64_t elephant_n = elephants.count();
  fct["mice_n"] = mice_n;
  fct["mice_mean_us"] = mice.mean();
  fct["mice_fct_p50_us"] = mice.percentile(50);
  fct["mice_fct_p99_us"] = mice.percentile(99);
  fct["elephant_n"] = elephant_n;
  fct["elephant_mean_us"] = elephants.mean();
  fct["elephant_fct_p50_us"] = elephants.percentile(50);
  fct["elephant_fct_p90_us"] = elephants.percentile(90);

  // ---- settle: the fabric runs on until every packet-level flow is done,
  // so the conservation ledger can be checked at quiescence. Not part of
  // wall_s: it exists only for the output checks ----
  spans.time("settle", [&] {
    const auto packet_done = [&] {
      return traffic.flows_completed() - traffic.fluid().completed() ==
             traffic.flows_packet();
    };
    for (int i = 0; i < 400 && !packet_done(); ++i) net->run_for(1_ms);
    expect(packet_done(), "packet-level flows still running 400 ms after "
                          "the drain window");
    if (auto* scanner = net->health_scanner()) scanner->stop();
    net->run_for(1_ms);  // let the last acks and probes land
    // A fluid flow leaves the solver's active set some microseconds before
    // its completion is recorded (the delivery + ack tail); step past any
    // such tail so the flow ledger below is read at a settled instant.
    for (int i = 0; i < 100 && traffic.flows_emitted() !=
                                   traffic.flows_completed() +
                                       traffic.fluid().active();
         ++i) {
      net->run_for(10_us);
    }
  });
  const std::int64_t profiled_events = sim.events_executed() - events_before_run;
  sim.set_profiler(nullptr);

  // ---- output checks ----
  const std::string violations = net->check_invariants();
  expect(violations.empty(), "invariant violations: " + violations);
  const std::string fluid_leak = traffic.fluid().conservation_check();
  expect(fluid_leak.empty(), "fluid conservation: " + fluid_leak);
  const auto& fluid = traffic.fluid();
  const std::int64_t emitted = traffic.flows_emitted();
  const std::int64_t completed = traffic.flows_completed();
  expect(emitted == completed + fluid.active(),
         "flow accounting: emitted " + std::to_string(emitted) +
             " != completed " + std::to_string(completed) +
             " + active fluid " + std::to_string(fluid.active()));
  expect(fluid.launched() == traffic.flows_fluid() &&
             fluid.launched() == fluid.completed() + fluid.active(),
         "fluid accounting: launched " + std::to_string(fluid.launched()) +
             ", emitted fluid " + std::to_string(traffic.flows_fluid()) +
             ", completed " + std::to_string(fluid.completed()) +
             ", active " + std::to_string(fluid.active()));
  // The failed share is read at the drain window: no flow may be emitted
  // after it, and the registry's emission counters (bumped at emission,
  // apart from the per-lane counts above) must agree.
  const telemetry::MetricsRegistry& registry = sim.metrics();
  const std::int64_t emitted_counted =
      registry.counter_value("traffic.flows", {{"fidelity", "packet"}}) +
      registry.counter_value("traffic.flows", {{"fidelity", "fluid"}});
  expect(emitted == emitted_at_drain,
         "flows emitted after the drain window: " +
             std::to_string(emitted_at_drain) + " then " +
             std::to_string(emitted));
  expect(emitted_counted == emitted,
         "traffic.flows counters " + std::to_string(emitted_counted) +
             " != emitted " + std::to_string(emitted));

  // Each reported percentile needs ten samples beyond it.
  expect(mice_n >= 1000, "fewer than 1000 mice: p99 has < 10 beyond");
  expect(elephant_n >= 100, "fewer than 100 elephants: p90 has < 10 beyond");

  // ---- per-layer counters ----
  const parallel::ShardedEngine* engine = network.sharded_engine();
  const core::ControllerQuorum* quorum = net->quorum();
  const services::HealthScanner* scanner = net->health_scanner();
  std::int64_t drops_congestion = 0, slice_misses = 0;
  for (NodeId n = 0; n < network.num_tors(); ++n) {
    drops_congestion += network.tor(n).drops_congestion();
    slice_misses += network.tor(n).slice_misses();
  }
  auto bucket_ns = [&profiler](const char* tag) {
    for (const auto& b : profiler.buckets()) {
      if (b.tag == tag && b.events > 0) {
        return static_cast<double>(b.wall_ns) / static_cast<double>(b.events);
      }
    }
    return 0.0;
  };

  layer["routing.compute_s"] = phase["direct_to_s"];
  layer["routing.paths"] = static_cast<std::int64_t>(paths.size());
  layer["core.deploy_routing_s"] = phase["deploy_routing_s"];
  layer["core.tft_entries"] = tft_entries;
  layer["core.setup_rss_mb"] = setup_rss;
  layer["optics.deploy_topo_s"] = phase["deploy_topo_s"];
  layer["eventsim.events"] = sim.events_executed();
  layer["eventsim.ns_per_event"] =
      run_events > 0 ? run_s * 1e9 / static_cast<double>(run_events) : 0.0;
  layer["eventsim.peak_queue_depth"] =
      static_cast<std::int64_t>(profiler.peak_queue_depth());
  layer["eventsim.compactions"] = sim.compactions();
  layer["eventsim.pending_at_end"] =
      static_cast<std::int64_t>(sim.events_pending());
  layer["eventsim.profiled_share"] =
      profiled_events > 0 ? static_cast<double>(profiler.total_events()) /
                                static_cast<double>(profiled_events)
                          : 0.0;
  layer["parallel.windows"] = engine ? engine->stats().windows : 0;
  layer["parallel.cross_delivered"] =
      engine ? engine->stats().cross_delivered : 0;
  layer["core.drops_congestion"] = drops_congestion;
  layer["core.slice_misses"] = slice_misses;
  layer["core.packets_injected"] = network.packets_injected();
  layer["transport.fluid_recomputes"] = fluid.recomputes();
  layer["transport.fluid_wake_ns"] = bucket_ns("fluid.wake");
  layer["transport.fluid_launched"] = fluid.launched();
  layer["transport.tcp_rto_events"] = registry.counter_value("tcp.rto_events");
  layer["traffic.start_s"] = phase["start_traffic_s"];
  layer["traffic.flows_emitted"] = emitted;
  layer["traffic.flows_fluid"] = traffic.flows_fluid();
  layer["traffic.flows_completed"] = completed;
  layer["traffic.wave_ns"] = bucket_ns("traffic.wave");
  layer["control.deploy_update_ms"] = median_of(churn.call_ms);
  layer["control.txn_commits"] = net->controller().txn_commits();
  layer["control.txn_aborts"] = net->controller().txn_aborts();
  layer["control.commit_latency_p50_us"] = median_of(churn.commit_latency_us);
  layer["quorum.elections"] = quorum ? quorum->elections() : 0;
  layer["services.scanner_audits"] = scanner ? scanner->audits() : 0;
  layer["services.ladder_transitions"] =
      scanner ? scanner->suspects() + scanner->degrades() +
                    scanner->quarantines() + scanner->readmissions()
              : 0;
  // Answered probes (one RTT sample each, labelled by ToR) + lost ones.
  std::int64_t probes = registry.counter_value("probe.lost");
  for (NodeId n = 0; n < network.num_tors(); ++n) {
    if (const auto* rtt = registry.find_histogram(
            "probe.rtt_us", {{"node", std::to_string(n)}})) {
      probes += static_cast<std::int64_t>(rtt->count());
    }
  }
  layer["services.scanner_probes"] = probes;
  layer["chaos.polls"] = invariant_polls;
  layer["chaos.violations"] = net->invariants()->total_violations();

  // Simulated outputs: a pure function of (build, workload, seed).
  json::Object simout = std::move(fct);
  simout["events"] = sim.events_executed();
  simout["stream_fingerprint"] = hex64(traffic.stream_fingerprint());
  simout["flows_emitted"] = emitted;
  simout["flows_fluid"] = traffic.flows_fluid();
  simout["flows_failed_at_drain"] = failed_at_drain;
  simout["flows_completed"] = completed;
  simout["txn_commits"] = net->controller().txn_commits();
  simout["txn_aborts"] = net->controller().txn_aborts();
  simout["churn_committed"] = churn.committed;
  simout["churn_aborted"] = churn.aborted;
  simout["churn_rejected"] = churn.rejected;
  simout["elections"] = quorum ? quorum->elections() : 0;
  simout["packets_injected"] = network.packets_injected();
  simout["sim_now_ns"] = sim.now().ns();
  // The mice/elephant FCT classes split at this size (the traffic engine's
  // fixed class boundary), which is the hybrid threshold only when the
  // threshold is 100 KB.
  simout["fct_class_split_bytes"] = std::int64_t{100'000};
  simout["hybrid_threshold"] = traffic.spec().hybrid_threshold;

  if (traced) {
    {
      std::ofstream prof(ledger + "/profile.txt");
      prof << profiler.report();
    }
    net->write_metrics_csv(ledger + "/metrics.csv");
  }

  // ---- teardown: the Net destructor (and what the script still holds) ----
  const double teardown_s = spans.time("~Net", [&] {
    plan.reset();
    net.reset();
    std::vector<core::Path>().swap(paths);
  });
  layer["core.teardown_s"] = teardown_s;
  phase["setup_s"] = setup_s;
  phase["run_s"] = run_s;
  phase["drain_s"] = drain_s;
  phase["teardown_s"] = teardown_s;
  phase["wall_s"] = setup_s + run_s + drain_s + teardown_s;
  phase["peak_rss_mb"] = peak_rss_mb();
  if (traced) spans.write_chrome_trace(ledger + "/spans.trace.json");

  json::Object doc;
  doc["workload"] = w.name;
  doc["seed"] = static_cast<std::int64_t>(seed);
  doc["traced"] = traced;
  doc["build_type"] = OO_PERFBENCH_BUILD_TYPE;
  doc["compiler"] = OO_PERFBENCH_COMPILER;
  doc["phase"] = std::move(phase);
  doc["sim"] = std::move(simout);
  doc["layer"] = std::move(layer);
  json::Array errs;
  for (const auto& e : errors) errs.push_back(e);
  doc["errors"] = std::move(errs);
  std::printf("%s\n", json::Value(std::move(doc)).dump().c_str());
  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  return errors.empty() ? 0 : 1;
}
