// Sharded parallel engine (src/parallel/): byte-identity across shard
// counts, cross-shard conservation under the invariant monitor, and
// deterministic replay of control-plane fault scenarios on worker lanes.
//
// The identity tests pin the engine's core contract: shards=1 runs the
// windowed lane engine inline (zero threads) and shards∈{2,4,8} must
// reproduce its experiment rows byte for byte — worker count only chooses
// a thread layout, never a result.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/openoptics.h"
#include "arch/arch.h"
#include "parallel/sharded.h"
#include "routing/to_routing.h"
#include "runner/experiments.h"
#include "runner/runner.h"
#include "topo/round_robin.h"

namespace oo {
namespace {

using namespace oo::literals;

// One experiment run -> its result row, as the canonical JSON dump. The
// row is a pure function of (seed, params) for every built-in experiment,
// so equal dumps mean equal simulations.
json::Object run_row(const std::string& experiment, runner::RunSpec spec,
                     int shards) {
  spec.params["shards"] = static_cast<std::int64_t>(shards);
  runner::RunContext ctx{spec, 1};
  return runner::find_experiment(experiment)(ctx);
}

std::string dump_row(const json::Object& row) {
  return json::Value(row).dump();
}

runner::RunSpec small_fct_spec() {
  runner::RunSpec spec;
  spec.seed = 7;
  spec.params["arch"] = std::string("rotornet-direct");
  spec.params["tors"] = static_cast<std::int64_t>(8);
  spec.params["duration_ms"] = static_cast<std::int64_t>(20);
  spec.params["kv_interval_ms"] = 0.5;
  return spec;
}

TEST(ShardedEngine, FctByteIdenticalAtAnyShardCount) {
  const json::Object base = run_row("fct", small_fct_spec(), 1);
  EXPECT_GT(base.at("delivered").as_int(), 0);
  const std::string want = dump_row(base);
  for (int shards : {2, 4, 8}) {
    EXPECT_EQ(dump_row(run_row("fct", small_fct_spec(), shards)), want)
        << "shards=" << shards;
  }
}

runner::RunSpec small_load_sweep_spec() {
  runner::RunSpec spec;
  spec.seed = 11;
  spec.params["arch"] = std::string("rotornet-direct");
  spec.params["tors"] = static_cast<std::int64_t>(8);
  spec.params["sources"] = static_cast<std::int64_t>(64);
  spec.params["load"] = 0.2;
  spec.params["duration_ms"] = static_cast<std::int64_t>(10);
  spec.params["drain_ms"] = static_cast<std::int64_t>(10);
  return spec;
}

TEST(ShardedEngine, LoadSweepByteIdenticalAtAnyShardCount) {
  const json::Object base = run_row("load_sweep", small_load_sweep_spec(), 1);
  EXPECT_GT(base.at("flows_emitted").as_int(), 0);
  EXPECT_NE(base.at("fingerprint").as_string(), "0000000000000000");
  const std::string want = dump_row(base);
  for (int shards : {2, 4, 8}) {
    EXPECT_EQ(dump_row(run_row("load_sweep", small_load_sweep_spec(), shards)),
              want)
        << "shards=" << shards;
  }
}

// A recorder and a profiler attached after construction see every executed
// event at one worker: the ToR lanes run on the coordinating thread, so
// their events are timed and traced like the control lane's.
TEST(ShardedEngine, RecorderAndProfilerSeeEveryEventAtOneWorker) {
  auto net = api::Net::from_json(
      R"({"node_num": 8, "uplink": 1, "slice_us": 5, "shards": 1})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(8, 1),
                              topo::round_robin_period(8)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  net.start_traffic_json(R"({
    "sources": 64, "load": 0.3, "seed": 5, "size": {"cdf": "kv"}
  })");
  auto& sim = net.network().sim();
  telemetry::FlightRecorder rec(1 << 20);
  telemetry::EventProfiler prof;
  sim.set_recorder(&rec);
  sim.set_profiler(&prof);
  const std::int64_t before = sim.events_executed();
  net.run_for(2_ms);
  sim.set_profiler(nullptr);
  sim.set_recorder(nullptr);

  EXPECT_GT(prof.total_events(), 0);
  EXPECT_EQ(prof.total_events(), sim.events_executed() - before);
  bool lane_tags = false;
  for (const auto& b : prof.buckets()) lane_tags |= b.tag == "traffic.wave";
  EXPECT_TRUE(lane_tags);
  ASSERT_NE(net.network().sharded_engine(), nullptr);
  EXPECT_TRUE(net.network().sharded_engine()->worker_recorders().empty());
  // Slice rotations run on each ToR's own lane.
  std::vector<int> rotations(8, 0);
  rec.for_each([&rotations](const telemetry::TraceEvent& ev) {
    if (ev.kind == telemetry::EventKind::SliceRotation) {
      ++rotations[static_cast<std::size_t>(ev.node)];
    }
  });
  for (int n = 0; n < 8; ++n) EXPECT_GT(rotations[n], 0) << "node " << n;
}

// At two workers, worker 0 (the coordinating thread) records its lanes into
// the attached recorder and worker 1 into its private ring; the stitched
// trace labels every node with its owning shard.
TEST(ShardedEngine, StitchedTraceCoversEveryWorker) {
  auto net = api::Net::from_json(
      R"({"node_num": 4, "uplink": 1, "slice_us": 5, "shards": 2})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 1),
                              topo::round_robin_period(4)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  net.enable_tracing(1 << 16);
  net.run_for(200_us);
  const auto& rings = net.network().sharded_engine()->worker_recorders();
  ASSERT_EQ(rings.size(), 2u);
  EXPECT_EQ(rings[0], nullptr);
  ASSERT_NE(rings[1], nullptr);
  EXPECT_GT(rings[1]->size(), 0u);
  const std::string path = ::testing::TempDir() + "oo_stitched_trace.json";
  net.write_chrome_trace(path);
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (const char* name : {"node_0 (shard 0)", "node_1 (shard 1)",
                           "node_2 (shard 0)", "node_3 (shard 1)"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  std::remove(path.c_str());
}

// The worker count must be at least 1 wherever it enters: the JSON config,
// the Net setter, arch::Params and the campaign param.
TEST(ShardedEngine, RejectsFewerThanOneWorker) {
  EXPECT_THROW(api::Config::from_json(R"({"shards": 0})"),
               std::invalid_argument);
  EXPECT_THROW(api::Config::from_json(R"({"shards": -2})"),
               std::invalid_argument);
  EXPECT_EQ(api::Config::from_json("{}").shards, 1);

  auto net = api::Net::from_json(R"({"node_num": 4})");
  EXPECT_THROW(net.set_shards(0), std::invalid_argument);
  EXPECT_NO_THROW(net.set_shards(2));
  EXPECT_EQ(net.shards(), 2);

  arch::Params p;
  p.tors = 4;
  p.shards = 0;
  EXPECT_THROW(runner::make_arch("rotornet-direct", p), std::invalid_argument);

  EXPECT_THROW(run_row("fct", small_fct_spec(), 0), std::invalid_argument);
}

// A fabric whose minimum cross-ToR latency is zero leaves the lane engine
// no lookahead window; the constructor refuses it instead of dividing by
// zero in the window loop.
TEST(ShardedEngine, ZeroLookaheadNetworkThrows) {
  core::NetworkConfig cfg;
  cfg.num_tors = 4;
  optics::Schedule sched(4, 1, topo::round_robin_period(4), 100_us);
  for (const auto& c : topo::round_robin_1d(4, 1)) sched.add_circuit(c);
  optics::OcsProfile zero = optics::ocs_emulated();
  zero.latency_min = SimTime::zero();
  EXPECT_THROW(core::Network(cfg, sched, zero), std::invalid_argument);

  // The electrical transit and the push-back delay bound the window too.
  core::NetworkConfig elec = cfg;
  elec.electrical_bw = 10e9;
  elec.electrical_transit = SimTime::zero();
  EXPECT_THROW(core::Network(elec, sched, optics::ocs_emulated()),
               std::invalid_argument);
  core::NetworkConfig pushback = cfg;
  pushback.pushback = true;
  pushback.pushback_delay = SimTime::zero();
  EXPECT_THROW(core::Network(pushback, sched, optics::ocs_emulated()),
               std::invalid_argument);

  core::NetworkConfig no_workers = cfg;
  no_workers.shards = 0;
  EXPECT_THROW(core::Network(no_workers, sched, optics::ocs_emulated()),
               std::invalid_argument);
  EXPECT_NO_THROW(core::Network(cfg, sched, optics::ocs_emulated()));
}

// quorum_chaos scripts a leader kill at 20 ms (plus port fail/repair, log
// divergence, and a replica partition) against a replicated controller:
// the control-plane machinery stays on the control queue, so the scenario
// must replay deterministically on any worker layout.
runner::RunSpec quorum_spec() {
  runner::RunSpec spec;
  spec.seed = 3;
  spec.params["tors"] = static_cast<std::int64_t>(8);
  spec.params["controller_replicas"] = static_cast<std::int64_t>(3);
  spec.params["duration_ms"] = static_cast<std::int64_t>(40);
  return spec;
}

TEST(ShardedEngine, QuorumChaosLeaderKillReplaysByteIdentically) {
  const json::Object base = run_row("quorum_chaos", quorum_spec(), 1);
  const std::string want = dump_row(base);
  for (int shards : {2, 4}) {
    EXPECT_EQ(dump_row(run_row("quorum_chaos", quorum_spec(), shards)), want)
        << "shards=" << shards;
  }
  // Replay: the same spec at the same shard count is a fixed point.
  EXPECT_EQ(dump_row(run_row("quorum_chaos", quorum_spec(), 4)),
            dump_row(run_row("quorum_chaos", quorum_spec(), 4)));
}

// End-to-end through the user API: a sharded Net with production traffic
// and the invariant monitor attached. The engine's cross-shard packet
// conservation check runs at every window barrier; any imbalance (a staged
// message lost or double-delivered) lands in the monitor's violation list.
TEST(ShardedEngine, CrossShardConservationHoldsUnderTraffic) {
  auto net = api::Net::from_json(
      R"({"node_num": 8, "uplink": 1, "slice_us": 5, "shards": 4})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(8, 1),
                              topo::round_robin_period(8)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  auto& monitor = net.enable_invariants(50_us);
  net.start_traffic_json(R"({
    "sources": 64, "load": 0.3, "seed": 5, "size": {"cdf": "kv"}
  })");
  net.run_for(5_ms);
  net.traffic()->stop();
  net.run_for(2_ms);

  auto* engine = net.network().sharded_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->num_workers(), 4);
  EXPECT_GT(engine->stats().windows, 0);
  EXPECT_GT(engine->stats().cross_delivered, 0);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
  EXPECT_GT(net.traffic()->flows_emitted(), 0);
}

// Tier-1 smoke at datacenter scale: a 256-ToR rotor fabric must come up,
// carry traffic, and stay byte-identical between the inline and threaded
// layouts. Short horizon — this guards wiring, not throughput.
TEST(ShardedEngine, Smoke256TorsByteIdentical) {
  runner::RunSpec spec;
  spec.seed = 9;
  spec.params["arch"] = std::string("rotornet-direct");
  spec.params["tors"] = static_cast<std::int64_t>(256);
  spec.params["duration_ms"] = static_cast<std::int64_t>(3);
  spec.params["kv_interval_ms"] = 0.2;
  const json::Object base = run_row("fct", spec, 1);
  EXPECT_GT(base.at("delivered").as_int(), 0);
  EXPECT_EQ(dump_row(run_row("fct", spec, 4)), dump_row(base));
}

}  // namespace
}  // namespace oo
