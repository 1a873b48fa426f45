// Remaining API-surface coverage: config files, schedule summaries,
// per-port telemetry, electrical backlog queries, and controller edge
// cases mid-run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "api/openoptics.h"
#include "chaos/invariants.h"
#include "core/controller.h"
#include "routing/to_routing.h"
#include "topo/round_robin.h"

namespace oo {
namespace {

using namespace oo::literals;

TEST(MiscApi, ConfigFromFile) {
  const std::string path = "/tmp/oo_cfg_test.json";
  {
    std::ofstream out(path);
    out << R"({"node_num": 6, "uplink": 2, "ocs": "rotor"})";
  }
  const auto cfg = api::Config::from_file(path);
  EXPECT_EQ(cfg.node_num, 6);
  EXPECT_EQ(cfg.uplink, 2);
  EXPECT_EQ(cfg.profile().name, "rotor");
  std::remove(path.c_str());
  EXPECT_THROW(api::Config::from_file("/nonexistent/cfg.json"),
               std::runtime_error);
}

TEST(MiscApi, ScheduleSummaryMentionsShape) {
  optics::Schedule s(8, 2, 7, 100_us);
  const auto text = s.summary();
  EXPECT_NE(text.find("nodes=8"), std::string::npos);
  EXPECT_NE(text.find("uplinks=2"), std::string::npos);
  EXPECT_NE(text.find("period=7"), std::string::npos);
}

TEST(MiscApi, PerPortBufferTelemetry) {
  auto net = api::Net::from_json(R"({"node_num": 4, "uplink": 2})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 2),
                              topo::round_robin_period(4)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  // Pause drains by pointing traffic at the farthest slice: fill port 0.
  core::Packet p;
  p.type = core::PacketType::Data;
  p.flow = 1;
  p.dst_host = 2;
  p.size_bytes = 9000;
  net.network().host(0).send(std::move(p));
  net.run_for(10_us);
  const auto total = net.buffer_usage(0);
  const auto port0 = net.buffer_usage(0, 0);
  const auto port1 = net.buffer_usage(0, 1);
  EXPECT_EQ(total, port0 + port1);
}

// Invariants enabled after the health scanner must still watch its ladder:
// a fence the holds do not account for is flagged on the next step.
TEST(MiscApi, InvariantsEnabledAfterScannerWatchTheLadder) {
  auto net = api::Net::from_json(R"({"node_num": 4, "uplink": 2})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 2),
                              topo::round_robin_period(4)));
  net.enable_health_scanner();
  auto& monitor = net.enable_invariants();
  net.network().set_node_quarantined(0, true);
  monitor.check_ladder_transition(0, services::HealthLadder::Source::Scanner,
                                  services::HealthLadder::Rung::Healthy,
                                  services::HealthLadder::Rung::Suspect);
  ASSERT_EQ(monitor.total_violations(), 1);
  EXPECT_EQ(monitor.violations()[0].invariant, "health_ladder");
}

// Replacing the traffic engine mid-run (flows of both fidelities still in
// flight) must not leave queued simulator events pointing at the old
// engine — the asan CI job is the real assertion.
TEST(MiscApi, StartTrafficReplacementMidRunIsSafe) {
  auto net = api::Net::from_json(R"({"node_num": 4, "uplink": 1})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 1),
                              topo::round_robin_period(4)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  const char* spec = R"({
    "sources": 1000, "load": 0.2, "seed": 11,
    "size": {"cdf": "kv", "hh_fraction": 0.2, "hh_cdf": "hadoop"},
    "hybrid_threshold": 100000
  })";
  auto& first = net.start_traffic_json(spec);
  net.run_for(5_ms);
  ASSERT_GT(first.flows_emitted(), 0);
  auto& second = net.start_traffic_json(spec);  // destroys `first` mid-run
  net.run_for(10_ms);
  EXPECT_GT(second.flows_emitted(), 0);
  EXPECT_GT(second.flows_completed(), 0);
}

TEST(MiscApi, ElectricalBacklogQuery) {
  sim::Simulator s;
  net::ElectricalFabric fab(s, 2, 10e9, 1_us, 16 << 20);
  fab.attach(0, [](net::Packet&&) {});
  fab.attach(1, [](net::Packet&&) {});
  EXPECT_EQ(fab.egress_backlog(1), SimTime::zero());
  net::Packet p;
  p.size_bytes = 125000;  // 100 us at 10 Gbps
  p.dst_node = 1;
  fab.transmit(0, std::move(p));
  // Admission at the egress port follows ingress serialization (100 us)
  // and the 1 us core transit.
  s.run_until(101_us);
  EXPECT_EQ(fab.egress_backlog(1), 100_us);
  s.run();
  EXPECT_EQ(fab.egress_backlog(1), SimTime::zero());
}

TEST(MiscApi, ControllerClearMidRunRecoversOnRedeploy) {
  auto net = api::Net::from_json(R"({"node_num": 4})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 1),
                              topo::round_robin_period(4)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  int got = 0;
  net.network().host(1).bind_flow(5, [&](core::Packet&&) { ++got; });
  auto send = [&]() {
    core::Packet p;
    p.type = core::PacketType::Data;
    p.flow = 5;
    p.dst_host = 1;
    p.size_bytes = 1500;
    net.network().host(0).send(std::move(p));
  };
  send();
  net.run_for(2_ms);
  EXPECT_EQ(got, 1);
  net.controller().clear_routing();
  send();
  net.run_for(2_ms);
  EXPECT_EQ(got, 1);  // blackholed while tables are empty
  EXPECT_GT(net.network().totals().no_route_drops, 0);
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  send();
  net.run_for(2_ms);
  EXPECT_EQ(got, 2);  // restored
}

// An overlay deployed on the base routes' own match keys displaces them;
// clearing it must restore the base routes, not leave those keys unrouted.
TEST(MiscApi, ClearedOverlayRestoresBaseRoutes) {
  auto net = api::Net::from_json(R"({"node_num": 4})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 1),
                              topo::round_robin_period(4)));
  const auto paths = routing::direct_to(net.schedule());
  ASSERT_TRUE(net.deploy_routing(paths));
  int got = 0;
  net.network().host(1).bind_flow(5, [&](core::Packet&&) { ++got; });
  auto send = [&]() {
    core::Packet p;
    p.type = core::PacketType::Data;
    p.flow = 5;
    p.dst_host = 1;
    p.size_bytes = 1500;
    net.network().host(0).send(std::move(p));
  };
  bool committed = false;
  ASSERT_TRUE(net.controller().deploy_update(
      net.schedule(), paths, core::LookupMode::PerHop,
      core::MultipathMode::None, /*priority=*/5, /*clear_priority=*/99,
      SimTime::zero(), [&](bool ok) { committed = ok; }));
  net.run_for(2_ms);
  ASSERT_TRUE(committed);
  send();
  net.run_for(2_ms);
  EXPECT_EQ(got, 1);  // the overlay routes
  net.controller().clear_priority(5);
  send();
  net.run_for(2_ms);
  EXPECT_EQ(got, 2);  // the base routes again
  EXPECT_EQ(net.network().totals().no_route_drops, 0);
}

TEST(MiscApi, PeriodicTimerCancelFromWithinCallback) {
  sim::Simulator s;
  int ticks = 0;
  sim::EventHandle h;
  h = s.schedule_every(10_us, 10_us, [&]() {
    if (++ticks == 3) h.cancel();  // self-cancel mid-stream
  });
  s.run_until(1_ms);
  EXPECT_EQ(ticks, 3);
}

TEST(MiscApi, SimTimeBoundaries) {
  EXPECT_GT(SimTime::max(), SimTime::seconds(1'000'000));
  EXPECT_EQ(SimTime::zero().ns(), 0);
  const SimTime t = SimTime::max();
  EXPECT_EQ(t.ns(), INT64_MAX);
}

TEST(MiscApi, BwUsageWindows) {
  auto net = api::Net::from_json(R"({"node_num": 4})");
  ASSERT_TRUE(net.deploy_topo(topo::round_robin_1d(4, 1),
                              topo::round_robin_period(4)));
  ASSERT_TRUE(net.deploy_routing(routing::direct_to(net.schedule())));
  EXPECT_EQ(net.bw_usage(0), 0);
  core::Packet p;
  p.type = core::PacketType::Data;
  p.flow = 1;
  p.dst_host = 1;
  p.size_bytes = 1500;
  net.network().host(0).send(std::move(p));
  net.run_for(2_ms);
  EXPECT_GE(net.bw_usage(0), 1500);  // the window since the last call
  EXPECT_EQ(net.bw_usage(0), 0);     // drained by the query
}

}  // namespace
}  // namespace oo
