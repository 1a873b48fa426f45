// Health ladder (services/health_ladder): one owner of a ToR's remediation
// state for every detector. The pinned case is the shared-fence bug of the
// two-ladder design: the sync watchdog and the health scanner each fenced a
// node through the one Network quarantine bit, so whichever readmitted
// first released a node the other still held Quarantined.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "chaos/invariants.h"
#include "routing/to_routing.h"
#include "services/fault_plan.h"
#include "services/health_ladder.h"
#include "services/health_scanner.h"
#include "services/hybrid_steering.h"
#include "services/sync_watchdog.h"

namespace oo {
namespace {

using namespace oo::literals;
using services::HealthLadder;
using Rung = HealthLadder::Rung;
using Source = HealthLadder::Source;

constexpr NodeId kNode = 2;

// Clock drift quarantines kNode through the watchdog; a silent install on
// the same node — visible to the scanner's claim check even while the node
// is fenced — quarantines it through the scanner too. Then only the clock
// heals.
TEST(HealthLadder, ClockHealKeepsScannerQuarantine) {
  arch::Params p;
  p.tors = 8;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  p.slice = 5_us;
  p.seed = 7;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  auto* net = inst.net.get();
  auto* ctl = inst.ctl.get();

  services::HybridSteering steering(*net, 256 << 10, 50_ms);
  HealthLadder ladder(*net, &steering);
  chaos::InvariantMonitor monitor(*net);
  monitor.attach_controller(ctl);
  monitor.attach_ladder(&ladder);
  services::SyncWatchdog watchdog(ladder);
  watchdog.start();
  services::HealthScanner scanner(ladder);
  scanner.set_controller(ctl);
  scanner.start();

  net->sim().schedule_every(5_us, 10_us, [net]() {
    for (HostId src = 0; src < net->num_hosts(); ++src) {
      core::Packet pkt;
      pkt.type = core::PacketType::Data;
      pkt.flow = 500 + src;
      pkt.dst_host = (src + 3) % net->num_hosts();
      pkt.size_bytes = 1500;
      net->host(src).send(std::move(pkt));
    }
  });
  // Identity redeploys give the claim check an ack trail to audit.
  net->sim().schedule_every(1_ms, 500_us, [net, ctl]() {
    (void)ctl->deploy_update(net->schedule(),
                             routing::direct_to(net->schedule()),
                             core::LookupMode::PerHop,
                             core::MultipathMode::None, 1, 1,
                             SimTime::zero(), nullptr);
  });

  services::FaultPlan plan(*net, /*seed=*/2024, ctl);
  plan.drift_clock(1_ms, kNode, 8000.0, 4_ms);
  plan.lose_beacons(1_ms, kNode, 4_ms);
  plan.silent_install(2_ms, kNode, 10_ms);
  plan.arm();

  // Watch every step on kNode: when the watchdog releases its hold, the
  // scanner must still hold the node and the fence must stay up.
  SimTime watchdog_readmit = SimTime::zero();
  SimTime scanner_readmit = SimTime::zero();
  bool both_held = false;
  bool fence_at_watchdog_readmit = false;
  Rung scanner_at_watchdog_readmit = Rung::Healthy;
  ladder.set_transition_hook([&](NodeId n, Source s, Rung from, Rung to) {
    monitor.check_ladder_transition(n, s, from, to);
    if (n != kNode) return;
    both_held = both_held ||
                (ladder.rung(n, Source::Watchdog) == Rung::Quarantined &&
                 ladder.rung(n, Source::Scanner) == Rung::Quarantined);
    if (to != Rung::Healthy) return;
    if (s == Source::Watchdog && watchdog_readmit == SimTime::zero()) {
      watchdog_readmit = net->sim().now();
      fence_at_watchdog_readmit = net->node_quarantined(n);
      scanner_at_watchdog_readmit = ladder.rung(n, Source::Scanner);
    }
    if (s == Source::Scanner && from == Rung::Quarantined) {
      scanner_readmit = net->sim().now();
    }
  });

  inst.run_for(30_ms);

  ASSERT_TRUE(both_held) << "both sources never held the node Quarantined";
  ASSERT_GT(watchdog_readmit, SimTime::zero());
  EXPECT_EQ(scanner_at_watchdog_readmit, Rung::Quarantined);
  EXPECT_TRUE(fence_at_watchdog_readmit);
  // The scanner's readmission, after the silent install heals, is what
  // finally drops the fence.
  ASSERT_GT(scanner_readmit, watchdog_readmit);
  EXPECT_FALSE(net->node_quarantined(kNode));
  EXPECT_FALSE(steering.node_degraded(kNode));
  EXPECT_GE(watchdog.readmissions(), 1);
  EXPECT_GE(scanner.readmissions(), 1);
  EXPECT_TRUE(monitor.ok()) << monitor.report();
}

// The same hold rule at the API, in both release orders.
TEST(HealthLadder, FenceAndSteeringFollowTheUnionOfHolds) {
  arch::Params p;
  p.tors = 4;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  auto inst =
      arch::make_rotornet(p, arch::RotorRouting::Direct, /*hybrid=*/true);
  auto& net = *inst.net;
  services::HybridSteering steering(net, 256 << 10, 50_ms);
  HealthLadder ladder(net, &steering);

  // Scanner: Suspect steers nothing; Degraded steers; Quarantined fences.
  EXPECT_EQ(ladder.escalate(1, Source::Scanner, {}), Rung::Suspect);
  EXPECT_FALSE(steering.node_degraded(1));
  EXPECT_EQ(ladder.escalate(1, Source::Scanner, {}), Rung::Degraded);
  EXPECT_TRUE(steering.node_degraded(1));
  EXPECT_FALSE(net.node_quarantined(1));
  EXPECT_EQ(ladder.escalate(1, Source::Scanner, {}), Rung::Quarantined);
  EXPECT_TRUE(net.node_quarantined(1));

  // Watchdog widens (guard band), then fences the same node.
  EXPECT_EQ(ladder.escalate(1, Source::Watchdog, {1, -1, 2_us}),
            Rung::Widened);
  EXPECT_EQ(net.node_guard_extra(1), 2_us);
  EXPECT_EQ(ladder.escalate(1, Source::Watchdog, {}), Rung::Quarantined);

  // Scanner releases first: the watchdog's hold keeps fence and steering.
  const HealthLadder::Hold was = ladder.readmit(1, Source::Scanner);
  EXPECT_EQ(was.rung, Rung::Quarantined);
  EXPECT_TRUE(net.node_quarantined(1));
  EXPECT_TRUE(steering.node_degraded(1));
  EXPECT_TRUE(ladder.held(1));
  ladder.readmit(1, Source::Watchdog);
  EXPECT_FALSE(net.node_quarantined(1));
  EXPECT_FALSE(steering.node_degraded(1));
  EXPECT_EQ(net.node_guard_extra(1), SimTime::zero());
  EXPECT_FALSE(ladder.held(1));
}

TEST(HealthLadder, QuarantineRefusedWithoutElectricalFabric) {
  arch::Params p;
  p.tors = 4;
  p.hosts_per_tor = 1;
  p.uplinks = 1;
  auto inst = arch::make_rotornet(p, arch::RotorRouting::Direct);
  ASSERT_EQ(inst.net->electrical(), nullptr);
  HealthLadder ladder(*inst.net);
  ladder.escalate(0, Source::Scanner, {});
  ladder.escalate(0, Source::Scanner, {});
  EXPECT_EQ(ladder.escalate(0, Source::Scanner, {}), Rung::Degraded);
  ladder.escalate(0, Source::Watchdog, {1, -1, 1_us});
  EXPECT_EQ(ladder.escalate(0, Source::Watchdog, {}), Rung::Widened);
  EXPECT_FALSE(inst.net->node_quarantined(0));
}

}  // namespace
}  // namespace oo
