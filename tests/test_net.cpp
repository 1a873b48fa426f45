#include <gtest/gtest.h>

#include "eventsim/simulator.h"
#include "net/electrical_fabric.h"
#include "net/fifo_queue.h"
#include "net/link.h"
#include "net/packet.h"

namespace oo::net {
namespace {

using namespace oo::literals;

Packet make_packet(std::int64_t bytes, NodeId dst = 0) {
  Packet p;
  p.size_bytes = bytes;
  p.dst_node = dst;
  return p;
}

TEST(Link, SerializationPlusPropagation) {
  sim::Simulator s;
  SimTime arrival;
  Link link(s, 100e9, 500_ns, [&](Packet&&) { arrival = s.now(); });
  link.transmit(make_packet(1500));  // 120 ns serialization
  s.run();
  EXPECT_EQ(arrival, 620_ns);
}

TEST(Link, BackToBackSerializes) {
  sim::Simulator s;
  std::vector<SimTime> arrivals;
  Link link(s, 100e9, 0_ns, [&](Packet&&) { arrivals.push_back(s.now()); });
  link.transmit(make_packet(1500));
  link.transmit(make_packet(1500));
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 120_ns);
  EXPECT_EQ(arrivals[1], 240_ns);  // queued behind the first
}

TEST(Link, IdleAndFreeAt) {
  sim::Simulator s;
  Link link(s, 100e9, 0_ns, [](Packet&&) {});
  EXPECT_TRUE(link.idle());
  const SimTime end = link.transmit(make_packet(1500));
  EXPECT_EQ(end, 120_ns);
  EXPECT_EQ(link.free_at(), 120_ns);
  EXPECT_FALSE(link.idle());
  s.run();
  EXPECT_TRUE(link.idle());
}

TEST(Link, ByteCounters) {
  sim::Simulator s;
  Link link(s, 100e9, 0_ns, [](Packet&&) {});
  link.transmit(make_packet(1000));
  link.transmit(make_packet(500));
  EXPECT_EQ(link.bytes_sent(), 1500);
  EXPECT_EQ(link.take_bytes_window(), 1500);
  EXPECT_EQ(link.take_bytes_window(), 0);  // window reset
  link.transmit(make_packet(200));
  EXPECT_EQ(link.take_bytes_window(), 200);
  s.run();
}

TEST(FifoQueue, CapacityRejects) {
  FifoQueue q(1000);
  EXPECT_TRUE(q.enqueue(make_packet(600)));
  EXPECT_FALSE(q.enqueue(make_packet(600)));  // would exceed 1000
  EXPECT_TRUE(q.enqueue(make_packet(400)));
  EXPECT_EQ(q.bytes(), 1000);
  EXPECT_EQ(q.free_bytes(), 0);
}

TEST(FifoQueue, FifoOrder) {
  FifoQueue q;
  for (int i = 1; i <= 3; ++i) {
    Packet p = make_packet(i * 100);
    p.seq = i;
    q.enqueue(std::move(p));
  }
  EXPECT_EQ(q.dequeue()->seq, 1);
  EXPECT_EQ(q.dequeue()->seq, 2);
  EXPECT_EQ(q.dequeue()->seq, 3);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(FifoQueue, PauseBlocksDequeueNotEnqueue) {
  FifoQueue q;
  q.enqueue(make_packet(100));
  q.pause();
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(q.peek(), nullptr);
  EXPECT_TRUE(q.enqueue(make_packet(100)));  // enqueue unaffected
  q.resume();
  EXPECT_TRUE(q.dequeue().has_value());
  EXPECT_NE(q.peek(), nullptr);
}

TEST(FifoQueue, PeakTracking) {
  FifoQueue q;
  q.enqueue(make_packet(100));
  q.enqueue(make_packet(200));
  q.dequeue();
  q.dequeue();
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.peak_bytes(), 300);
}

TEST(ElectricalFabric, DeliversToDestination) {
  sim::Simulator s;
  ElectricalFabric fab(s, 4, 100e9, 1_us, 16 << 20);
  int got = -1;
  for (NodeId n = 0; n < 4; ++n) {
    fab.attach(n, [&got, n](Packet&&) { got = n; });
  }
  fab.transmit(0, make_packet(1500, /*dst=*/2));
  s.run();
  EXPECT_EQ(got, 2);
}

TEST(ElectricalFabric, DelayIncludesIngressTransitEgress) {
  sim::Simulator s;
  ElectricalFabric fab(s, 2, 100e9, 1_us, 16 << 20);
  SimTime arrival;
  fab.attach(1, [&](Packet&&) { arrival = s.now(); });
  fab.attach(0, [](Packet&&) {});
  fab.transmit(0, make_packet(1500, 1));
  s.run();
  // 120 ns ingress + 1 us transit + 120 ns egress.
  EXPECT_EQ(arrival, 120_ns + 1_us + 120_ns);
}

TEST(ElectricalFabric, BacklogDrops) {
  sim::Simulator s;
  ElectricalFabric fab(s, 2, 100e9, 1_us, /*max_backlog=*/2000);
  int delivered = 0;
  fab.attach(1, [&](Packet&&) { ++delivered; });
  fab.attach(0, [](Packet&&) {});
  fab.transmit(0, make_packet(1500, 1));
  fab.transmit(0, make_packet(1500, 1));  // exceeds backlog at the egress
  s.run();
  // Admission runs at the destination after transit: the second packet
  // arrives while the first still occupies the egress port.
  EXPECT_EQ(fab.drops(), 1);
  EXPECT_EQ(delivered, 1);
}

TEST(ElectricalFabric, HopCounted) {
  sim::Simulator s;
  ElectricalFabric fab(s, 2, 100e9, 0_ns, 16 << 20);
  int hops = -1;
  fab.attach(1, [&](Packet&& p) { hops = p.hops; });
  fab.attach(0, [](Packet&&) {});
  fab.transmit(0, make_packet(100, 1));
  s.run();
  EXPECT_EQ(hops, 1);
}

}  // namespace
}  // namespace oo::net
