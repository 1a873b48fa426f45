// Electrical packet-switched fabric: an ideal non-blocking core with
// per-egress-port serialization and bounded backlog. Stands in for the
// folded-Clos aggregation/spine layers in the Clos baseline and in hybrid
// electrical-optical designs (c-Through's 10 Gbps parallel network, hybrid
// RotorNet). ToRs see one fabric port each; contention appears only at the
// egress port, which is where a non-blocking Clos queues too.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "eventsim/simulator.h"
#include "net/link.h"
#include "net/packet.h"

namespace oo::net {

class ElectricalFabric {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  // `port_bw` is the per-ToR fabric port bandwidth; `transit` the core
  // traversal delay (a couple of store-and-forward hops); `max_backlog`
  // bounds each egress port's queue in bytes (tail drop beyond it).
  ElectricalFabric(sim::Simulator& s, int num_nodes, BitsPerSec port_bw,
                   SimTime transit, std::int64_t max_backlog);

  void attach(NodeId node, DeliverFn deliver);

  // Send from `from`'s fabric port toward p.dst_node's fabric port. Ingress
  // serialization is emulated with a per-source busy horizon on the source
  // lane; the packet then crosses to the destination ToR's lane at
  // serialization-end + transit for admission and egress queueing (the
  // transit delay is >= the engine's sync window, so the hop needs no
  // clamp). A tail drop at the egress port is counted there, on the
  // destination lane, not reported to the sender.
  void transmit(NodeId from, Packet&& p);

  BitsPerSec port_bandwidth() const { return port_bw_; }
  std::int64_t drops() const { return drops_.load(std::memory_order_relaxed); }
  // Current egress backlog toward `node`, in ns of serialization time.
  SimTime egress_backlog(NodeId node) const;

 private:
  void admit_and_egress(NodeId from, Packet&& p);

  sim::Simulator& sim_;
  BitsPerSec port_bw_;
  SimTime transit_;
  std::int64_t max_backlog_;
  std::vector<DeliverFn> sinks_;
  // One egress Link per destination node; its busy-until horizon is its
  // queue.
  std::vector<std::unique_ptr<Link>> egress_;
  std::vector<std::int64_t> egress_backlog_bytes_;
  // Per-source ingress serialization horizons (source-lane state).
  std::vector<SimTime> ingress_busy_;
  std::atomic<std::int64_t> drops_{0};
};

}  // namespace oo::net
