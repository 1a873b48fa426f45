#include "net/electrical_fabric.h"

#include <cassert>

namespace oo::net {

ElectricalFabric::ElectricalFabric(sim::Simulator& s, int num_nodes,
                                   BitsPerSec port_bw, SimTime transit,
                                   std::int64_t max_backlog)
    : sim_(s),
      port_bw_(port_bw),
      transit_(transit),
      max_backlog_(max_backlog),
      sinks_(static_cast<std::size_t>(num_nodes)),
      egress_backlog_bytes_(static_cast<std::size_t>(num_nodes), 0),
      ingress_busy_(static_cast<std::size_t>(num_nodes), SimTime::zero()) {
  egress_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    egress_.push_back(std::make_unique<Link>(
        s, port_bw, SimTime::zero(), [this, n](Packet&& p) {
          egress_backlog_bytes_[static_cast<std::size_t>(n)] -= p.size_bytes;
          auto& sink = sinks_[static_cast<std::size_t>(n)];
          assert(sink && "node not attached to electrical fabric");
          ++p.hops;
          sink(std::move(p));
        }));
  }
}

void ElectricalFabric::attach(NodeId node, DeliverFn deliver) {
  sinks_.at(static_cast<std::size_t>(node)) = std::move(deliver);
}

// Destination-lane half of transmit: tail-drop admission against
// the egress backlog, then the egress Link (whose busy horizon, backlog
// bookkeeping, and sink callback are all dst-lane state).
void ElectricalFabric::admit_and_egress(NodeId from, Packet&& p) {
  const auto dst = static_cast<std::size_t>(p.dst_node);
  if (egress_backlog_bytes_[dst] + p.size_bytes > max_backlog_) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    if (auto* tr = sim_.recorder()) {
      tr->drop(sim_.now(), telemetry::DropReason::Electrical, from, -1, p.id,
               p.size_bytes);
    }
    return;
  }
  egress_backlog_bytes_[dst] += p.size_bytes;
  egress_[dst]->transmit(std::move(p));
}

void ElectricalFabric::transmit(NodeId from, Packet&& p) {
  assert(static_cast<std::size_t>(p.dst_node) < egress_.size());
  // Serialize on the source's fabric port (source-lane state), then hop to
  // the destination lane at serialization-end + core transit.
  SimTime& busy = ingress_busy_[static_cast<std::size_t>(from)];
  const SimTime start = std::max(sim_.now(), busy);
  busy = start + SimTime::nanos(serialization_ns(p.size_bytes, port_bw_));
  const NodeId dst_node = p.dst_node;
  sim_.schedule_at_lane(
      dst_node, busy + transit_,
      [this, from, pkt = std::move(p)]() mutable {
        admit_and_egress(from, std::move(pkt));
      },
      "elec.transit");
}

SimTime ElectricalFabric::egress_backlog(NodeId node) const {
  const auto b = egress_backlog_bytes_[static_cast<std::size_t>(node)];
  return SimTime::nanos(serialization_ns(b, port_bw_));
}

}  // namespace oo::net
