// Optical network fabric. Models both a real OCS (bufferless waveguide,
// reconfiguration downtime) and the paper's emulated logical OCS on a
// programmable switch (§5.3): time-based connectivity, lookup-table circuit
// on/off semantics (packets over disconnected circuits are dropped), a
// configurable reconfiguration window at slice boundaries, and cut-through
// pipeline latency calibrated to the paper's 1287–1324 ns ToR-to-ToR delay
// (Fig. 11).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "eventsim/simulator.h"
#include "net/packet.h"
#include "optics/schedule.h"

namespace oo::optics {

using net::Packet;

// Device-level characteristics of an OCS technology (§6 Case III).
struct OcsProfile {
  std::string name = "emulated";
  // Downtime at the start of every slice while circuits retarget. Packets
  // launched into this window are lost (bufferless fabric).
  SimTime reconfig_delay = SimTime::nanos(200);
  // Shortest slice the device supports (for feasibility checks).
  SimTime min_slice = SimTime::micros(2);
  // One-way fabric latency: cut-through pipeline + propagation. The spread
  // (max - min) is the delivery jitter the guardband must absorb (§7).
  SimTime latency_min = SimTime::nanos(1287);
  SimTime latency_max = SimTime::nanos(1324);
  // Time between light stopping on a port and the transceiver raising its
  // loss-of-signal alarm (the on_port_down/on_port_up callbacks). Models
  // the LOS debounce interval of real optics.
  SimTime los_detect_latency = SimTime::micros(1);
};

// A few documented technology presets (Fig. 10's four sampled OCSes).
OcsProfile ocs_mems();            // Polatis-style 3D MEMS: ms reconfiguration
OcsProfile ocs_rotor();           // RotorNet-style rotor: ~20 us slices
OcsProfile ocs_liquid_crystal();  // LC-based: ~100-200 us slices
OcsProfile ocs_awgr();            // Sirius-style AWGR + tunable laser: ns
OcsProfile ocs_emulated();        // Tofino2-emulated logical OCS (§5.3)

class OpticalFabric {
 public:
  // Delivery callback: (packet, ingress port at destination node).
  using DeliverFn = std::function<void(Packet&&, PortId)>;

  OpticalFabric(sim::Simulator& s, Schedule schedule, OcsProfile profile,
                Rng rng);

  const Schedule& schedule() const { return schedule_; }
  const OcsProfile& profile() const { return profile_; }

  void attach(NodeId node, DeliverFn deliver);

  // Launch a packet that occupied the sender's transmitter during
  // [tx_start, tx_end]. The circuit must be up for that whole interval:
  //  - both instants in the same slice,
  //  - past the slice's reconfiguration window,
  //  - an installed circuit on (from, port) in that slice,
  //  - outside any in-progress topology reconfiguration for that port pair.
  // Violations drop the packet (bufferless fabric) and are counted.
  void transmit(NodeId from, PortId port, Packet&& p, SimTime tx_start,
                SimTime tx_end);

  // TA-style topology update: after `delay` (circuit retargeting time, e.g.
  // tens of ms for MEMS), the new schedule takes effect. During the window,
  // only circuits identical in both schedules stay up.
  void reconfigure(Schedule next, SimTime delay);
  bool reconfiguring() const;

  // Failure injection: a failed transceiver/fiber kills every circuit that
  // touches (node, port) — light simply stops passing. Both directions of
  // the circuit go dark (the peer's receiver sees nothing). Clearing the
  // failure restores service on the next transmission.
  void set_port_failed(NodeId node, PortId port, bool failed);
  bool port_failed(NodeId node, PortId port) const;
  std::int64_t drops_failed() const { return drops_failed_->value(); }

  // Loss-of-signal alarms: subscribers are notified `los_detect_latency`
  // after a port's light state changes, with the SimTime the transition
  // actually happened (so detection latency is observable). Fires whether
  // or not traffic touches the port — unlike drop counters, an idle dark
  // port still raises an alarm.
  using PortEventFn = std::function<void(NodeId, PortId, SimTime)>;
  void on_port_down(PortEventFn fn) {
    down_listeners_.push_back(std::move(fn));
  }
  void on_port_up(PortEventFn fn) { up_listeners_.push_back(std::move(fn)); }

  // Transceiver degradation: a nonzero bit-error rate on either endpoint of
  // a circuit corrupts packets with probability 1-(1-ber)^bits; corrupted
  // packets are dropped by the receiver's FEC and counted separately.
  void set_port_ber(NodeId node, PortId port, double ber);
  double port_ber(NodeId node, PortId port) const;
  std::int64_t drops_corrupt() const { return drops_corrupt_->value(); }

  // Gray failure: a dirty mirror / marginal alignment on one circuit
  // configuration. Packets from (node, port) whose far end lands on `peer`
  // (kInvalidNode = any peer) are dropped with probability `prob` —
  // *silently*: no LOS alarm, no timing violation, nothing the loud
  // detectors can see. prob = 0 clears the entry. The match list is empty
  // on clean runs, so the hot path costs one size check and — crucially for
  // byte-identity — draws no randomness unless an entry actually matches.
  void set_gray_pair(NodeId node, PortId port, NodeId peer, double prob);
  std::int64_t drops_gray() const { return drops_gray_->value(); }

  // Fault injection: extend an in-progress reconfiguration (a stuck MEMS
  // retargeting / slow switch-control round-trip). Returns false (no-op)
  // when no retargeting is in flight.
  bool stall_reconfig(SimTime extra);
  std::int64_t reconfig_stalls() const { return reconfig_stalls_->value(); }

  // Sender-side timing violations: a transmission that straddled a slice
  // boundary, landed in the reconfiguration guard, or launched into a slice
  // other than the one its calendar queue scheduled it for. These are the
  // *observable symptoms* of a desynchronized sender clock — the watchdog
  // subscribes here rather than reading clock state it could not see in a
  // real deployment. Fired synchronously from transmit() with the offending
  // sender and the launch instant.
  using TimingViolationFn = std::function<void(NodeId, SimTime)>;
  void on_timing_violation(TimingViolationFn fn) {
    violation_listeners_.push_back(std::move(fn));
  }

  // Packets launched into a live circuit of the *wrong* slice: the circuit
  // exists, so the fabric happily delivers the bytes to whatever peer the
  // schedule connects — silent misdelivery, the §7 hazard. Counted (and
  // reported to violation listeners), never dropped.
  std::int64_t wrong_slice() const { return wrong_slice_->value(); }

  std::int64_t delivered() const { return delivered_->value(); }
  std::int64_t drops_no_circuit() const { return drops_no_circuit_->value(); }
  std::int64_t drops_guard() const { return drops_guard_->value(); }
  std::int64_t drops_boundary() const { return drops_boundary_->value(); }
  std::int64_t total_drops() const {
    return drops_no_circuit() + drops_guard() + drops_boundary() +
           drops_failed() + drops_corrupt() + drops_gray();
  }

 private:
  std::optional<Endpoint> live_peer(const Schedule& sched, NodeId from,
                                    PortId port, SliceId slice,
                                    SimTime at) const;

  sim::Simulator& sim_;
  Schedule schedule_;
  Schedule next_schedule_;
  SimTime switch_done_ = SimTime::zero();  // end of in-progress reconfigure
  bool switching_ = false;
  OcsProfile profile_;
  std::vector<Rng> src_rngs_;  // per-source-node BER/jitter streams
  std::vector<DeliverFn> sinks_;
  std::vector<char> failed_ports_;  // node x port bitmap
  std::vector<double> port_ber_;    // node x port bit-error rates
  // Active gray-pair loss entries. Faults are rare and few, so a linear
  // scan of a (nearly always empty) vector beats a dense node x port x peer
  // table; the empty-vector check keeps clean runs at one branch.
  struct GrayEntry {
    NodeId node;
    PortId port;
    NodeId peer;  // kInvalidNode = any peer
    double prob;
  };
  std::vector<GrayEntry> gray_pairs_;
  void notify_violation(NodeId from, SimTime at);

  std::vector<PortEventFn> down_listeners_;
  std::vector<PortEventFn> up_listeners_;
  std::vector<TimingViolationFn> violation_listeners_;
  // Registry-backed counters ("fabric.delivered", "fabric.drops"{class=...},
  // "fabric.reconfig_stalls"): same hot-path cost as plain fields, but
  // visible to metrics exports without per-component plumbing. The public
  // accessors above are thin shims over these cells.
  telemetry::Counter* delivered_;
  telemetry::Counter* drops_no_circuit_;
  telemetry::Counter* drops_guard_;
  telemetry::Counter* drops_boundary_;
  telemetry::Counter* drops_failed_;
  telemetry::Counter* drops_corrupt_;
  telemetry::Counter* drops_gray_;
  telemetry::Counter* reconfig_stalls_;
  telemetry::Counter* wrong_slice_;
};

}  // namespace oo::optics
