// Health ladder: the one owner of a ToR's remediation state. Detectors
// (services::SyncWatchdog, services::HealthScanner) only gather evidence
// and report their steps here; the ladder alone drives the actuators.
//
// Each source holds its own rung per node, on its own path:
//   watchdog: Healthy -> Widened (repeatable) -> Quarantined
//   scanner:  Healthy -> Suspect -> Degraded -> Quarantined
// and returns to Healthy only by its own readmission. The actuators follow
// the union of the holds, so no source releases what another still holds:
// the optical fence is up while any source holds Quarantined, per-node
// steering keeps elephants off while any holds Degraded or Quarantined,
// and the guard band is the widest any source asked for. Quarantine needs
// an electrical fabric; without one the step is refused.
//
// Each step actuates, then writes the flight recorder, then fires the
// transition hook (the invariant monitor's tap, see chaos/invariants.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/network.h"

namespace oo::services {

class HybridSteering;

class HealthLadder {
 public:
  enum class Source { Watchdog = 0, Scanner };
  enum class Rung { Healthy = 0, Widened, Suspect, Degraded, Quarantined };

  static const char* name(Source s);
  static const char* name(Rung r);

  // What a detector reports with a step; the ladder records it.
  struct Evidence {
    // Watchdog: the widening ordinal, or the symptom count on quarantine.
    // Scanner: the blamed cause, or the probe losses on degrade.
    std::int64_t detail = 0;
    std::int64_t port = -1;  // blamed port, -1 when none
    // Watchdog only: a positive guard widens the node's guard band to it
    // (rung Widened) instead of fencing the node.
    SimTime guard = SimTime::zero();
  };

  // One source's hold on one node.
  struct Hold {
    Rung rung = Rung::Healthy;
    SimTime guard = SimTime::zero();
    SimTime since = SimTime::zero();      // left Healthy
    SimTime fenced_at = SimTime::zero();  // entered Quarantined
  };

  // `steering`, when given, must outlive the ladder.
  explicit HealthLadder(core::Network& net,
                        HybridSteering* steering = nullptr);

  core::Network& net() const { return net_; }

  // Invoked on every rung change (from != to), after the actuators moved.
  using TransitionFn =
      std::function<void(NodeId, Source, Rung from, Rung to)>;
  void set_transition_hook(TransitionFn fn) {
    transition_hook_ = std::move(fn);
  }

  Rung rung(NodeId n, Source s) const { return hold(n, s).rung; }
  // Some source holds n Quarantined: the fence is up.
  bool quarantined(NodeId n) const;
  // Some source holds n on a rung above Healthy.
  bool held(NodeId n) const;

  // Take `s`'s next rung on n (see the paths above). Returns the rung `s`
  // holds afterwards.
  Rung escalate(NodeId n, Source s, const Evidence& ev);
  // Release `s`'s hold on n and return it as it was. The fence, steering
  // and guard band drop only as far as the remaining holds allow.
  Hold readmit(NodeId n, Source s);

 private:
  static constexpr std::size_t kSources = 2;
  std::size_t index(NodeId n, Source s) const {
    return static_cast<std::size_t>(n) * kSources +
           static_cast<std::size_t>(s);
  }
  const Hold& hold(NodeId n, Source s) const {
    return holds_[index(n, s)];
  }
  void actuate(NodeId n);
  void note(NodeId n, Source s, Rung from, Rung to) {
    if (transition_hook_ && from != to) transition_hook_(n, s, from, to);
  }

  core::Network& net_;
  HybridSteering* steering_;
  std::vector<Hold> holds_;  // node-major, kSources per node
  TransitionFn transition_hook_;
};

}  // namespace oo::services
