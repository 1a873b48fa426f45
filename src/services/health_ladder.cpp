#include "services/health_ladder.h"

#include <algorithm>

#include "services/hybrid_steering.h"

namespace oo::services {

const char* HealthLadder::name(Source s) {
  static constexpr const char* kNames[] = {"watchdog", "scanner"};
  return kNames[static_cast<std::size_t>(s)];
}

const char* HealthLadder::name(Rung r) {
  static constexpr const char* kNames[] = {"healthy", "widened", "suspect",
                                           "degraded", "quarantined"};
  return kNames[static_cast<std::size_t>(r)];
}

HealthLadder::HealthLadder(core::Network& net, HybridSteering* steering)
    : net_(net),
      steering_(steering),
      holds_(static_cast<std::size_t>(net.num_tors()) * kSources) {}

bool HealthLadder::quarantined(NodeId n) const {
  return hold(n, Source::Watchdog).rung == Rung::Quarantined ||
         hold(n, Source::Scanner).rung == Rung::Quarantined;
}

bool HealthLadder::held(NodeId n) const {
  return hold(n, Source::Watchdog).rung != Rung::Healthy ||
         hold(n, Source::Scanner).rung != Rung::Healthy;
}

HealthLadder::Rung HealthLadder::escalate(NodeId n, Source s,
                                          const Evidence& ev) {
  Hold& h = holds_[index(n, s)];
  const Rung from = h.rung;
  Rung to = Rung::Quarantined;
  if (s == Source::Watchdog) {
    if (ev.guard > SimTime::zero()) to = Rung::Widened;
  } else if (from == Rung::Healthy) {
    to = Rung::Suspect;
  } else if (from == Rung::Suspect) {
    to = Rung::Degraded;
  }
  if (to == Rung::Quarantined &&
      (from == Rung::Quarantined || net_.electrical() == nullptr)) {
    return from;
  }
  const SimTime now = net_.sim().now();
  if (from == Rung::Healthy) h.since = now;
  if (to == Rung::Quarantined) h.fenced_at = now;
  if (to == Rung::Widened) h.guard = ev.guard;
  h.rung = to;
  actuate(n);
  if (auto* tr = net_.sim().recorder()) {
    if (to == Rung::Widened) {
      tr->guard_widen(now, n, net_.node_guard_extra(n).ns(), ev.detail);
    } else if (to == Rung::Suspect) {
      tr->health_suspect(now, n, ev.detail, ev.port);
    } else if (to == Rung::Degraded) {
      tr->health_degrade(now, n, ev.detail, ev.port);
    } else if (s == Source::Watchdog) {
      tr->quarantine(now, n, ev.detail);
    } else {
      tr->health_quarantine(now, n, ev.detail, ev.port);
    }
  }
  note(n, s, from, to);
  return to;
}

HealthLadder::Hold HealthLadder::readmit(NodeId n, Source s) {
  Hold& h = holds_[index(n, s)];
  const Hold was = h;
  h = Hold{};
  actuate(n);
  const SimTime now = net_.sim().now();
  if (auto* tr = net_.sim().recorder()) {
    if (s == Source::Scanner) {
      tr->health_readmit(now, n, (now - was.since).ns());
    } else if (was.rung == Rung::Quarantined) {
      tr->readmit(now, n, (now - was.fenced_at).ns());
    }
  }
  note(n, s, was.rung, Rung::Healthy);
  return was;
}

void HealthLadder::actuate(NodeId n) {
  const Hold& wd = hold(n, Source::Watchdog);
  const Hold& sc = hold(n, Source::Scanner);
  net_.set_node_guard_extra(n, std::max(wd.guard, sc.guard));
  net_.set_node_quarantined(n, quarantined(n));
  if (steering_ != nullptr) {
    steering_->set_node_degraded(
        n, quarantined(n) || wd.rung == Rung::Degraded ||
               sc.rung == Rung::Degraded);
  }
}

}  // namespace oo::services
