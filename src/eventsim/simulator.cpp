#include "eventsim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

namespace oo::sim {

namespace {

constexpr std::size_t kCompactMinQueue = 64;

// Lane-run context: which simulator/lane the current thread is executing,
// and the recorder/profiler that lane reports to. Set only for the duration
// of run_lane_until_exclusive, so the control context (and every thread of
// an unrelated simulation) reads {nullptr, control}.
struct LaneContext {
  const Simulator* sim = nullptr;
  int lane = Simulator::kControlLane;
  telemetry::FlightRecorder* recorder = nullptr;
  telemetry::EventProfiler* profiler = nullptr;
};
thread_local LaneContext t_lane_ctx;

}  // namespace

int Simulator::current_lane() const {
  return t_lane_ctx.sim == this ? t_lane_ctx.lane : kControlLane;
}

Simulator::Lane& Simulator::lane_at(int lane) {
  if (lane == kControlLane || lanes_.empty()) return control_;
  assert(lane >= 0 && lane < static_cast<int>(lanes_.size()));
  return lanes_[static_cast<std::size_t>(lane)];
}

Simulator::Lane& Simulator::context_lane() {
  return lane_at(current_lane());
}

SimTime Simulator::now() const {
  const int lane = current_lane();
  return lane == kControlLane ? control_.now
                              : lanes_[static_cast<std::size_t>(lane)].now;
}

telemetry::FlightRecorder* Simulator::recorder() const {
  return t_lane_ctx.sim == this ? t_lane_ctx.recorder : recorder_;
}

telemetry::EventProfiler* Simulator::profiler() const {
  return t_lane_ctx.sim == this ? t_lane_ctx.profiler : profiler_;
}

bool Simulator::cross_lane(int lane) const {
  if (!in_parallel_) return false;
  const int cur = current_lane();
  return cur != kControlLane && cur != lane;
}

void Simulator::enqueue(Lane& ln, Event ev) {
  ln.heap.push_back(std::move(ev));
  std::push_heap(ln.heap.begin(), ln.heap.end(), std::greater<>{});
  if (profiler_ == nullptr) return;
  if (telemetry::EventProfiler* prof = profiler()) {
    prof->sample_queue_depth(ln.heap.size());
  }
}

void Simulator::maybe_compact(Lane& ln) {
  // Compact when cancelled events are (at least) the majority of a
  // non-trivial queue: filter them out and re-heapify. O(n), amortised by
  // the >=50% trigger.
  if (ln.heap.size() < kCompactMinQueue ||
      ln.cancelled_pending->load(std::memory_order_relaxed) * 2 <=
          static_cast<std::int64_t>(ln.heap.size())) {
    return;
  }
  std::erase_if(ln.heap, [](const Event& ev) { return *ev.cancelled; });
  std::make_heap(ln.heap.begin(), ln.heap.end(), std::greater<>{});
  ln.cancelled_pending->store(0, std::memory_order_relaxed);
  ++ln.compactions;
}

EventHandle Simulator::push(Lane& ln, SimTime when, EventFn fn,
                            const char* tag) {
  if (when < ln.now) {
    // Scheduling into the past would make virtual time run backwards when
    // the event pops (the run loop sets now = ev.when). Clamp to now so
    // behaviour stays defined, count it, and tell the invariant monitor —
    // a legal program never takes this branch, so the clamp cannot change
    // any correct run. ToR lanes may be running on a worker, which can't
    // call the sink; their reports wait for the barrier.
    ++ln.past_schedules;
    if (&ln != &control_) {
      ln.past_log.push_back({when, ln.now, tag});
    } else if (invariants_ != nullptr) {
      invariants_->on_past_schedule(when, ln.now, tag);
    }
    when = ln.now;
  }
  auto flag = std::make_shared<bool>(false);
  enqueue(ln, Event{when, ln.next_seq++, std::move(fn), flag, tag});
  maybe_compact(ln);
  return EventHandle{std::move(flag), ln.cancelled_pending};
}

EventHandle Simulator::schedule_at(SimTime when, EventFn fn, const char* tag) {
  return push(context_lane(), when, std::move(fn), tag);
}

EventHandle Simulator::schedule_at_lane(int lane, SimTime when, EventFn fn,
                                        const char* tag) {
  const int cur = current_lane();
  if (in_parallel_ && cur != kControlLane && lane != cur) {
    // Worker-to-elsewhere during a parallel phase: stage in the source
    // lane's outbox; the barrier merges it in canonical order. The handle
    // is intentionally invalid — the event doesn't exist yet.
    Lane& src = lanes_[static_cast<std::size_t>(cur)];
    src.outbox.push_back(
        CrossLaneMsg{lane, when, std::move(fn), tag, cur, src.out_seq++});
    ++src.staged;
    return EventHandle{};
  }
  // Same lane, or a serial context (control phase, barrier, setup): push
  // straight into the target lane with its own clock/sequence.
  return push(lane_at(lane), when, std::move(fn), tag);
}

EventHandle Simulator::schedule_every(SimTime start, SimTime period,
                                      EventFn fn, const char* tag) {
  assert(period > SimTime::zero());
  // The rearm chain pushes with the control lane's sequence counter, so
  // periodic timers must be armed (and fire) on the control lane. Every
  // in-tree user arms them from setup or control events.
  assert(current_lane() == kControlLane &&
         "schedule_every must be called from the control context");
  auto flag = std::make_shared<bool>(false);
  // The periodic wrapper reschedules itself; the shared cancellation flag
  // covers every future firing.
  auto tick = std::make_shared<std::function<void(SimTime)>>();
  // The event closure holds only a weak_ptr to the rescheduler to avoid a
  // shared_ptr cycle (tick -> closure -> tick) that would leak.
  std::weak_ptr<std::function<void(SimTime)>> weak_tick = tick;
  *tick = [this, period, tag, fn = std::move(fn), flag,
           weak_tick](SimTime when) {
    enqueue(control_, Event{when, control_.next_seq++,
                            [period, fn, flag, weak_tick, when]() {
                              fn();
                              if (*flag) return;
                              if (auto t = weak_tick.lock()) {
                                (*t)(when + period);
                              }
                            },
                            flag, tag});
  };
  periodic_ticks_.push_back(tick);
  (*tick)(start);
  maybe_compact(control_);
  return EventHandle{std::move(flag), control_.cancelled_pending};
}

void Simulator::drain(Lane& ln, SimTime end) {
  // stop() halts the control lane between events; ToR lanes finish their
  // window and the engine stops at the barrier.
  const bool stoppable = &ln == &control_;
  telemetry::EventProfiler* prof = profiler();
  while (!ln.heap.empty() && ln.heap.front().when < end &&
         !(stoppable && stop_requested())) {
    std::pop_heap(ln.heap.begin(), ln.heap.end(), std::greater<>{});
    Event ev = std::move(ln.heap.back());
    ln.heap.pop_back();
    ln.now = ev.when;
    if (*ev.cancelled) {
      if (ln.cancelled_pending->load(std::memory_order_relaxed) > 0) {
        ln.cancelled_pending->fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (prof) {
      const auto t0 = std::chrono::steady_clock::now();
      ev.fn();
      const auto t1 = std::chrono::steady_clock::now();
      prof->add(ev.tag, std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count());
    } else {
      ev.fn();
    }
    ++ln.executed;
  }
}

void Simulator::run_until(SimTime until) {
  if (runner_ != nullptr) {
    runner_->run_until(until);
    return;
  }
  clear_stop();
  // Events at exactly `until` run; the clock then rests at `until` unless
  // stop() left due events behind.
  if (until < SimTime::max()) {
    drain(control_, until + SimTime::nanos(1));
  } else {
    drain(control_, until);
  }
  if (control_.heap.empty() || control_.heap.front().when > until) {
    control_.now = std::max(control_.now, until);
  }
}

void Simulator::run() {
  if (runner_ != nullptr) {
    runner_->run_all();
    return;
  }
  clear_stop();
  drain(control_, SimTime::max());
}

// ---- lane engine ----

void Simulator::configure_lanes(int num_lanes) {
  assert(lanes_.empty() && "configure_lanes is one-shot");
  assert(num_lanes > 0);
  lanes_.resize(static_cast<std::size_t>(num_lanes));
  for (Lane& ln : lanes_) ln.now = control_.now;
}

void Simulator::run_control_until_exclusive(SimTime end) {
  drain(control_, end);
}

void Simulator::run_lane_until_exclusive(int lane, SimTime end,
                                         telemetry::FlightRecorder* rec,
                                         telemetry::EventProfiler* prof) {
  const LaneContext saved = t_lane_ctx;
  t_lane_ctx = LaneContext{this, lane, rec, prof};
  drain(lanes_[static_cast<std::size_t>(lane)], end);
  t_lane_ctx = saved;
}

SimTime Simulator::min_pending_time() const {
  SimTime m = SimTime::max();
  const auto visit = [&m](const Lane& ln) {
    if (!ln.heap.empty() && ln.heap.front().when < m) m = ln.heap.front().when;
  };
  visit(control_);
  for (const Lane& ln : lanes_) visit(ln);
  return m;
}

void Simulator::advance_all_to(SimTime t) {
  if (control_.now < t) control_.now = t;
  for (Lane& ln : lanes_) {
    if (ln.now < t) ln.now = t;
  }
}

Simulator::MergeStats Simulator::merge_outboxes(SimTime next_start) {
  MergeStats stats;
  std::vector<CrossLaneMsg> msgs;
  for (Lane& ln : lanes_) {
    if (ln.outbox.empty()) continue;
    msgs.insert(msgs.end(), std::make_move_iterator(ln.outbox.begin()),
                std::make_move_iterator(ln.outbox.end()));
    ln.outbox.clear();
    ln.out_seq = 0;
  }
  if (msgs.empty()) return stats;
  // Canonical exchange order: (when, src_lane, src_seq) is a total order
  // (src_seq is unique per src_lane), so the target-side sequence numbers
  // assigned below are independent of worker count and scheduling jitter.
  std::sort(msgs.begin(), msgs.end(),
            [](const CrossLaneMsg& a, const CrossLaneMsg& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src_lane != b.src_lane) return a.src_lane < b.src_lane;
              return a.src_seq < b.src_seq;
            });
  for (CrossLaneMsg& m : msgs) {
    SimTime when = m.when;
    if (when < next_start) {
      // A cross-lane hop shorter than the sync window (control mailboxes,
      // bind messages). Deterministic: every shard count clamps the same
      // message to the same instant.
      when = next_start;
      ++stats.clamped;
    }
    Lane& tgt = lane_at(m.target);
    enqueue(tgt, Event{when, tgt.next_seq++, std::move(m.fn),
                       std::make_shared<bool>(false), m.tag});
    ++stats.delivered;
  }
  return stats;
}

std::vector<Simulator::PastScheduleRecord>
Simulator::take_lane_past_schedules() {
  std::vector<PastScheduleRecord> out;
  for (Lane& ln : lanes_) {
    out.insert(out.end(), ln.past_log.begin(), ln.past_log.end());
    ln.past_log.clear();
  }
  return out;
}

std::int64_t Simulator::events_executed() const {
  std::int64_t n = control_.executed;
  for (const Lane& ln : lanes_) n += ln.executed;
  return n;
}

std::size_t Simulator::events_pending() const {
  std::size_t n = control_.heap.size();
  for (const Lane& ln : lanes_) n += ln.heap.size();
  return n;
}

std::int64_t Simulator::compactions() const {
  std::int64_t n = control_.compactions;
  for (const Lane& ln : lanes_) n += ln.compactions;
  return n;
}

std::int64_t Simulator::cross_staged() const {
  std::int64_t n = 0;
  for (const Lane& ln : lanes_) n += ln.staged;
  return n;
}

std::int64_t Simulator::past_schedules() const {
  std::int64_t n = control_.past_schedules;
  for (const Lane& ln : lanes_) n += ln.past_schedules;
  return n;
}

}  // namespace oo::sim
