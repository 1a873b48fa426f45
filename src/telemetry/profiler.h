// Event profiler: wall-clock cost of simulator event dispatch, bucketed by
// the component tag passed at scheduling time. Attached to a Simulator via
// set_profiler(); when absent, dispatch skips the steady_clock reads
// entirely. Also tracks peak event-queue depth and end-to-end events/sec,
// answering "where does a run's wall time go?" without an external profiler.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace oo::telemetry {

class EventProfiler {
 public:
  struct Bucket {
    std::string tag;
    std::int64_t events = 0;
    std::int64_t wall_ns = 0;
  };

  // Record one dispatched event. `tag` may be null (bucketed as "untagged").
  // Keyed by the tag pointer (tags are static strings), so the hot path
  // never builds a string; buckets()/report() merge pointers by text.
  void add(const char* tag, std::int64_t wall_ns) {
    auto& b = buckets_[tag];
    ++b.first;
    b.second += wall_ns;
    ++total_events_;
    total_wall_ns_ += wall_ns;
  }

  void sample_queue_depth(std::size_t depth) {
    if (depth > peak_queue_depth_) peak_queue_depth_ = depth;
  }

  std::int64_t total_events() const { return total_events_; }
  std::int64_t total_wall_ns() const { return total_wall_ns_; }
  std::size_t peak_queue_depth() const { return peak_queue_depth_; }

  double events_per_sec() const {
    return total_wall_ns_ > 0
               ? static_cast<double>(total_events_) * 1e9 /
                     static_cast<double>(total_wall_ns_)
               : 0.0;
  }

  // Buckets sorted by total wall time, costliest first; one per tag text.
  std::vector<Bucket> buckets() const;

  // Human-readable table: tag, events, total ms, ns/event, % of wall.
  std::string report() const;

  void clear() {
    buckets_.clear();
    total_events_ = 0;
    total_wall_ns_ = 0;
    peak_queue_depth_ = 0;
  }

 private:
  // tag pointer -> (events, wall ns).
  std::unordered_map<const char*, std::pair<std::int64_t, std::int64_t>>
      buckets_;
  std::int64_t total_events_ = 0;
  std::int64_t total_wall_ns_ = 0;
  std::size_t peak_queue_depth_ = 0;
};

}  // namespace oo::telemetry
