#include "telemetry/profiler.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace oo::telemetry {

std::vector<EventProfiler::Bucket> EventProfiler::buckets() const {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_text;
  for (const auto& [tag, ew] : buckets_) {
    auto& b = by_text[tag ? tag : "untagged"];
    b.first += ew.first;
    b.second += ew.second;
  }
  std::vector<Bucket> out;
  out.reserve(by_text.size());
  for (const auto& [tag, ew] : by_text) {
    out.push_back({tag, ew.first, ew.second});
  }
  std::sort(out.begin(), out.end(), [](const Bucket& x, const Bucket& y) {
    if (x.wall_ns != y.wall_ns) return x.wall_ns > y.wall_ns;
    return x.tag < y.tag;
  });
  return out;
}

std::string EventProfiler::report() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-20s %12s %12s %10s %7s\n", "tag",
                "events", "wall_ms", "ns/event", "share");
  out += line;
  for (const auto& b : buckets()) {
    const double share =
        total_wall_ns_ > 0
            ? 100.0 * static_cast<double>(b.wall_ns) /
                  static_cast<double>(total_wall_ns_)
            : 0.0;
    const double per =
        b.events > 0
            ? static_cast<double>(b.wall_ns) / static_cast<double>(b.events)
            : 0.0;
    std::snprintf(line, sizeof line, "%-20s %12lld %12.3f %10.0f %6.1f%%\n",
                  b.tag.c_str(), static_cast<long long>(b.events),
                  static_cast<double>(b.wall_ns) / 1e6, per, share);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "total: %lld events, %.3f ms wall, %.0f events/sec, peak "
                "queue depth %zu\n",
                static_cast<long long>(total_events_),
                static_cast<double>(total_wall_ns_) / 1e6, events_per_sec(),
                peak_queue_depth_);
  out += line;
  return out;
}

}  // namespace oo::telemetry
