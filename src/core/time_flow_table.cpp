#include "core/time_flow_table.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace oo::core {

std::uint64_t TimeFlowTable::key_of(SliceId arr, NodeId src, NodeId dst) {
  // +2 biases wildcards (-1) into non-negative space.
  const auto a = static_cast<std::uint64_t>(arr + 2);
  const auto s = static_cast<std::uint64_t>(src + 2);
  const auto d = static_cast<std::uint64_t>(dst + 2);
  return (d << 42) | (s << 21) | a;
}

void TimeFlowTable::add(TftEntry entry) {
  assert(entry.match.dst != kInvalidNode && "dst is a required match field");
  assert(!entry.actions.empty());
  const auto key =
      key_of(entry.match.arr_slice, entry.match.src, entry.match.dst);
  max_priority_ = std::max(max_priority_, entry.priority);
  // try_emplace leaves `entry` untouched when the key already exists.
  auto [it, inserted] = entries_.try_emplace(key, std::move(entry));
  if (inserted) return;
  TftEntry& top = it->second;
  if (entry.priority == top.priority) {
    top = std::move(entry);
    return;
  }
  if (entry.priority > top.priority) std::swap(top, entry);
  // `entry` is now the lower-priority one: keep it under the top entry,
  // replacing any displaced entry of the same priority.
  auto& below = displaced_[key];
  auto pos = std::find_if(below.begin(), below.end(), [&](const TftEntry& e) {
    return e.priority <= entry.priority;
  });
  if (pos != below.end() && pos->priority == entry.priority) {
    *pos = std::move(entry);
  } else {
    below.insert(pos, std::move(entry));
  }
}

void TimeFlowTable::remove(const TftMatch& m) {
  const auto key = key_of(m.arr_slice, m.src, m.dst);
  entries_.erase(key);
  displaced_.erase(key);
}

void TimeFlowTable::remove_priority(int priority) {
  for (auto it = displaced_.begin(); it != displaced_.end();) {
    std::erase_if(it->second, [priority](const TftEntry& e) {
      return e.priority == priority;
    });
    it = it->second.empty() ? displaced_.erase(it) : std::next(it);
  }
  max_priority_ = std::numeric_limits<int>::min();
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.priority != priority) {
      max_priority_ = std::max(max_priority_, it->second.priority);
      ++it;
      continue;
    }
    auto below = displaced_.find(it->first);
    if (below == displaced_.end()) {
      it = entries_.erase(it);
      continue;
    }
    // Restore the highest displaced entry.
    it->second = std::move(below->second.front());
    below->second.erase(below->second.begin());
    if (below->second.empty()) displaced_.erase(below);
    max_priority_ = std::max(max_priority_, it->second.priority);
    ++it;
  }
}

void TimeFlowTable::clear() {
  entries_.clear();
  displaced_.clear();
  max_priority_ = std::numeric_limits<int>::min();
}

const TftEntry* TimeFlowTable::lookup(SliceId arr_slice, NodeId src,
                                      NodeId dst) const {
  // Most specific first: exact slice+src, then exact slice, then exact
  // src, then the pure flow-table wildcard. A less specific entry wins only
  // with a strictly higher priority.
  const std::uint64_t keys[4] = {
      key_of(arr_slice, src, dst),
      key_of(arr_slice, kInvalidNode, dst),
      key_of(kAnySlice, src, dst),
      key_of(kAnySlice, kInvalidNode, dst),
  };
  const TftEntry* best = nullptr;
  for (const auto key : keys) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    if (best == nullptr || it->second.priority > best->priority) {
      best = &it->second;
    }
    if (best->priority >= max_priority_) break;
  }
  return best;
}

const TftAction& TimeFlowTable::select_action(const TftEntry& entry,
                                              std::uint32_t hash) {
  assert(!entry.actions.empty());
  if (entry.actions.size() == 1) return entry.actions.front();
  double total = 0.0;
  for (const auto& a : entry.actions) total += a.weight;
  const double x =
      static_cast<double>(hash) / 4294967296.0 * (total > 0 ? total : 1.0);
  double acc = 0.0;
  for (const auto& a : entry.actions) {
    acc += a.weight;
    if (x < acc) return a;
  }
  return entry.actions.back();
}

}  // namespace oo::core
