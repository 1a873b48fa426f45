// The time-flow table (§3) — OpenOptics' "narrow waist" between optical
// hardware and software. Match fields: arrival time slice (wildcardable),
// source node (wildcardable), destination node. Actions: one or more
// <egress port, departure slice> hop sequences; a single hop means per-hop
// lookup, multiple hops mean source routing, and multiple actions form a
// multipath set selected by packet hash. With both slice fields wildcarded
// the table reduces to a classical flow table (backward compatibility with
// TA architectures and static DCNs).
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "net/packet.h"

namespace oo::core {

// How deploy_routing() compiles paths into entries (Tab. 1, LOOKUP).
enum class LookupMode { PerHop, SourceRouting };
// Multipath hashing granularity (Tab. 1, MULTIPATH).
enum class MultipathMode { None, PerPacket, PerFlow };

struct TftMatch {
  SliceId arr_slice = kAnySlice;  // kAnySlice = wildcard
  NodeId src = kInvalidNode;      // kInvalidNode = wildcard
  NodeId dst = kInvalidNode;      // required

  bool operator==(const TftMatch&) const = default;
};

struct TftAction {
  // hops[0] is this node's <egress, departure slice>; extra hops are pushed
  // onto the packet as a source route.
  std::vector<net::SourceHop> hops;
  double weight = 1.0;  // WCMP-style weighted multipath
};

struct TftEntry {
  TftMatch match;
  std::vector<TftAction> actions;
  // The highest-priority matching entry wins, whatever its specificity. TA
  // designs use this to overlay new routes atop old ones before
  // reconfiguring (§2.2).
  int priority = 0;
  // Deployment epoch of the transaction that installed this entry (0 for
  // direct add()/pre-transactional installs) — diagnostic stamp matching
  // optics::Schedule::epoch(), so a post-mortem can tell which overlay
  // generation a node was forwarding on.
  std::uint64_t epoch = 0;
};

class TimeFlowTable {
 public:
  // Installs or replaces the entry with the identical match+priority. An
  // entry of another priority on the same match is kept: the highest one
  // is what lookups see, the others wait underneath.
  void add(TftEntry entry);
  // Removes every entry whose match equals `m` (any priority).
  void remove(const TftMatch& m);
  // Removes every entry installed at exactly `priority` — clearing a
  // superseded routing overlay (e.g. a stale failure-recovery deploy). A
  // lower-priority entry the overlay displaced takes its place again.
  void remove_priority(int priority);
  void clear();

  // TCAM-style lookup: the highest-priority matching entry wins; among
  // equal priorities (arr,src) exact beats (arr,*) beats (*,src) beats
  // (*,*). A wildcard overlay therefore supersedes the more specific base
  // routes beneath it.
  const TftEntry* lookup(SliceId arr_slice, NodeId src, NodeId dst) const;

  // Picks an action from the entry's multipath set using the packet hash
  // (weighted reservoir over action weights).
  static const TftAction& select_action(const TftEntry& entry,
                                        std::uint32_t hash);

  // Number of match keys with an entry (displaced entries not counted).
  std::size_t size() const { return entries_.size(); }

 private:
  static std::uint64_t key_of(SliceId arr, NodeId src, NodeId dst);

  // match-key -> best entry (highest priority) for that exact match.
  std::unordered_map<std::uint64_t, TftEntry> entries_;
  // match-key -> the lower-priority entries displaced by entries_[key], in
  // descending priority. Kept apart so a table without overlays pays
  // nothing for them.
  std::unordered_map<std::uint64_t, std::vector<TftEntry>> displaced_;
  // Upper bound on the priorities in entries_ (exact after add, clear and
  // remove_priority): a lookup hit at this priority can't be beaten, so a
  // table without overlays stops at its most specific hit.
  int max_priority_ = std::numeric_limits<int>::min();
};

}  // namespace oo::core
