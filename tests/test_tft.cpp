#include "core/time_flow_table.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace oo::core {
namespace {

TftEntry entry(SliceId arr, NodeId src, NodeId dst, PortId egress,
               SliceId dep, int priority = 0) {
  TftEntry e;
  e.match = TftMatch{arr, src, dst};
  e.actions.push_back(TftAction{{net::SourceHop{egress, dep}}, 1.0});
  e.priority = priority;
  return e;
}

TEST(TimeFlowTable, ExactMatch) {
  TimeFlowTable t;
  t.add(entry(0, 1, 3, 5, 2));
  const auto* e = t.lookup(0, 1, 3);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->actions[0].hops[0].egress, 5);
  EXPECT_EQ(e->actions[0].hops[0].dep_slice, 2);
  EXPECT_EQ(t.lookup(1, 1, 3), nullptr);  // other slice
  EXPECT_EQ(t.lookup(0, 2, 3), nullptr);  // other src
  EXPECT_EQ(t.lookup(0, 1, 4), nullptr);  // other dst
}

TEST(TimeFlowTable, WildcardPrecedence) {
  TimeFlowTable t;
  t.add(entry(kAnySlice, kInvalidNode, 3, /*egress=*/0, kAnySlice));
  t.add(entry(kAnySlice, 1, 3, 1, kAnySlice));
  t.add(entry(0, kInvalidNode, 3, 2, 0));
  t.add(entry(0, 1, 3, 3, 0));
  // Most specific first: (arr, src) > (arr, *) > (*, src) > (*, *).
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 3);
  EXPECT_EQ(t.lookup(0, 9, 3)->actions[0].hops[0].egress, 2);
  EXPECT_EQ(t.lookup(5, 1, 3)->actions[0].hops[0].egress, 1);
  EXPECT_EQ(t.lookup(5, 9, 3)->actions[0].hops[0].egress, 0);
}

TEST(TimeFlowTable, FlowTableDegeneration) {
  // With wildcard slices the table behaves as a classical flow table (§3).
  TimeFlowTable t;
  t.add(entry(kAnySlice, kInvalidNode, 7, 4, kAnySlice));
  for (SliceId s : {0, 1, 99}) {
    const auto* e = t.lookup(s, 123, 7);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->actions[0].hops[0].egress, 4);
    EXPECT_EQ(e->actions[0].hops[0].dep_slice, kAnySlice);
  }
}

TEST(TimeFlowTable, PriorityReplacement) {
  TimeFlowTable t;
  t.add(entry(0, 1, 3, 5, 2, /*priority=*/0));
  t.add(entry(0, 1, 3, 6, 2, /*priority=*/1));  // higher priority wins
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 6);
  t.add(entry(0, 1, 3, 7, 2, /*priority=*/0));  // lower: ignored
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 6);
  t.add(entry(0, 1, 3, 8, 2, /*priority=*/1));  // equal: replaces
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 8);
}

TEST(TimeFlowTable, RemoveAndClear) {
  TimeFlowTable t;
  t.add(entry(0, 1, 3, 5, 2));
  t.add(entry(1, 1, 3, 5, 2));
  EXPECT_EQ(t.size(), 2u);
  t.remove(TftMatch{0, 1, 3});
  EXPECT_EQ(t.lookup(0, 1, 3), nullptr);
  EXPECT_NE(t.lookup(1, 1, 3), nullptr);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(TimeFlowTable, RemovingOverlayRestoresDisplacedEntry) {
  TimeFlowTable t;
  t.add(entry(0, 1, 3, 5, 2, /*priority=*/0));
  t.add(entry(0, 1, 3, 6, 2, /*priority=*/2));  // overlay on the same key
  t.add(entry(0, 1, 3, 7, 2, /*priority=*/1));  // below the overlay
  t.add(entry(0, 1, 3, 4, 2, /*priority=*/0));  // replaces the base
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 6);
  t.remove_priority(2);
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 7);
  t.remove_priority(1);
  EXPECT_EQ(t.lookup(0, 1, 3)->actions[0].hops[0].egress, 4);
  t.remove_priority(0);
  EXPECT_EQ(t.lookup(0, 1, 3), nullptr);
  // remove() drops the displaced entries with the key.
  t.add(entry(0, 1, 3, 5, 2, /*priority=*/0));
  t.add(entry(0, 1, 3, 6, 2, /*priority=*/2));
  t.remove(TftMatch{0, 1, 3});
  t.remove_priority(2);
  EXPECT_EQ(t.lookup(0, 1, 3), nullptr);
}

TEST(TimeFlowTable, HigherPriorityWildcardBeatsSpecificEntry) {
  TimeFlowTable t;
  t.add(entry(0, kInvalidNode, 3, /*egress=*/1, 0, /*priority=*/0));
  t.add(entry(kAnySlice, kInvalidNode, 3, /*egress=*/2, 4, /*priority=*/1));
  // The wildcard overlay supersedes the specific base route...
  EXPECT_EQ(t.lookup(0, 5, 3)->actions[0].hops[0].egress, 2);
  // ...and clearing it restores the base route.
  t.remove_priority(1);
  EXPECT_EQ(t.lookup(0, 5, 3)->actions[0].hops[0].egress, 1);
  EXPECT_EQ(t.lookup(1, 5, 3), nullptr);
  // Equal priorities: the more specific entry wins.
  t.add(entry(kAnySlice, kInvalidNode, 3, /*egress=*/4, 4, /*priority=*/0));
  EXPECT_EQ(t.lookup(0, 5, 3)->actions[0].hops[0].egress, 1);
  EXPECT_EQ(t.lookup(1, 5, 3)->actions[0].hops[0].egress, 4);
}

TEST(TimeFlowTable, SelectActionSingle) {
  TftEntry e = entry(0, 1, 3, 5, 2);
  EXPECT_EQ(&TimeFlowTable::select_action(e, 0), &e.actions[0]);
  EXPECT_EQ(&TimeFlowTable::select_action(e, 0xffffffff), &e.actions[0]);
}

TEST(TimeFlowTable, SelectActionWeighted) {
  TftEntry e;
  e.match = TftMatch{0, 1, 3};
  e.actions.push_back(TftAction{{net::SourceHop{0, 0}}, 1.0});
  e.actions.push_back(TftAction{{net::SourceHop{1, 0}}, 3.0});
  int counts[2] = {0, 0};
  for (std::uint32_t h = 0; h < 4000; ++h) {
    const auto& a = TimeFlowTable::select_action(e, hash_mix(h));
    ++counts[a.hops[0].egress];
  }
  // 1:3 ratio within tolerance.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.4);
}

TEST(TimeFlowTable, SourceRoutingActionCarriesHops) {
  TftEntry e;
  e.match = TftMatch{0, kInvalidNode, 3};
  e.actions.push_back(
      TftAction{{net::SourceHop{1, 0}, net::SourceHop{2, 1}}, 1.0});
  TimeFlowTable t;
  t.add(e);
  const auto* found = t.lookup(0, 5, 3);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->actions[0].hops.size(), 2u);
  EXPECT_EQ(found->actions[0].hops[1].egress, 2);
  EXPECT_EQ(found->actions[0].hops[1].dep_slice, 1);
}

TEST(TimeFlowTable, ManyEntriesLookup) {
  TimeFlowTable t;
  // Populate a 108-destination, 107-slice table (the observed-ToR scale of
  // §7) and verify random probes.
  for (SliceId s = 0; s < 107; ++s) {
    for (NodeId d = 0; d < 108; ++d) {
      t.add(entry(s, kInvalidNode, d, d % 6, (s + d) % 107));
    }
  }
  EXPECT_EQ(t.size(), 107u * 108u);
  const auto* e = t.lookup(50, 3, 77);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->actions[0].hops[0].dep_slice, (50 + 77) % 107);
}

}  // namespace
}  // namespace oo::core
