#include "common/nodeset.hpp"

#include <gtest/gtest.h>

namespace irmc {
namespace {

TEST(NodeSet, StartsEmpty) {
  NodeSet s(100);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  for (NodeId n = 0; n < 100; ++n) EXPECT_FALSE(s.Test(n));
}

TEST(NodeSet, SetTestClear) {
  NodeSet s(70);
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(69);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(69));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.Count(), 4);
  s.Clear(63);
  EXPECT_FALSE(s.Test(63));
  EXPECT_EQ(s.Count(), 3);
}

TEST(NodeSet, SetIdempotent) {
  NodeSet s(10);
  s.Set(5);
  s.Set(5);
  EXPECT_EQ(s.Count(), 1);
}

TEST(NodeSet, UnionIntersection) {
  NodeSet a(32), b(32);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  const NodeSet u = a | b;
  EXPECT_EQ(u.Count(), 3);
  const NodeSet i = a & b;
  EXPECT_EQ(i.Count(), 1);
  EXPECT_TRUE(i.Test(2));
}

TEST(NodeSet, Subtract) {
  NodeSet a(32), b(32);
  a.Set(1);
  a.Set(2);
  a.Set(3);
  b.Set(2);
  a.Subtract(b);
  EXPECT_EQ(a.Count(), 2);
  EXPECT_FALSE(a.Test(2));
  EXPECT_TRUE(a.Test(1));
}

TEST(NodeSet, SubsetAndIntersects) {
  NodeSet a(32), b(32);
  a.Set(4);
  b.Set(4);
  b.Set(5);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  NodeSet c(32);
  c.Set(9);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(NodeSet(32).IsSubsetOf(a));  // empty subset of anything
}

TEST(NodeSet, Equality) {
  NodeSet a(16), b(16);
  a.Set(7);
  EXPECT_FALSE(a == b);
  b.Set(7);
  EXPECT_TRUE(a == b);
}

TEST(NodeSet, ToVectorAscending) {
  NodeSet s(130);
  for (NodeId n : {5, 64, 127, 0, 129}) s.Set(n);
  EXPECT_EQ(s.ToVector(), (std::vector<NodeId>{0, 5, 64, 127, 129}));
}

TEST(NodeSet, FromVectorRoundTrip) {
  const std::vector<NodeId> v{3, 17, 31};
  const NodeSet s = NodeSet::FromVector(32, v);
  EXPECT_EQ(s.ToVector(), v);
}

TEST(NodeSet, HeaderFlitsIsCeilBytes) {
  EXPECT_EQ(NodeSet(1).HeaderFlits(), 1);
  EXPECT_EQ(NodeSet(8).HeaderFlits(), 1);
  EXPECT_EQ(NodeSet(9).HeaderFlits(), 2);
  EXPECT_EQ(NodeSet(32).HeaderFlits(), 4);
  EXPECT_EQ(NodeSet(64).HeaderFlits(), 8);
  EXPECT_EQ(NodeSet(65).HeaderFlits(), 9);
}

TEST(NodeSet, WordBoundaryOps) {
  NodeSet a(128), b(128);
  a.Set(63);
  a.Set(64);
  b.Set(64);
  b.Set(65);
  NodeSet i = a & b;
  EXPECT_EQ(i.ToVector(), (std::vector<NodeId>{64}));
  a.Subtract(b);
  EXPECT_EQ(a.ToVector(), (std::vector<NodeId>{63}));
}

TEST(NodeSet, CopiesAndMovesAcrossInlineAndHeapStorage) {
  // Up to kInlineBits members live inline; larger sets use the heap.
  NodeSet big(NodeSet::kInlineBits + 44);
  for (NodeId n : {0, 255, 256, 299}) big.Set(n);
  NodeSet small(NodeSet::kInlineBits);
  for (NodeId n : {1, 255}) small.Set(n);

  NodeSet big_copy = big;
  EXPECT_EQ(big_copy, big);
  big_copy.Clear(299);
  EXPECT_TRUE(big.Test(299));  // deep copy, not shared words

  NodeSet target = small;  // inline -> heap by copy assignment
  target = big;
  EXPECT_EQ(target, big);
  target = small;  // heap -> inline
  EXPECT_EQ(target, small);

  NodeSet moved = std::move(big_copy);
  EXPECT_EQ(moved.ToVector(), (std::vector<NodeId>{0, 255, 256}));
  target = std::move(moved);
  EXPECT_EQ(target.Count(), 3);
  NodeSet reused = std::move(target);
  target = small;  // a moved-from set is assignable
  EXPECT_EQ(target, small);
  EXPECT_EQ(reused.capacity(), NodeSet::kInlineBits + 44);

  NodeSet both(NodeSet::kInlineBits + 44);
  both.AssignIntersection(big, reused);
  EXPECT_EQ(both.ToVector(), (std::vector<NodeId>{0, 255, 256}));
}

}  // namespace
}  // namespace irmc
