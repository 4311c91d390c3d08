#include "exec/terasort.h"
#include "reference_ops.h"

#include <gtest/gtest.h>

#include <set>

namespace swift {
namespace {

TEST(TerasortTest, GeneratesRequestedCount) {
  auto t = GenerateTerasort(1000, 90, 5);
  EXPECT_EQ(t->num_rows(), 1000u);
  EXPECT_EQ(t->schema.num_fields(), 2u);
}

TEST(TerasortTest, KeysAreTenCharsFromAlphabet) {
  auto t = GenerateTerasort(500, 10, 6);
  for (const Row& r : ref::Rows(*t)) {
    const std::string& k = r[0].str();
    ASSERT_EQ(k.size(), 10u);
    for (char c : k) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'A' && c <= 'V')) << c;
    }
  }
}

TEST(TerasortTest, PayloadsAreUnique) {
  auto t = GenerateTerasort(2000, 10, 7);
  std::set<std::string> seen;
  for (const Row& r : ref::Rows(*t)) {
    EXPECT_TRUE(seen.insert(r[1].str()).second);
  }
}

TEST(TerasortTest, DeterministicPerSeed) {
  auto a = GenerateTerasort(100, 10, 42);
  auto b = GenerateTerasort(100, 10, 42);
  auto c = GenerateTerasort(100, 10, 43);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a->column(0).GetValue(i).str(), b->column(0).GetValue(i).str());
  }
  int diff = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    if (a->column(0).GetValue(i).str() != c->column(0).GetValue(i).str()) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 90);
}

TEST(TerasortTest, SplitPointsAreSortedAndCorrectCount) {
  auto splits = TerasortSplitPoints(8);
  ASSERT_EQ(splits.size(), 7u);
  for (std::size_t i = 1; i < splits.size(); ++i) {
    EXPECT_LT(splits[i - 1], splits[i]);
  }
  EXPECT_TRUE(TerasortSplitPoints(1).empty());
  EXPECT_TRUE(TerasortSplitPoints(0).empty());
}

TEST(TerasortTest, PartitioningIsOrderPreserving) {
  auto splits = TerasortSplitPoints(16);
  auto t = GenerateTerasort(3000, 0, 11);
  for (const Row& r : ref::Rows(*t)) {
    const int p = TerasortPartitionOf(r[0].str(), splits);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 16);
    // Keys in partition p are >= every key in partition p-1's range.
    if (p > 0) {
      EXPECT_GE(r[0].str().substr(0, 2), splits[p - 1]);
    }
    if (p < 15) {
      EXPECT_LT(r[0].str().substr(0, 2), splits[p]);
    }
  }
}

TEST(TerasortTest, PartitionsRoughlyBalanced) {
  const int parts = 10;
  auto splits = TerasortSplitPoints(parts);
  auto t = GenerateTerasort(20000, 0, 13);
  std::vector<int> counts(parts, 0);
  for (const Row& r : ref::Rows(*t)) {
    ++counts[static_cast<std::size_t>(TerasortPartitionOf(r[0].str(), splits))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 20000 / parts / 2);
    EXPECT_LT(c, 20000 / parts * 2);
  }
}

}  // namespace
}  // namespace swift
