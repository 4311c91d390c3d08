#include "exec/tpch.h"

#include <gtest/gtest.h>

#include <set>

#include "reference_ops.h"

namespace swift {
namespace {

TpchConfig SmallConfig() {
  TpchConfig c;
  c.scale_factor = 0.002;
  return c;
}

TEST(TpchTest, GeneratesAllEightTables) {
  Catalog catalog;
  ASSERT_TRUE(GenerateTpch(SmallConfig(), &catalog).ok());
  for (const char* name :
       {"tpch_nation", "tpch_region", "tpch_supplier", "tpch_part",
        "tpch_partsupp", "tpch_customer", "tpch_orders", "tpch_lineitem"}) {
    auto t = catalog.Lookup(name);
    ASSERT_TRUE(t.ok()) << name;
    EXPECT_GT((*t)->num_rows(), 0u) << name;
  }
}

TEST(TpchTest, NationAndRegionAreFixed) {
  auto nation = TpchNation();
  auto region = TpchRegion();
  EXPECT_EQ(nation->num_rows(), 25u);
  EXPECT_EQ(region->num_rows(), 5u);
  // Every n_regionkey references an existing region.
  for (const Row& r : ref::Rows(*nation)) {
    const int64_t rk = r[2].int64();
    EXPECT_GE(rk, 0);
    EXPECT_LT(rk, 5);
  }
}

TEST(TpchTest, RowCountsFollowProportions) {
  const double sf = 0.01;
  EXPECT_EQ(TpchRowCount("supplier", sf), 100);
  EXPECT_EQ(TpchRowCount("part", sf), 2000);
  EXPECT_EQ(TpchRowCount("partsupp", sf), 8000);
  EXPECT_EQ(TpchRowCount("customer", sf), 1500);
  EXPECT_EQ(TpchRowCount("orders", sf), 15000);
}

TEST(TpchTest, DeterministicForSameSeed) {
  TpchConfig c = SmallConfig();
  auto a = TpchOrders(c);
  auto b = TpchOrders(c);
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (std::size_t i = 0; i < std::min<std::size_t>(a->num_rows(), 50); ++i) {
    EXPECT_EQ(a->column(4).GetValue(i).str(), b->column(4).GetValue(i).str());
  }
}

TEST(TpchTest, ForeignKeysResolve) {
  TpchConfig c = SmallConfig();
  Catalog catalog;
  ASSERT_TRUE(GenerateTpch(c, &catalog).ok());
  auto orders = *catalog.Lookup("tpch_orders");
  auto lineitem = *catalog.Lookup("tpch_lineitem");
  auto part = *catalog.Lookup("tpch_part");
  auto supplier = *catalog.Lookup("tpch_supplier");
  const int64_t max_order = static_cast<int64_t>(orders->num_rows());
  const int64_t max_part = static_cast<int64_t>(part->num_rows());
  const int64_t max_supp = static_cast<int64_t>(supplier->num_rows());
  for (const Row& r : ref::Rows(*lineitem)) {
    EXPECT_GE(r[0].int64(), 1);
    EXPECT_LE(r[0].int64(), max_order);
    EXPECT_GE(r[1].int64(), 1);
    EXPECT_LE(r[1].int64(), max_part);
    EXPECT_GE(r[2].int64(), 1);
    EXPECT_LE(r[2].int64(), max_supp);
  }
}

TEST(TpchTest, LineitemSupplierMatchesPartsupp) {
  // Q9 joins lineitem with partsupp on (partkey, suppkey); the generator
  // must guarantee every lineitem pair exists in partsupp.
  TpchConfig c = SmallConfig();
  auto partsupp = TpchPartsupp(c);
  auto lineitem = TpchLineitem(c);
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const Row& r : ref::Rows(*partsupp)) {
    pairs.insert({r[0].int64(), r[1].int64()});
  }
  for (const Row& r : ref::Rows(*lineitem)) {
    EXPECT_TRUE(pairs.count({r[1].int64(), r[2].int64()}) > 0)
        << "lineitem (part=" << r[1].int64() << ", supp=" << r[2].int64()
        << ") missing from partsupp";
  }
}

TEST(TpchTest, DatesAreIsoFormattedWithinRange) {
  auto orders = TpchOrders(SmallConfig());
  for (const Row& r : ref::Rows(*orders)) {
    const std::string& d = r[4].str();
    ASSERT_EQ(d.size(), 10u);
    EXPECT_EQ(d[4], '-');
    EXPECT_EQ(d[7], '-');
    EXPECT_GE(d, std::string("1992-01-01"));
    EXPECT_LE(d, std::string("1998-08-03"));
  }
}

TEST(TpchTest, PartNamesIncludeGreen) {
  // Q9 filters p_name like '%green%'; the color vocabulary must hit.
  auto part = TpchPart(SmallConfig());
  int green = 0;
  for (const Row& r : ref::Rows(*part)) {
    if (r[1].str().find("green") != std::string::npos) ++green;
  }
  EXPECT_GT(green, 0);
  EXPECT_LT(green, static_cast<int>(part->num_rows()));
}

TEST(TpchTest, DiscountAndTaxInRange) {
  auto li = TpchLineitem(SmallConfig());
  for (const Row& r : ref::Rows(*li)) {
    EXPECT_GE(r[6].float64(), 0.0);
    EXPECT_LE(r[6].float64(), 0.10);
    EXPECT_GE(r[7].float64(), 0.0);
    EXPECT_LE(r[7].float64(), 0.08);
  }
}

TEST(TpchTest, CatalogRejectsDuplicateRegister) {
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(TpchNation()).ok());
  EXPECT_EQ(catalog.Register(TpchNation()).code(),
            StatusCode::kAlreadyExists);
  catalog.Put(TpchNation());  // Put replaces silently
  EXPECT_TRUE(catalog.Lookup("tpch_nation").ok());
}

TEST(TpchTest, TaskSlicePartitionsAllRows) {
  auto part = TpchPart(SmallConfig());
  const int tasks = 7;
  std::size_t next = 0;
  for (int i = 0; i < tasks; ++i) {
    const auto [begin, end] = part->TaskSliceBounds(i, tasks);
    EXPECT_EQ(begin, next) << "task " << i;
    EXPECT_LE(begin, end) << "task " << i;
    next = end;
  }
  EXPECT_EQ(next, part->num_rows());
  // Out-of-range slices are empty, not fatal.
  using Bounds = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(part->TaskSliceBounds(-1, tasks), Bounds(0, 0));
  EXPECT_EQ(part->TaskSliceBounds(tasks, tasks), Bounds(0, 0));
}

}  // namespace
}  // namespace swift
