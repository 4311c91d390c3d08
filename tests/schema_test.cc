#include "exec/schema.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace swift {
namespace {

Schema TwoTableSchema() {
  return Schema({{"l.l_suppkey", DataType::kInt64},
                 {"l.l_price", DataType::kFloat64},
                 {"s.s_suppkey", DataType::kInt64},
                 {"s.s_name", DataType::kString}});
}

TEST(SchemaTest, ExactLookup) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  auto idx = s.IndexOf("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema s({{"O_OrderKey", DataType::kInt64}});
  EXPECT_TRUE(s.IndexOf("o_orderkey").ok());
  EXPECT_TRUE(s.HasField("O_ORDERKEY"));
}

TEST(SchemaTest, MixedCaseSuffixAndQualifiedLookup) {
  // Exercises both IndexOf paths: the allocation-free all-lowercase fast
  // path and the lowercasing slow path, for exact and suffix matches.
  Schema s({{"L.L_SuppKey", DataType::kInt64}});
  for (const char* name :
       {"l.l_suppkey", "L.L_SUPPKEY", "l_suppkey", "L_SuppKey"}) {
    auto idx = s.IndexOf(name);
    ASSERT_TRUE(idx.ok()) << name;
    EXPECT_EQ(*idx, 0u) << name;
  }
}

TEST(SchemaTest, UnknownNameIsNotFound) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_EQ(s.IndexOf("zzz").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, UnqualifiedMatchesQualifiedSuffix) {
  Schema s = TwoTableSchema();
  auto idx = s.IndexOf("s_name");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 3u);
  auto p = s.IndexOf("l_price");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, 1u);
}

TEST(SchemaTest, QualifiedLookupStillExact) {
  Schema s = TwoTableSchema();
  auto idx = s.IndexOf("l.l_suppkey");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
}

TEST(SchemaTest, DuplicateNameIsAmbiguous) {
  Schema s({{"k", DataType::kInt64}, {"k", DataType::kInt64}});
  EXPECT_EQ(s.IndexOf("k").status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, SuffixAmbiguityDetected) {
  Schema s({{"a.key", DataType::kInt64}, {"b.key", DataType::kInt64}});
  EXPECT_EQ(s.IndexOf("key").status().code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"y", DataType::kString}});
  Schema c = a.Concat(b);
  ASSERT_EQ(c.num_fields(), 2u);
  EXPECT_EQ(c.field(0).name, "x");
  EXPECT_EQ(c.field(1).name, "y");
}

TEST(SchemaTest, ToStringListsFields) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kFloat64}});
  EXPECT_EQ(s.ToString(), "(a:int64, b:float64)");
}

TEST(SchemaTest, EqualityIsStructural) {
  Schema a({{"x", DataType::kInt64}});
  Schema b({{"x", DataType::kInt64}});
  Schema c({{"x", DataType::kString}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(SchemaTest, CopySharesStorage) {
  const Schema a = TwoTableSchema();
  const Schema b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.fields().data(), b.fields().data());
  EXPECT_TRUE(a == b);
}

TEST(SchemaTest, CopyOutlivesItsSource) {
  Schema copy;
  {
    const Schema source = TwoTableSchema();
    copy = source;
  }
  ASSERT_EQ(copy.num_fields(), 4u);
  auto idx = copy.IndexOf("S_NAME");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 3u);
  EXPECT_EQ(copy.IndexOf("s.s_suppkey").ValueOrDie(), 2u);
}

TEST(SchemaTest, DefaultAndEmptySchemasAreEqual) {
  const Schema none;
  const Schema empty(std::vector<Field>{});
  EXPECT_TRUE(none == empty);
  EXPECT_TRUE(empty == none);
  EXPECT_EQ(none.num_fields(), 0u);
  EXPECT_TRUE(none.fields().empty());
  EXPECT_EQ(none.ToString(), "()");
  EXPECT_EQ(none.IndexOf("a").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(none == Schema({{"a", DataType::kInt64}}));
}

// Copies of one schema are made, read and dropped on 8 threads at once
// (run under TSan by the tsan-vec preset).
TEST(SchemaTest, ConcurrentCopiesResolveNames) {
  const Schema shared = TwoTableSchema();
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &wrong, t] {
      for (int r = 0; r < kRounds; ++r) {
        Schema copy = shared;
        const Result<std::size_t> idx =
            copy.IndexOf(r % 2 == 0 ? "l_price" : "s.s_name");
        if (!idx.ok() || *idx != (r % 2 == 0 ? 1u : 3u)) ++wrong[t];
        Schema moved = std::move(copy);
        if (!(moved == shared)) ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
  EXPECT_EQ(shared.IndexOf("l_suppkey").ValueOrDie(), 0u);
}

}  // namespace
}  // namespace swift
