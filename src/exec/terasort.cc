#include "exec/terasort.h"

#include <algorithm>

#include "common/rng.h"

namespace swift {

namespace {
constexpr int kKeyLen = 10;
// Printable key alphabet (32 symbols -> 5 bits per character), in
// ascending ASCII order so index order equals lexicographic order.
constexpr char kAlphabet[] = "0123456789ABCDEFGHIJKLMNOPQRSTUV";
constexpr int kAlphabetSize = 32;
}  // namespace

std::shared_ptr<Table> GenerateTerasort(int64_t num_records, int payload_bytes,
                                        uint64_t seed) {
  Rng rng(seed ^ 0x7E4A50u);
  ColumnBatch b = EmptyBatchOf(Schema(
      {{"key", DataType::kString}, {"value", DataType::kString}}));
  const auto n = static_cast<std::size_t>(std::max<int64_t>(num_records, 0));
  for (ColumnVector& col : b.columns) col.Reserve(n);
  std::string payload(static_cast<std::size_t>(std::max(payload_bytes, 0)),
                      'x');
  for (int64_t i = 0; i < num_records; ++i) {
    std::string key(kKeyLen, 'A');
    uint64_t bits = rng.Next();
    for (int k = 0; k < kKeyLen; ++k) {
      key[static_cast<std::size_t>(k)] =
          kAlphabet[bits % kAlphabetSize];
      bits >>= 5;
      if (k == 6) bits = rng.Next();  // refresh entropy
    }
    // Unique-ify the payload so non-idempotent recovery tests can detect
    // row identity.
    b.columns[0].AppendString(key);
    b.columns[1].AppendString(payload + std::to_string(i));
  }
  b.physical_rows = n;
  return std::make_shared<Table>("terasort_input", std::move(b));
}

std::vector<std::string> TerasortSplitPoints(int num_partitions) {
  std::vector<std::string> splits;
  if (num_partitions <= 1) return splits;
  // Evenly divide the first-two-character space of the uniform alphabet.
  const int total = kAlphabetSize * kAlphabetSize;
  for (int p = 1; p < num_partitions; ++p) {
    const int v = static_cast<int>(
        (static_cast<int64_t>(p) * total) / num_partitions);
    std::string s;
    s.push_back(kAlphabet[v / kAlphabetSize]);
    s.push_back(kAlphabet[v % kAlphabetSize]);
    splits.push_back(std::move(s));
  }
  return splits;
}

int TerasortPartitionOf(const std::string& key,
                        const std::vector<std::string>& splits) {
  auto it = std::upper_bound(splits.begin(), splits.end(),
                             key.substr(0, 2));
  return static_cast<int>(it - splits.begin());
}

}  // namespace swift
