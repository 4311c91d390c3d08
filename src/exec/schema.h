#ifndef SWIFT_EXEC_SCHEMA_H_
#define SWIFT_EXEC_SCHEMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "exec/value.h"

namespace swift {

/// \brief One named, typed column.
struct Field {
  std::string name;
  DataType type = DataType::kNull;

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// \brief Ordered list of fields with O(1) name resolution.
///
/// Names resolve case-insensitively; an unqualified name also matches a
/// qualified field ("l_suppkey" matches "l.l_suppkey") when unambiguous,
/// mirroring SQL scoping for the planner.
///
/// A Schema is a shared immutable value: the fields, the lowercased name
/// pool and both name indexes live in one reference-counted block built
/// once by the constructor, so copying a Schema (every morsel, operator
/// output and decoded payload carries one) is a refcount bump, and
/// copies may be made, read and dropped from any thread. A default or
/// empty Schema holds no block.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields);

  const std::vector<Field>& fields() const;
  std::size_t num_fields() const { return rep_ ? rep_->fields.size() : 0; }
  const Field& field(std::size_t i) const { return rep_->fields[i]; }

  /// \brief Index of column `name`; NotFound / InvalidArgument(ambiguous).
  Result<std::size_t> IndexOf(const std::string& name) const;

  bool HasField(const std::string& name) const {
    return IndexOf(name).ok();
  }

  /// \brief Concatenation (for joins).
  Schema Concat(const Schema& right) const;

  /// \brief Field-wise equality; copies of one Schema compare equal
  /// without reading their fields.
  bool operator==(const Schema& other) const {
    return rep_ == other.rep_ || fields() == other.fields();
  }

  std::string ToString() const;

 private:
  /// One entry of the flat name table: the key is a (offset, len) view
  /// into the lowercased-name pool of the same Rep. `count` tracks
  /// duplicate keys for the ambiguity error; `first` is only read when
  /// count == 1.
  struct NameSlot {
    uint64_t hash = 0;
    uint32_t off = 0;
    uint32_t len = 0;
    uint32_t first = 0;
    uint32_t count = 0;  // 0 = empty slot
  };

  /// Open-addressed hash table over common/hash64.h with linear
  /// probing; sized once at construction (power of two, load <= 0.5).
  struct NameIndex {
    std::vector<NameSlot> slots;

    void Insert(std::string_view pool, uint64_t hash, uint32_t off,
                uint32_t len, uint32_t field);
    const NameSlot* Find(std::string_view pool, uint64_t hash,
                         std::string_view key) const;
  };

  /// Everything a Schema holds, built once and never changed after.
  struct Rep {
    std::vector<Field> fields;
    std::string name_pool;  // lowercased field names, concatenated
    NameIndex by_name;
    // Unqualified suffix ("x" for "t.x") -> field index, lower-cased.
    NameIndex by_suffix;
  };

  /// Resolves an already-lowercased `key` (`name` only for error text).
  Result<std::size_t> Lookup(const std::string& key,
                             const std::string& name) const;

  std::shared_ptr<const Rep> rep_;  // null: no fields
};

/// \brief A schema plus its rows: the unit operators exchange.
struct Batch {
  Schema schema;
  std::vector<Row> rows;

  std::size_t num_rows() const { return rows.size(); }
};

}  // namespace swift

#endif  // SWIFT_EXEC_SCHEMA_H_
