#include "exec/schema.h"

#include <sstream>

#include "common/hash64.h"
#include "common/string_util.h"

namespace swift {

namespace {

bool HasUpperAscii(const std::string& s) {
  for (char c : s) {
    if (c >= 'A' && c <= 'Z') return true;
  }
  return false;
}

std::size_t Pow2AtLeast(std::size_t n) {
  std::size_t cap = 8;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

void Schema::NameIndex::Insert(std::string_view pool, uint64_t hash,
                               uint32_t off, uint32_t len, uint32_t field) {
  const std::size_t mask = slots.size() - 1;
  const std::string_view key = pool.substr(off, len);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    NameSlot& s = slots[i];
    if (s.count == 0) {
      s = NameSlot{hash, off, len, field, 1};
      return;
    }
    if (s.hash == hash && pool.substr(s.off, s.len) == key) {
      ++s.count;  // duplicate key; `first` keeps the earliest ordinal
      return;
    }
  }
}

const Schema::NameSlot* Schema::NameIndex::Find(std::string_view pool,
                                                uint64_t hash,
                                                std::string_view key) const {
  if (slots.empty()) return nullptr;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const NameSlot& s = slots[i];
    if (s.count == 0) return nullptr;
    if (s.hash == hash && pool.substr(s.off, s.len) == key) return &s;
  }
}

Schema::Schema(std::vector<Field> fields) {
  if (fields.empty()) return;
  auto rep = std::make_shared<Rep>();
  rep->fields = std::move(fields);
  const std::vector<Field>& fs = rep->fields;
  std::string& pool = rep->name_pool;
  // Pass 1: pool the lowercased names so the index slots can reference
  // them as (offset, len) views. A qualified name's unqualified suffix
  // ("l_suppkey" in "l.l_suppkey") shares the same pooled bytes.
  std::vector<uint32_t> offs(fs.size());
  std::vector<uint32_t> lens(fs.size());
  std::size_t total = 0;
  for (const Field& f : fs) total += f.name.size();
  pool.reserve(total);
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const std::string lower = ToLower(fs[i].name);
    offs[i] = static_cast<uint32_t>(pool.size());
    lens[i] = static_cast<uint32_t>(lower.size());
    pool += lower;
  }
  // Pass 2: insert into fixed-capacity tables (load factor <= 0.5).
  const std::size_t cap = Pow2AtLeast(2 * fs.size());
  rep->by_name.slots.assign(cap, NameSlot{});
  rep->by_suffix.slots.assign(cap, NameSlot{});
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const std::string_view key(pool.data() + offs[i], lens[i]);
    rep->by_name.Insert(pool, Hash64(key.data(), key.size()), offs[i],
                        lens[i], static_cast<uint32_t>(i));
    const std::size_t dot = key.rfind('.');
    if (dot != std::string_view::npos) {
      const uint32_t soff = offs[i] + static_cast<uint32_t>(dot) + 1;
      const uint32_t slen = lens[i] - static_cast<uint32_t>(dot) - 1;
      const std::string_view suffix(pool.data() + soff, slen);
      rep->by_suffix.Insert(pool, Hash64(suffix.data(), suffix.size()), soff,
                            slen, static_cast<uint32_t>(i));
    }
  }
  rep_ = std::move(rep);
}

const std::vector<Field>& Schema::fields() const {
  static const std::vector<Field> kNoFields;
  return rep_ ? rep_->fields : kNoFields;
}

Result<std::size_t> Schema::IndexOf(const std::string& name) const {
  // Fast path: an already-lowercase argument (the common case — bound
  // expressions, planner internals) needs no lowercased copy.
  if (!HasUpperAscii(name)) return Lookup(name, name);
  return Lookup(ToLower(name), name);
}

Result<std::size_t> Schema::Lookup(const std::string& key,
                                   const std::string& name) const {
  if (rep_ != nullptr) {
    const uint64_t hash = Hash64(key.data(), key.size());
    const std::string_view pool = rep_->name_pool;
    if (const NameSlot* s = rep_->by_name.Find(pool, hash, key)) {
      if (s->count > 1) {
        return Status::InvalidArgument(
            StrFormat("ambiguous column reference '%s'", name.c_str()));
      }
      return static_cast<std::size_t>(s->first);
    }
    // Unqualified lookup against qualified names: match suffix ".<key>".
    if (const NameSlot* s = rep_->by_suffix.Find(pool, hash, key)) {
      if (s->count > 1) {
        return Status::InvalidArgument(
            StrFormat("ambiguous column reference '%s'", name.c_str()));
      }
      return static_cast<std::size_t>(s->first);
    }
  }
  return Status::NotFound(StrFormat("no column named '%s'", name.c_str()));
}

Schema Schema::Concat(const Schema& right) const {
  std::vector<Field> all = fields();
  all.insert(all.end(), right.fields().begin(), right.fields().end());
  return Schema(std::move(all));
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < num_fields(); ++i) {
    if (i > 0) os << ", ";
    os << field(i).name << ":" << DataTypeToString(field(i).type);
  }
  os << ")";
  return os.str();
}

}  // namespace swift
