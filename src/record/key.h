// Key descriptors: which fields of a record form its key. Used for hash
// partitioning, joins, grouping, and the solution-set index (the key k(s)
// that identifies records of the partial solution, Section 5.1).
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "record/record.h"

namespace sfdf {

/// An ordered list of field indices forming a key. Value type, cheap to copy.
class KeySpec {
 public:
  static constexpr int kMaxKeyFields = Record::kMaxFields;

  KeySpec() : count_(0) { fields_.fill(0); }
  KeySpec(std::initializer_list<int> fields) : count_(0) {
    fields_.fill(0);
    for (int f : fields) {
      SFDF_CHECK(count_ < kMaxKeyFields) << "too many key fields";
      SFDF_CHECK(f >= 0 && f < Record::kMaxFields) << "key field out of range";
      fields_[count_++] = static_cast<uint8_t>(f);
    }
  }

  int num_fields() const { return count_; }
  bool empty() const { return count_ == 0; }
  int field(int i) const {
    SFDF_DCHECK(i >= 0 && i < count_);
    return fields_[i];
  }

  bool operator==(const KeySpec& other) const {
    if (count_ != other.count_) return false;
    for (int i = 0; i < count_; ++i) {
      if (fields_[i] != other.fields_[i]) return false;
    }
    return true;
  }

  std::string ToString() const;

 private:
  std::array<uint8_t, kMaxKeyFields> fields_;
  uint8_t count_;
};

/// Hash of the key fields of `rec` under `key`. Stable across the process;
/// the same function drives hash partitioning and hash tables, so a
/// hash-partitioned stream probes local-only tables.
inline uint64_t HashKey(const Record& rec, const KeySpec& key) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < key.num_fields(); ++i) {
    h = HashCombine(h, rec.RawField(key.field(i)));
  }
  return h;
}

/// True iff `a`'s key fields (under `ka`) equal `b`'s key fields (under
/// `kb`). The two key specs must have the same field count.
inline bool KeyEquals(const Record& a, const KeySpec& ka, const Record& b,
                      const KeySpec& kb) {
  SFDF_DCHECK(ka.num_fields() == kb.num_fields());
  for (int i = 0; i < ka.num_fields(); ++i) {
    if (a.RawField(ka.field(i)) != b.RawField(kb.field(i))) return false;
  }
  return true;
}

/// Three-way comparison of key fields, by raw unsigned 64-bit image. Used by
/// sort-based drivers. Returns <0, 0, >0.
inline int CompareKeys(const Record& a, const KeySpec& ka, const Record& b,
                       const KeySpec& kb) {
  SFDF_DCHECK(ka.num_fields() == kb.num_fields());
  for (int i = 0; i < ka.num_fields(); ++i) {
    uint64_t va = a.RawField(ka.field(i));
    uint64_t vb = b.RawField(kb.field(i));
    if (va < vb) return -1;
    if (va > vb) return 1;
  }
  return 0;
}

/// Partition assignment used by every hash-exchange in the runtime: Lemire
/// fast-range, mapping a full 64-bit key hash onto [0, num_partitions) with a
/// multiply + shift instead of the hardware divide that `%` costs on the
/// hot shipping path. The mapping consumes the hash's high bits (scaled
/// uniformly), which leaves the low bits free to pick a slot in a
/// per-partition table keyed by the same hash (the router's combiner).
inline int PartitionOfHash(uint64_t h, int num_partitions) {
  const uint64_t n = static_cast<uint64_t>(num_partitions);
#ifdef __SIZEOF_INT128__
  return static_cast<int>(
      static_cast<uint64_t>((static_cast<unsigned __int128>(h) * n) >> 64));
#else
  // No 128-bit multiply: emulate the high 64 bits of h * n via 32-bit limbs
  // so the assignment is identical on every platform.
  const uint64_t h_lo = h & 0xffffffffULL;
  const uint64_t h_hi = h >> 32;
  const uint64_t n_lo = n & 0xffffffffULL;
  const uint64_t n_hi = n >> 32;
  const uint64_t mid = h_hi * n_lo + ((h_lo * n_lo) >> 32);
  const uint64_t mid2 = h_lo * n_hi + (mid & 0xffffffffULL);
  return static_cast<int>(h_hi * n_hi + (mid >> 32) + (mid2 >> 32));
#endif
}

/// The partition of `rec` under `key`: PartitionOfHash over HashKey, so
/// records with equal key values agree on a partition regardless of field
/// position — the property hash-partitioned streams probing
/// partition-local hash tables rely on.
inline int PartitionOf(const Record& rec, const KeySpec& key,
                       int num_partitions) {
  return PartitionOfHash(HashKey(rec, key), num_partitions);
}

/// One entry of a field-preservation contract: input field `from` is copied
/// unchanged to output field `to` (OutputContracts, paper footnote 3).
struct FieldMapping {
  int from = -1;
  int to = -1;
};

/// Remaps a key over input fields to the corresponding output fields.
/// Returns false if any key field is not preserved by the mapping.
bool RemapKey(const KeySpec& key, const std::vector<FieldMapping>& mapping,
              KeySpec* out);

/// Inverse remap: a key over *output* fields expressed over the input
/// fields, if every key field is produced by the mapping.
bool RemapKeyToInput(const KeySpec& key,
                     const std::vector<FieldMapping>& mapping, KeySpec* out);

}  // namespace sfdf
