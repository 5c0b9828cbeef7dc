// Sort-based grouping helpers used by the Reduce / CoGroup / sort-merge
// drivers. A single-field key — every key the shipped algorithms group on —
// compares its raw field images directly instead of looping in CompareKeys;
// both paths order by the raw unsigned 64-bit image, so they agree exactly.
#pragma once

#include <algorithm>
#include <vector>

#include "record/key.h"
#include "record/record.h"

namespace sfdf {

namespace sorter_internal {

/// Three-way comparison of one key field of `a` against one of `b`.
struct FieldCmp {
  int fa;
  int fb;
  int operator()(const Record& a, const Record& b) const {
    const uint64_t va = a.RawField(fa);
    const uint64_t vb = b.RawField(fb);
    return (va > vb) - (va < vb);
  }
};

/// Three-way comparison of a multi-field key (CompareKeys).
struct KeysCmp {
  const KeySpec& ka;
  const KeySpec& kb;
  int operator()(const Record& a, const Record& b) const {
    return CompareKeys(a, ka, b, kb);
  }
};

template <typename Cmp, typename Fn>
void ForEachGroup(const std::vector<Record>& sorted, Cmp cmp, Fn&& fn) {
  std::vector<Record> group;
  size_t i = 0;
  while (i < sorted.size()) {
    group.clear();
    size_t j = i;
    while (j < sorted.size() && cmp(sorted[i], sorted[j]) == 0) {
      group.push_back(sorted[j]);
      ++j;
    }
    fn(group);
    i = j;
  }
}

/// `lcmp`/`rcmp` compare within one side, `cmp` compares left with right.
template <typename Cmp, typename Fn>
void MergeJoinGroups(const std::vector<Record>& left,
                     const std::vector<Record>& right, Cmp lcmp, Cmp rcmp,
                     Cmp cmp, Fn&& fn) {
  std::vector<Record> lgroup;
  std::vector<Record> rgroup;
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() || j < right.size()) {
    lgroup.clear();
    rgroup.clear();
    int order;
    if (i >= left.size()) {
      order = 1;  // only right remains
    } else if (j >= right.size()) {
      order = -1;  // only left remains
    } else {
      order = cmp(left[i], right[j]);
    }
    if (order <= 0) {
      size_t i2 = i;
      while (i2 < left.size() && lcmp(left[i], left[i2]) == 0) {
        lgroup.push_back(left[i2]);
        ++i2;
      }
      i = i2;
    }
    if (order >= 0) {
      size_t j2 = j;
      while (j2 < right.size() && rcmp(right[j], right[j2]) == 0) {
        rgroup.push_back(right[j2]);
        ++j2;
      }
      j = j2;
    }
    fn(lgroup, rgroup);
  }
}

}  // namespace sorter_internal

/// Sorts records in place by the raw images of their key fields.
inline void SortByKey(std::vector<Record>* records, const KeySpec& key) {
  if (key.num_fields() == 1) {
    const int f = key.field(0);
    std::sort(records->begin(), records->end(),
              [f](const Record& a, const Record& b) {
                return a.RawField(f) < b.RawField(f);
              });
    return;
  }
  std::sort(records->begin(), records->end(),
            [&key](const Record& a, const Record& b) {
              return CompareKeys(a, key, b, key) < 0;
            });
}

/// Calls `fn(group)` for every run of equal-key records in the *sorted*
/// input. `group` is a vector reused across calls.
template <typename Fn>
void ForEachGroup(const std::vector<Record>& sorted, const KeySpec& key,
                  Fn&& fn) {
  if (key.num_fields() == 1) {
    const int f = key.field(0);
    sorter_internal::ForEachGroup(sorted, sorter_internal::FieldCmp{f, f}, fn);
  } else {
    sorter_internal::ForEachGroup(sorted, sorter_internal::KeysCmp{key, key},
                                  fn);
  }
}

/// Merge-joins two *sorted* inputs group-by-group. Calls
/// `fn(left_group, right_group)`; either group may be empty when the key is
/// one-sided (the caller decides whether to skip those — inner semantics).
template <typename Fn>
void MergeJoinGroups(const std::vector<Record>& left, const KeySpec& left_key,
                     const std::vector<Record>& right,
                     const KeySpec& right_key, Fn&& fn) {
  SFDF_DCHECK(left_key.num_fields() == right_key.num_fields());
  using sorter_internal::FieldCmp;
  using sorter_internal::KeysCmp;
  if (left_key.num_fields() == 1) {
    const int fl = left_key.field(0);
    const int fr = right_key.field(0);
    sorter_internal::MergeJoinGroups(left, right, FieldCmp{fl, fl},
                                     FieldCmp{fr, fr}, FieldCmp{fl, fr}, fn);
  } else {
    sorter_internal::MergeJoinGroups(
        left, right, KeysCmp{left_key, left_key}, KeysCmp{right_key, right_key},
        KeysCmp{left_key, right_key}, fn);
  }
}

}  // namespace sfdf
