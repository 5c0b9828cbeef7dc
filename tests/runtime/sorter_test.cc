#include "runtime/sorter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace sfdf {
namespace {

TEST(SorterTest, SortByKey) {
  std::vector<Record> records = {Record::OfInts(3, 0), Record::OfInts(1, 1),
                                 Record::OfInts(2, 2)};
  SortByKey(&records, KeySpec{0});
  EXPECT_EQ(records[0].GetInt(0), 1);
  EXPECT_EQ(records[1].GetInt(0), 2);
  EXPECT_EQ(records[2].GetInt(0), 3);
}

TEST(SorterTest, ForEachGroupYieldsRuns) {
  std::vector<Record> records = {Record::OfInts(1, 0), Record::OfInts(1, 1),
                                 Record::OfInts(2, 2), Record::OfInts(3, 3),
                                 Record::OfInts(3, 4)};
  std::vector<size_t> group_sizes;
  ForEachGroup(records, KeySpec{0}, [&](const std::vector<Record>& group) {
    group_sizes.push_back(group.size());
  });
  EXPECT_EQ(group_sizes, (std::vector<size_t>{2, 1, 2}));
}

TEST(SorterTest, ForEachGroupEmptyInput) {
  std::vector<Record> records;
  int groups = 0;
  ForEachGroup(records, KeySpec{0},
               [&](const std::vector<Record>&) { ++groups; });
  EXPECT_EQ(groups, 0);
}

TEST(SorterTest, MergeJoinGroupsAlignsKeys) {
  std::vector<Record> left = {Record::OfInts(1, 10), Record::OfInts(3, 30)};
  std::vector<Record> right = {Record::OfInts(1, 100), Record::OfInts(2, 200),
                               Record::OfInts(3, 300),
                               Record::OfInts(3, 301)};
  struct Call {
    size_t left_size;
    size_t right_size;
  };
  std::vector<Call> calls;
  MergeJoinGroups(left, KeySpec{0}, right, KeySpec{0},
                  [&](const std::vector<Record>& l,
                      const std::vector<Record>& r) {
                    calls.push_back({l.size(), r.size()});
                  });
  // key 1: (1,1); key 2: (0,1); key 3: (1,2)
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0].left_size, 1u);
  EXPECT_EQ(calls[0].right_size, 1u);
  EXPECT_EQ(calls[1].left_size, 0u);
  EXPECT_EQ(calls[1].right_size, 1u);
  EXPECT_EQ(calls[2].left_size, 1u);
  EXPECT_EQ(calls[2].right_size, 2u);
}

TEST(SorterTest, MergeJoinHandlesOneEmptySide) {
  std::vector<Record> left = {Record::OfInts(1)};
  std::vector<Record> right;
  int calls = 0;
  MergeJoinGroups(left, KeySpec{0}, right, KeySpec{0},
                  [&](const std::vector<Record>& l,
                      const std::vector<Record>& r) {
                    EXPECT_EQ(l.size(), 1u);
                    EXPECT_TRUE(r.empty());
                    ++calls;
                  });
  EXPECT_EQ(calls, 1);
}

TEST(SorterTest, MergeJoinDifferentKeyPositions) {
  // Left keyed on field 0, right keyed on field 1.
  std::vector<Record> left = {Record::OfInts(5, 0)};
  std::vector<Record> right = {Record::OfInts(0, 5)};
  int calls = 0;
  MergeJoinGroups(left, KeySpec{0}, right, KeySpec{1},
                  [&](const std::vector<Record>& l,
                      const std::vector<Record>& r) {
                    EXPECT_EQ(l.size(), 1u);
                    EXPECT_EQ(r.size(), 1u);
                    ++calls;
                  });
  EXPECT_EQ(calls, 1);
}

// The single-field fast path must agree exactly with the generic CompareKeys
// path, including the raw unsigned order that sorts negative ints after
// positive ones. Records are (a, b, id) with small signed a, b so groups
// form; id identifies a record across orderings.
std::vector<Record> RandomSignedRecords(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Record> records;
  for (int id = 0; id < n; ++id) {
    const int64_t a = static_cast<int64_t>(rng.NextBounded(17)) - 8;
    const int64_t b = static_cast<int64_t>(rng.NextBounded(7)) - 3;
    records.push_back(Record::OfInts(a, b, id));
  }
  return records;
}

/// Raw key image -> ids, ordered like CompareKeys (lexicographic unsigned).
using GroupMap = std::map<std::vector<uint64_t>, std::vector<int64_t>>;

GroupMap ReferenceGroups(const std::vector<Record>& records,
                         const KeySpec& key) {
  GroupMap groups;
  for (const Record& rec : records) {
    std::vector<uint64_t> image;
    for (int i = 0; i < key.num_fields(); ++i) {
      image.push_back(rec.RawField(key.field(i)));
    }
    groups[image].push_back(rec.GetInt(2));
  }
  for (auto& [image, ids] : groups) std::sort(ids.begin(), ids.end());
  return groups;
}

std::vector<int64_t> SortedIds(const std::vector<Record>& group) {
  std::vector<int64_t> ids;
  for (const Record& rec : group) ids.push_back(rec.GetInt(2));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SorterTest, SortAndGroupMatchCompareKeysReference) {
  for (const KeySpec& key : {KeySpec{0}, KeySpec{1}, KeySpec{0, 1}}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      std::vector<Record> sorted = RandomSignedRecords(seed, 500);
      std::vector<Record> reference = sorted;
      SortByKey(&sorted, key);
      std::stable_sort(reference.begin(), reference.end(),
                       [&key](const Record& a, const Record& b) {
                         return CompareKeys(a, key, b, key) < 0;
                       });
      ASSERT_EQ(sorted.size(), reference.size());
      for (size_t i = 0; i < sorted.size(); ++i) {
        ASSERT_EQ(CompareKeys(sorted[i], key, reference[i], key), 0)
            << key.ToString() << " seed " << seed << " at " << i;
      }
      // Unsigned raw order: every negative first field sorts last.
      if (key.field(0) == 0) {
        EXPECT_GE(sorted.front().GetInt(0), 0);
        EXPECT_LT(sorted.back().GetInt(0), 0);
      }
      const GroupMap expected = ReferenceGroups(reference, key);
      auto next = expected.begin();
      ForEachGroup(sorted, key, [&](const std::vector<Record>& group) {
        ASSERT_NE(next, expected.end());
        EXPECT_EQ(SortedIds(group), next->second) << key.ToString();
        ++next;
      });
      EXPECT_EQ(next, expected.end()) << key.ToString();
    }
  }
}

TEST(SorterTest, MergeJoinMatchesCompareKeysReference) {
  // Left keys on (a, b); right holds the same fields swapped, (b, a), so
  // every join also compares different field positions across sides.
  const std::vector<std::pair<KeySpec, KeySpec>> keys = {
      {KeySpec{0}, KeySpec{1}}, {KeySpec{0, 1}, KeySpec{1, 0}}};
  for (const auto& [left_key, right_key] : keys) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      std::vector<Record> left = RandomSignedRecords(seed, 300);
      std::vector<Record> right;
      for (const Record& rec : RandomSignedRecords(seed + 100, 300)) {
        right.push_back(
            Record::OfInts(rec.GetInt(1), rec.GetInt(0), rec.GetInt(2)));
      }
      SortByKey(&left, left_key);
      SortByKey(&right, right_key);
      const GroupMap lgroups = ReferenceGroups(left, left_key);
      const GroupMap rgroups = ReferenceGroups(right, right_key);
      std::map<std::vector<uint64_t>,
               std::pair<std::vector<int64_t>, std::vector<int64_t>>>
          expected;
      for (const auto& [image, ids] : lgroups) expected[image].first = ids;
      for (const auto& [image, ids] : rgroups) expected[image].second = ids;
      auto next = expected.begin();
      MergeJoinGroups(left, left_key, right, right_key,
                      [&](const std::vector<Record>& l,
                          const std::vector<Record>& r) {
                        ASSERT_NE(next, expected.end());
                        EXPECT_EQ(SortedIds(l), next->second.first);
                        EXPECT_EQ(SortedIds(r), next->second.second);
                        ++next;
                      });
      EXPECT_EQ(next, expected.end()) << left_key.ToString();
    }
  }
}

}  // namespace
}  // namespace sfdf
