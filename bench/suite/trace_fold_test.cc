// Unit tests of the suite's trace fold on synthetic event lists: nesting,
// partial overlap, cross-thread independence, window dedup and laps.
#include "trace_fold.h"

#include <gtest/gtest.h>

namespace sfdf {
namespace suite {
namespace {

trace::TraceEvent Span(uint32_t tid, const char* name, int64_t ts,
                       int64_t end) {
  trace::TraceEvent event;
  event.name = name;
  event.tid = tid;
  event.ts_ns = ts;
  event.dur_ns = end - ts;
  return event;
}

trace::TraceEvent Instant(uint32_t tid, const char* name, int64_t ts) {
  trace::TraceEvent event;
  event.name = name;
  event.tid = tid;
  event.ts_ns = ts;
  return event;
}

TEST(TraceFoldTest, NestedSpansSubtractDirectChildrenOnly) {
  TraceCollector trace;
  trace.AddWindow({Span(1, "job", 0, 100), Span(1, "mid", 10, 40),
                   Span(1, "leaf", 20, 30), Span(1, "mid", 50, 70),
                   Instant(1, "mark", 25)});
  auto folded = FoldSelfTime(trace);
  EXPECT_EQ(folded["job"].self_ns, 100 - 30 - 20);
  EXPECT_EQ(folded["mid"].count, 2);
  EXPECT_EQ(folded["mid"].total_ns, 50);
  EXPECT_EQ(folded["mid"].self_ns, 30 + 20 - 10);
  EXPECT_EQ(folded["leaf"].self_ns, 10);
  EXPECT_EQ(folded.count("mark"), 0u);  // instants carry no time
}

TEST(TraceFoldTest, PartialOverlapIsASiblingAndCoverageIsAUnion) {
  TraceCollector trace;
  // b ends inside c, so c cannot be b's child; both are children of a, and
  // a's covered part is the union [10, 80), not 50 + 30.
  trace.AddWindow({Span(1, "a", 0, 100), Span(1, "b", 10, 60),
                   Span(1, "c", 50, 80)});
  auto folded = FoldSelfTime(trace);
  EXPECT_EQ(folded["a"].self_ns, 30);
  EXPECT_EQ(folded["b"].self_ns, 50);
  EXPECT_EQ(folded["c"].self_ns, 30);
}

TEST(TraceFoldTest, SpansOnOtherThreadsAreNeverChildren) {
  TraceCollector trace;
  trace.AddWindow({Span(1, "job", 0, 100), Span(2, "task", 10, 50),
                   Span(2, "task", 60, 90)});
  auto folded = FoldSelfTime(trace);
  EXPECT_EQ(folded["job"].self_ns, 100);
  EXPECT_EQ(folded["task"].self_ns, 70);
  EXPECT_EQ(folded["task"].durations_ns.size(), 2u);
}

TEST(TraceFoldTest, OverlappingWindowsAreDeduplicated) {
  TraceCollector trace(/*ring_capacity=*/64);
  trace.AddWindow({Span(1, "x", 0, 1), Span(1, "x", 1, 2)});
  trace.AddWindow({Span(1, "x", 0, 1), Span(1, "x", 1, 2), Span(1, "x", 2, 3),
                   Span(2, "y", 0, 5)});
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(FoldSelfTime(trace)["x"].count, 3);
  EXPECT_EQ(trace.lapped_windows(), 0);
}

TEST(TraceFoldTest, FullRingPastTheWatermarkCountsAsLapped) {
  const size_t capacity = 8;
  TraceCollector trace(capacity);
  auto ring = [](int64_t first_end) {
    std::vector<trace::TraceEvent> events;
    for (int64_t end = first_end; end < first_end + 8; ++end) {
      events.push_back(Instant(1, "tick", end));
    }
    return events;
  };
  trace.AddWindow({Instant(1, "tick", 1), Instant(1, "tick", 2),
                   Instant(1, "tick", 3), Instant(1, "tick", 4)});
  EXPECT_EQ(trace.lapped_windows(), 0);
  // Full, but still overlapping what was seen: nothing was lost.
  trace.AddWindow(ring(3));
  EXPECT_EQ(trace.lapped_windows(), 0);
  // Full and entirely newer than the watermark (10): 11..19 were lost.
  trace.AddWindow(ring(20));
  EXPECT_EQ(trace.lapped_windows(), 1);
  EXPECT_EQ(trace.events().size(), 4u + 6u + 8u);
}

}  // namespace
}  // namespace suite
}  // namespace sfdf
