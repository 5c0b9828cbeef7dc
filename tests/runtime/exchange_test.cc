#include "runtime/exchange.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace sfdf {
namespace {

Envelope DataEnvelope(std::vector<Record> records) {
  Envelope envelope;
  envelope.kind = MarkerKind::kData;
  envelope.batch = RecordBatch(std::move(records));
  return envelope;
}

Envelope Marker(MarkerKind kind) {
  Envelope envelope;
  envelope.kind = kind;
  return envelope;
}

std::vector<int64_t> DrainInts(Exchange& exchange, MarkerKind until) {
  std::vector<int64_t> seen;
  exchange.ReadPhase(until, [&](const RecordBatch& batch) {
    for (const Record& rec : batch) seen.push_back(rec.GetInt(0));
  });
  return seen;
}

TEST(ExchangeTest, FifoDeliveryWithinLane) {
  Exchange exchange(1);
  exchange.Push(0, DataEnvelope({Record::OfInts(1)}));
  exchange.Push(0, DataEnvelope({Record::OfInts(2)}));
  exchange.Push(0, Marker(MarkerKind::kEndStream));
  EXPECT_EQ(DrainInts(exchange, MarkerKind::kEndStream),
            (std::vector<int64_t>{1, 2}));
}

TEST(ExchangeTest, ReadPhaseWaitsForAllLanes) {
  Exchange exchange(3);
  std::vector<int64_t> seen;
  std::thread producer([&exchange] {
    for (int p = 0; p < 3; ++p) {
      exchange.Push(p, DataEnvelope({Record::OfInts(p)}));
      exchange.Push(p, Marker(MarkerKind::kEndStream));
    }
  });
  seen = DrainInts(exchange, MarkerKind::kEndStream);
  producer.join();
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ExchangeTest, MarkerAccountingIsPerLane) {
  // Two markers down one lane must NOT satisfy a two-lane phase: the
  // second lane still owes its marker. The v1 single-queue channel could
  // not make this distinction.
  Exchange exchange(2);
  exchange.Push(0, Marker(MarkerKind::kEndSuperstep));
  exchange.Push(0, Marker(MarkerKind::kEndSuperstep));  // lane 0, NEXT phase
  exchange.Push(1, DataEnvelope({Record::OfInts(7)}));
  exchange.Push(1, Marker(MarkerKind::kEndSuperstep));
  EXPECT_EQ(DrainInts(exchange, MarkerKind::kEndSuperstep),
            (std::vector<int64_t>{7}));
  // Lane 0's surplus marker was preserved for the next phase.
  exchange.Push(1, Marker(MarkerKind::kEndSuperstep));
  EXPECT_TRUE(DrainInts(exchange, MarkerKind::kEndSuperstep).empty());
}

TEST(ExchangeTest, EndStreamSubstitutesForEndSuperstepAndClosesLane) {
  // A producer that leaves the loop ends every later phase with its final
  // end-of-stream marker: the lane stays closed across phases.
  Exchange exchange(2);
  exchange.Push(0, Marker(MarkerKind::kEndSuperstep));
  exchange.Push(1, Marker(MarkerKind::kEndStream));
  EXPECT_TRUE(DrainInts(exchange, MarkerKind::kEndSuperstep).empty());
  // Next superstep: only lane 0 owes a marker; lane 1 is closed.
  exchange.Push(0, DataEnvelope({Record::OfInts(3)}));
  exchange.Push(0, Marker(MarkerKind::kEndSuperstep));
  EXPECT_EQ(DrainInts(exchange, MarkerKind::kEndSuperstep),
            (std::vector<int64_t>{3}));
}

TEST(ExchangeTest, ConcurrentProducersOnDistinctLanes) {
  const int kProducers = 4;
  const int kPerProducer = 1000;
  Exchange exchange(kProducers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&exchange, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        exchange.Push(p, DataEnvelope({Record::OfInts(p, i)}));
      }
      exchange.Push(p, Marker(MarkerKind::kEndStream));
    });
  }
  int64_t total = 0;
  exchange.ReadPhase(MarkerKind::kEndStream, [&](const RecordBatch& batch) {
    total += static_cast<int64_t>(batch.size());
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(ExchangeTest, LaneFifoSurvivesSegmentGrowth) {
  // Push far past one ring segment so the lane links several segments; the
  // per-lane order must hold across the seams.
  const int kEnvelopes = 1000;
  Exchange exchange(1);
  for (int i = 0; i < kEnvelopes; ++i) {
    exchange.Push(0, DataEnvelope({Record::OfInts(i)}));
  }
  exchange.Push(0, Marker(MarkerKind::kEndStream));
  std::vector<int64_t> seen = DrainInts(exchange, MarkerKind::kEndStream);
  ASSERT_EQ(seen.size(), static_cast<size_t>(kEnvelopes));
  for (int i = 0; i < kEnvelopes; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ExchangeTest, MultipleSuperstepPhases) {
  Exchange exchange(1);
  for (int superstep = 0; superstep < 3; ++superstep) {
    exchange.Push(0, DataEnvelope({Record::OfInts(superstep)}));
    exchange.Push(0, Marker(MarkerKind::kEndSuperstep));
  }
  for (int superstep = 0; superstep < 3; ++superstep) {
    std::vector<int64_t> seen =
        DrainInts(exchange, MarkerKind::kEndSuperstep);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], superstep);
  }
}

TEST(ExchangeTest, SeedReopensADrainedExchange) {
  // A service session re-feeds an iteration head's external port between
  // rounds: each Seed is one complete, already-terminated production phase,
  // even after a previous phase closed every lane with kEndStream.
  Exchange exchange(3);
  for (int round = 0; round < 2; ++round) {
    RecordBatch batch;
    batch.Add(Record::OfInts(round));
    exchange.Seed(std::move(batch));
    std::vector<int64_t> seen = DrainInts(exchange, MarkerKind::kEndStream);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], round);
  }
  // An empty seed is a pure end-of-stream (an empty warm workset).
  exchange.Seed(RecordBatch());
  EXPECT_TRUE(DrainInts(exchange, MarkerKind::kEndStream).empty());
}

TEST(ExchangeTest, ResetDropsQueuedEnvelopesAcrossLanes) {
  Exchange exchange(2);
  exchange.Push(0, DataEnvelope({Record::OfInts(1)}));
  exchange.Push(0, Marker(MarkerKind::kEndStream));
  exchange.Push(1, DataEnvelope({Record::OfInts(2)}));
  EXPECT_EQ(exchange.Reset(), 3u);
  EXPECT_EQ(exchange.Reset(), 0u);
  // The exchange is reusable afterwards.
  exchange.Seed(RecordBatch());
  EXPECT_TRUE(DrainInts(exchange, MarkerKind::kEndStream).empty());
}

TEST(ExchangeTest, BatchPoolRecyclesRetiredBuffers) {
  Exchange exchange(1);
  // First acquisition cannot be served from the (empty) pool.
  RecordBatch first = exchange.AcquireBatch(0);
  for (int i = 0; i < 100; ++i) first.Add(Record::OfInts(i));
  const size_t grown_capacity = first.records().capacity();
  exchange.Push(0, Envelope{MarkerKind::kData, std::move(first)});
  exchange.Push(0, Marker(MarkerKind::kEndStream));
  DrainInts(exchange, MarkerKind::kEndStream);  // recycles the batch
  // The retired buffer now comes back empty, its grown capacity intact.
  RecordBatch second = exchange.AcquireBatch(0);
  EXPECT_TRUE(second.empty());
  EXPECT_GE(second.records().capacity(), grown_capacity);
  const Exchange::Stats stats = exchange.stats();
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.pool_misses, 1);
}

TEST(ExchangeTest, BatchPoolKeepsAtMostTheBoundPerLane) {
  // A burst of 100 batches retires 100 buffers at once; the lane keeps only
  // kMaxPooledBatches of them and frees the rest.
  Exchange exchange(1);
  for (int i = 0; i < 100; ++i) {
    exchange.Push(0, DataEnvelope({Record::OfInts(i)}));
  }
  exchange.Push(0, Marker(MarkerKind::kEndStream));
  EXPECT_EQ(DrainInts(exchange, MarkerKind::kEndStream).size(), 100u);
  for (int i = 0; i < 100; ++i) exchange.AcquireBatch(0);
  const Exchange::Stats stats = exchange.stats();
  const int64_t bound = static_cast<int64_t>(Exchange::kMaxPooledBatches);
  EXPECT_EQ(stats.pool_hits, bound);
  EXPECT_EQ(stats.pool_misses, 100 - bound);
}

TEST(ExchangeTest, LaneStateDistinguishesOpenEmptyFromClosed) {
  // The barrier-free consumer contract: an empty lane is only *finished*
  // when its producer closed it — "open but currently empty" means more
  // data may still arrive, so a quiescence vote must account for the
  // producer, not just the queue.
  Exchange exchange(2);
  EXPECT_EQ(exchange.lane_state(0), Exchange::LaneState::kOpenEmpty);
  EXPECT_EQ(exchange.lane_state(1), Exchange::LaneState::kOpenEmpty);
  EXPECT_FALSE(exchange.HasQueued());

  exchange.Push(0, DataEnvelope({Record::OfInts(1)}));
  exchange.Push(1, Marker(MarkerKind::kEndStream));
  // Queued envelopes — data or the closing marker — make a lane readable.
  EXPECT_EQ(exchange.lane_state(0), Exchange::LaneState::kReadable);
  EXPECT_EQ(exchange.lane_state(1), Exchange::LaneState::kReadable);
  EXPECT_TRUE(exchange.HasQueued());

  std::vector<int64_t> seen;
  exchange.DrainOpen([&](const RecordBatch& batch) {
    for (const Record& rec : batch) seen.push_back(rec.GetInt(0));
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{1}));
  // After the drain the states diverge: lane 0 may produce again, lane 1
  // ended for good.
  EXPECT_EQ(exchange.lane_state(0), Exchange::LaneState::kOpenEmpty);
  EXPECT_EQ(exchange.lane_state(1), Exchange::LaneState::kClosed);
  EXPECT_FALSE(exchange.HasQueued());

  exchange.Push(0, DataEnvelope({Record::OfInts(2)}));
  EXPECT_EQ(exchange.lane_state(0), Exchange::LaneState::kReadable);
}

TEST(ExchangeTest, DrainOpenReturnsImmediatelyMidPhase) {
  // Unlike ReadPhase, DrainOpen never waits for markers: it delivers what
  // is currently published, reports the record count, and an empty
  // exchange yields zero instead of blocking.
  Exchange exchange(2);
  std::vector<int64_t> seen;
  auto take = [&](const RecordBatch& batch) {
    for (const Record& rec : batch) seen.push_back(rec.GetInt(0));
  };
  EXPECT_EQ(exchange.DrainOpen(take), 0);
  exchange.Push(0, DataEnvelope({Record::OfInts(1), Record::OfInts(2)}));
  EXPECT_EQ(exchange.DrainOpen(take), 2);
  EXPECT_EQ(exchange.DrainOpen(take), 0);
  exchange.Push(1, DataEnvelope({Record::OfInts(3)}));
  EXPECT_EQ(exchange.DrainOpen(take), 1);
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2, 3}));
}

TEST(ExchangeTest, DrainToSalvagesQueuedRecords) {
  Exchange exchange(2);
  exchange.Push(0, DataEnvelope({Record::OfInts(1)}));
  exchange.Push(1, DataEnvelope({Record::OfInts(2)}));
  exchange.Push(1, Marker(MarkerKind::kEndStream));
  std::vector<Record> out;
  EXPECT_EQ(exchange.DrainTo(&out), 2u);
  ASSERT_EQ(out.size(), 2u);
  // Markers were dropped along with the queue: nothing left to Reset.
  EXPECT_EQ(exchange.Reset(), 0u);
}

TEST(ExchangeTest, CopyToReadsQueuedDataWithoutConsuming) {
  // The checkpoint's read of a pending workset phase: a quiescent-only copy
  // that skips markers and leaves every envelope queued for the consumer.
  Exchange exchange(2);
  // A phase the consumer already drained, so the copy starts mid-segment.
  exchange.Push(0, DataEnvelope({Record::OfInts(-1)}));
  exchange.Push(0, Marker(MarkerKind::kEndSuperstep));
  exchange.Push(1, Marker(MarkerKind::kEndSuperstep));
  DrainInts(exchange, MarkerKind::kEndSuperstep);
  // The pending phase; lane 0 now spans more than one ring segment.
  std::vector<int64_t> expected;
  for (int i = 0; i < 100; ++i) {
    exchange.Push(0, DataEnvelope({Record::OfInts(i)}));
    expected.push_back(i);
  }
  exchange.Push(1, DataEnvelope({Record::OfInts(100), Record::OfInts(101)}));
  expected.push_back(100);
  expected.push_back(101);
  exchange.Push(0, Marker(MarkerKind::kEndSuperstep));
  exchange.Push(1, Marker(MarkerKind::kEndSuperstep));

  std::vector<Record> copy;
  EXPECT_EQ(exchange.CopyTo(&copy), expected.size());
  std::vector<int64_t> copied;
  for (const Record& rec : copy) copied.push_back(rec.GetInt(0));
  EXPECT_EQ(copied, expected);
  // Nothing was consumed: the next phase read sees the same records, and
  // then the lanes are empty.
  ASSERT_EQ(exchange.lane_state(0), Exchange::LaneState::kReadable);
  ASSERT_EQ(exchange.lane_state(1), Exchange::LaneState::kReadable);
  EXPECT_EQ(DrainInts(exchange, MarkerKind::kEndSuperstep), expected);
  EXPECT_EQ(exchange.Reset(), 0u);
}

TEST(ExchangeTest, StatsTrackQueueDepthHighWater) {
  Exchange exchange(2);
  for (int i = 0; i < 5; ++i) {
    exchange.Push(0, DataEnvelope({Record::OfInts(i)}));
  }
  exchange.Push(0, Marker(MarkerKind::kEndStream));
  exchange.Push(1, Marker(MarkerKind::kEndStream));
  EXPECT_EQ(exchange.stats().depth_high_water, 6);  // 5 data + 1 marker
  DrainInts(exchange, MarkerKind::kEndStream);
  // Draining never lowers the high-water mark.
  EXPECT_EQ(exchange.stats().depth_high_water, 6);
}

}  // namespace
}  // namespace sfdf
