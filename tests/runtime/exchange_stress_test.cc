// Race-hardening suite for the v2 data plane, written to run under
// ThreadSanitizer (CI's tsan job runs every runtime/ suite). It hammers
// the lock-light paths the unit tests only touch lightly: many producers
// across many phases, skewed marker interleavings, controller-side
// Reset/Seed between emulated session rounds, and the combiner's
// flush-before-marker ordering under a racing consumer.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/exchange.h"
#include "runtime/router.h"

namespace sfdf {
namespace {

TEST(ExchangeStressTest, ManyProducersManyPhases) {
  // 8 producers × 20 supersteps, each superstep tagging its records, with a
  // deliberately skewed per-producer cadence so fast lanes run whole phases
  // ahead of slow ones. Phase isolation must hold regardless.
  const int kProducers = 8;
  const int kPhases = 20;
  const int kPerPhase = 50;
  Exchange exchange(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&exchange, p] {
      for (int phase = 0; phase < kPhases; ++phase) {
        for (int i = 0; i < kPerPhase; ++i) {
          RecordBatch batch = exchange.AcquireBatch(p);
          batch.Add(Record::OfInts(phase, p, i));
          exchange.Push(p, Envelope{MarkerKind::kData, std::move(batch)});
        }
        Envelope marker;
        marker.kind = MarkerKind::kEndSuperstep;
        exchange.Push(p, std::move(marker));
        if (p % 3 == 0) std::this_thread::yield();  // skew the cadence
      }
      Envelope end;
      end.kind = MarkerKind::kEndStream;
      exchange.Push(p, std::move(end));
    });
  }
  for (int phase = 0; phase < kPhases; ++phase) {
    int64_t count = 0;
    exchange.ReadPhase(MarkerKind::kEndSuperstep,
                       [&](const RecordBatch& batch) {
                         for (const Record& rec : batch) {
                           // No record from another phase may leak in.
                           ASSERT_EQ(rec.GetInt(0), phase);
                         }
                         count += static_cast<int64_t>(batch.size());
                       });
    EXPECT_EQ(count, kProducers * kPerPhase) << "phase " << phase;
  }
  exchange.ReadPhase(MarkerKind::kEndStream,
                     [](const RecordBatch&) { FAIL() << "data after end"; });
  for (std::thread& t : producers) t.join();
  // Every data batch was cut through the pool. How many of the producers'
  // acquisitions were hits depends on scheduling (a producer bursting ahead
  // of the consumer finds its returns queue still empty — the buffers it
  // would reuse are queued, unconsumed, in its own lane). Recycling itself
  // does not: the consumer returned each lane's last batch after that
  // lane's producer made its last acquisition, so one more acquisition per
  // lane must hit.
  const Exchange::Stats before = exchange.stats();
  EXPECT_EQ(before.pool_hits + before.pool_misses,
            int64_t{kProducers} * kPhases * kPerPhase);
  for (int p = 0; p < kProducers; ++p) exchange.AcquireBatch(p);
  const Exchange::Stats after = exchange.stats();
  EXPECT_EQ(after.pool_hits, before.pool_hits + kProducers);
  EXPECT_EQ(after.pool_hits + after.pool_misses,
            int64_t{kProducers} * kPhases * kPerPhase + kProducers);
}

TEST(ExchangeStressTest, ResetSeedAcrossSessionRounds) {
  // Emulates a session's W_0 port lifecycle: a cold round where the real
  // producer threads feed one terminated stream against a racing consumer,
  // then many warm rounds in which the controller (this thread, after the
  // joins — the stand-in for the round gate's quiescence) asserts every
  // lane drained, reseeds, and the consumer reads the seeded phase. Each
  // Seed must reopen the lanes the previous phase's kEndStream closed.
  const int kProducers = 4;
  const int kWarmRounds = 50;
  Exchange exchange(kProducers);

  std::vector<std::thread> workers;
  std::atomic<int64_t> consumed{0};
  for (int p = 0; p < kProducers; ++p) {
    workers.emplace_back([&exchange, p] {
      for (int i = 0; i < 50; ++i) {
        RecordBatch batch = exchange.AcquireBatch(p);
        batch.Add(Record::OfInts(p, i));
        exchange.Push(p, Envelope{MarkerKind::kData, std::move(batch)});
      }
      Envelope end;
      end.kind = MarkerKind::kEndStream;
      exchange.Push(p, std::move(end));
    });
  }
  std::thread consumer([&exchange, &consumed] {
    exchange.ReadPhase(MarkerKind::kEndStream, [&](const RecordBatch& batch) {
      consumed.fetch_add(static_cast<int64_t>(batch.size()),
                         std::memory_order_relaxed);
    });
  });
  for (std::thread& t : workers) t.join();
  consumer.join();
  EXPECT_EQ(consumed.load(), kProducers * 50);

  for (int round = 0; round < kWarmRounds; ++round) {
    ASSERT_EQ(exchange.Reset(), 0u) << "round " << round;
    RecordBatch seed;
    seed.Add(Record::OfInts(-round));
    exchange.Seed(std::move(seed));
    int64_t seeded = 0;
    exchange.ReadPhase(MarkerKind::kEndStream, [&](const RecordBatch& batch) {
      for (const Record& rec : batch) {
        EXPECT_EQ(rec.GetInt(0), -round);
        ++seeded;
      }
    });
    EXPECT_EQ(seeded, 1) << "round " << round;
  }
}

TEST(ExchangeStressTest, ControllerTakesOverLanesFromLiveProducers) {
  // The session handoff in its rawest form: W_0 source producers finish
  // their stream but are NOT joined (in the executor they stay alive until
  // Finish); the controller's only ordering with them is the exchange
  // itself — the consumer drained their end-of-stream markers, and
  // Reset/Seed acquire each lane's producer state on entry. Pushing > 64
  // envelopes per lane forces segment growth, so the producer-owned tail
  // pointer the controller takes over is NOT its initial value. TSan
  // validates the handoff edge.
  const int kProducers = 4;
  const int kPerProducer = 200;  // several segments per lane
  Exchange exchange(kProducers);
  std::atomic<bool> release_producers{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&exchange, &release_producers, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        RecordBatch batch = exchange.AcquireBatch(p);
        batch.Add(Record::OfInts(p, i));
        exchange.Push(p, Envelope{MarkerKind::kData, std::move(batch)});
      }
      Envelope end;
      end.kind = MarkerKind::kEndStream;
      exchange.Push(p, std::move(end));
      // Stay alive (idle) while the controller reuses our lanes.
      while (!release_producers.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  int64_t drained = 0;
  std::thread consumer([&exchange, &drained] {
    exchange.ReadPhase(MarkerKind::kEndStream, [&](const RecordBatch& batch) {
      drained += static_cast<int64_t>(batch.size());
    });
  });
  consumer.join();
  EXPECT_EQ(drained, kProducers * kPerProducer);

  // Producers are quiescent but alive; the controller (this thread) now
  // owns every lane — including pushing enough seed rounds to grow the
  // very segments the producers' tail pointers referenced.
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(exchange.Reset(), 0u);
    RecordBatch seed = exchange.AcquireBatch(0);
    seed.Add(Record::OfInts(round));
    exchange.Seed(std::move(seed));
    int64_t seeded = 0;
    exchange.ReadPhase(MarkerKind::kEndStream,
                       [&](const RecordBatch& batch) {
                         seeded += static_cast<int64_t>(batch.size());
                       });
    EXPECT_EQ(seeded, 1);
  }
  release_producers.store(true, std::memory_order_release);
  for (std::thread& t : producers) t.join();
}

TEST(ExchangeStressTest, AbandonedEnvelopesAreDroppedByReset) {
  // A round stopping at its iteration cap can leave seeds queued; Reset
  // must count and drop them all, across every lane, so the session can
  // detect (and refuse) an undrained reseed.
  const int kProducers = 3;
  Exchange exchange(kProducers);
  std::vector<std::thread> workers;
  for (int p = 0; p < kProducers; ++p) {
    workers.emplace_back([&exchange, p] {
      for (int i = 0; i < 100; ++i) {
        RecordBatch batch = exchange.AcquireBatch(p);
        batch.Add(Record::OfInts(p, i));
        exchange.Push(p, Envelope{MarkerKind::kData, std::move(batch)});
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(exchange.Reset(), static_cast<size_t>(kProducers) * 100);
  EXPECT_EQ(exchange.Reset(), 0u);
}

TEST(ExchangeStressTest, CombinerFlushesBeforeMarkerAcrossPhases) {
  // A producer thread drives an OutputPort with a combiner through many
  // supersteps while the consumer reads phase by phase: every phase must
  // deliver its fully combined records strictly before its marker (a
  // combined record arriving after the marker would leak into — and
  // corrupt — the next superstep's aggregate).
  const int kPhases = 50;
  const int kKeys = 5;
  const int kPerKey = 8;
  Exchange exchange(1);
  CombineFn sum = [](const Record& a, const Record& b) {
    return Record::OfInts(a.GetInt(0), a.GetInt(1) + b.GetInt(1), 0);
  };
  Metrics metrics;
  std::thread producer([&] {
    OutputPort port({&exchange}, ShipStrategy::kHashPartition, KeySpec{0}, 0,
                    &metrics, /*in_loop=*/true, sum);
    for (int phase = 0; phase < kPhases; ++phase) {
      for (int i = 0; i < kKeys * kPerKey; ++i) {
        port.Send(Record::OfInts(i % kKeys, 1, phase));
      }
      port.SendMarker(MarkerKind::kEndSuperstep);
    }
    port.SendMarker(MarkerKind::kEndStream);
  });
  for (int phase = 0; phase < kPhases; ++phase) {
    int records = 0;
    exchange.ReadPhase(MarkerKind::kEndSuperstep,
                       [&](const RecordBatch& batch) {
                         for (const Record& rec : batch) {
                           ++records;
                           // Fully combined: the whole key's phase total.
                           ASSERT_EQ(rec.GetInt(1), kPerKey);
                         }
                       });
    EXPECT_EQ(records, kKeys) << "phase " << phase;
  }
  exchange.ReadPhase(MarkerKind::kEndStream,
                     [](const RecordBatch&) { FAIL() << "data after end"; });
  producer.join();
}

TEST(ExchangeStressTest, ParkedConsumerAlwaysWakes) {
  // Slow trickle from many producers: the consumer repeatedly exhausts the
  // lanes and parks; every push must ring the bell (the Dekker handshake in
  // WaitForWork/WakeConsumer). A missed wake-up hangs this test.
  const int kProducers = 8;
  const int kPerProducer = 200;
  Exchange exchange(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&exchange, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        RecordBatch batch = exchange.AcquireBatch(p);
        batch.Add(Record::OfInts(p, i));
        exchange.Push(p, Envelope{MarkerKind::kData, std::move(batch)});
        if (i % 16 == 0) std::this_thread::yield();
      }
      Envelope end;
      end.kind = MarkerKind::kEndStream;
      exchange.Push(p, std::move(end));
    });
  }
  int64_t total = 0;
  exchange.ReadPhase(MarkerKind::kEndStream, [&](const RecordBatch& batch) {
    total += static_cast<int64_t>(batch.size());
  });
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(total, kProducers * kPerProducer);
}

TEST(ExchangeStressTest, ProducersRaceABarrierFreeConsumer) {
  // TSan witness for partial-phase lane reads (the async execution mode):
  // producers push with no phase discipline while the consumer polls
  // DrainOpen mid-stream. Every record must arrive exactly once, in
  // per-lane FIFO order, and each lane must end Closed once its final
  // kEndStream is consumed.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  Exchange exchange(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&exchange, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Envelope envelope;
        envelope.kind = MarkerKind::kData;
        envelope.batch = RecordBatch({Record::OfInts(p, i)});
        exchange.Push(p, std::move(envelope));
      }
      Envelope end;
      end.kind = MarkerKind::kEndStream;
      exchange.Push(p, std::move(end));
    });
  }

  int64_t total = 0;
  std::vector<int64_t> next(kProducers, 0);
  auto all_closed = [&exchange] {
    for (int p = 0; p < kProducers; ++p) {
      if (exchange.lane_state(p) != Exchange::LaneState::kClosed) {
        return false;
      }
    }
    return true;
  };
  // A lane turns kClosed only after DrainOpen consumed its kEndStream,
  // which FIFO orders after every record of that lane — so once all lanes
  // read closed, everything was delivered.
  while (!all_closed()) {
    total += exchange.DrainOpen([&next](const RecordBatch& batch) {
      for (const Record& rec : batch) {
        const int64_t p = rec.GetInt(0);
        EXPECT_EQ(rec.GetInt(1), next[static_cast<size_t>(p)]++);
      }
    });
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(total, static_cast<int64_t>(kProducers) * kPerProducer);
}

}  // namespace
}  // namespace sfdf
