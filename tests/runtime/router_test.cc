#include "runtime/router.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace sfdf {
namespace {

/// Consumer-side fixture: one exchange per target partition, each with
/// `producers` lanes. Tests that drive a single OutputPort close the unused
/// lanes explicitly (in the executor every lane is owned by a live producer
/// instance that sends its own markers).
struct RouterFixture {
  RouterFixture(int partitions, int producers) : num_producers(producers) {
    for (int p = 0; p < partitions; ++p) {
      exchanges.push_back(std::make_unique<Exchange>(producers));
      targets.push_back(exchanges.back().get());
    }
  }

  /// Sends `kind` on every lane except `active_lane` of every exchange, as
  /// the other producer instances would at end of phase.
  void CloseOtherLanes(int active_lane, MarkerKind kind) {
    for (auto& exchange : exchanges) {
      for (int l = 0; l < num_producers; ++l) {
        if (l == active_lane) continue;
        Envelope envelope;
        envelope.kind = kind;
        exchange->Push(l, std::move(envelope));
      }
    }
  }

  /// Drains everything currently in partition p (after a marker was sent).
  std::vector<Record> Drain(int p, MarkerKind until) {
    std::vector<Record> records;
    exchanges[p]->ReadPhase(until, [&](const RecordBatch& batch) {
      for (const Record& rec : batch) records.push_back(rec);
    });
    return records;
  }

  int num_producers;
  std::vector<std::unique_ptr<Exchange>> exchanges;
  std::vector<Exchange*> targets;
  Metrics metrics;
};

TEST(RouterTest, ForwardStaysInOwnPartition) {
  RouterFixture fx(3, 3);
  OutputPort port(fx.targets, ShipStrategy::kForward, KeySpec{}, 1,
                  &fx.metrics, false);
  port.Send(Record::OfInts(42));
  port.SendMarker(MarkerKind::kEndStream);
  fx.CloseOtherLanes(1, MarkerKind::kEndStream);
  EXPECT_EQ(fx.Drain(0, MarkerKind::kEndStream).size(), 0u);
  EXPECT_EQ(fx.Drain(1, MarkerKind::kEndStream).size(), 1u);
  EXPECT_EQ(fx.Drain(2, MarkerKind::kEndStream).size(), 0u);
  EXPECT_EQ(fx.metrics.records_remote(), 0);
  EXPECT_EQ(fx.metrics.records_shipped(), 1);
}

TEST(RouterTest, HashPartitionGroupsEqualKeys) {
  RouterFixture fx(4, 1);
  OutputPort port(fx.targets, ShipStrategy::kHashPartition, KeySpec{0}, 0,
                  &fx.metrics, false);
  for (int i = 0; i < 100; ++i) {
    port.Send(Record::OfInts(i % 10, i));
  }
  port.SendMarker(MarkerKind::kEndStream);
  // Each key's 10 records land in exactly one partition.
  std::vector<std::vector<Record>> received;
  for (int p = 0; p < 4; ++p) {
    received.push_back(fx.Drain(p, MarkerKind::kEndStream));
  }
  size_t total = 0;
  for (int p = 0; p < 4; ++p) {
    total += received[p].size();
    for (const Record& rec : received[p]) {
      EXPECT_EQ(PartitionOf(rec, KeySpec{0}, 4), p);
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST(RouterTest, BroadcastReplicatesToAll) {
  RouterFixture fx(3, 1);
  OutputPort port(fx.targets, ShipStrategy::kBroadcast, KeySpec{}, 0,
                  &fx.metrics, false);
  port.Send(Record::OfInts(7));
  port.SendMarker(MarkerKind::kEndStream);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(fx.Drain(p, MarkerKind::kEndStream).size(), 1u) << p;
  }
  EXPECT_EQ(fx.metrics.records_shipped(), 3);
  EXPECT_EQ(fx.metrics.records_remote(), 2);  // one copy stays local
}

TEST(RouterTest, CombinerPreAggregates) {
  RouterFixture fx(2, 1);
  CombineFn sum = [](const Record& a, const Record& b) {
    return Record::OfInts(a.GetInt(0), a.GetInt(1) + b.GetInt(1));
  };
  OutputPort port(fx.targets, ShipStrategy::kHashPartition, KeySpec{0}, 0,
                  &fx.metrics, false, sum);
  for (int i = 0; i < 30; ++i) {
    port.Send(Record::OfInts(i % 3, 1));  // 3 keys, 10 records each
  }
  port.SendMarker(MarkerKind::kEndStream);
  std::vector<Record> all;
  for (int p = 0; p < 2; ++p) {
    for (const Record& rec : fx.Drain(p, MarkerKind::kEndStream)) {
      all.push_back(rec);
    }
  }
  // Only 3 combined records were shipped; each carries the full sum.
  ASSERT_EQ(all.size(), 3u);
  for (const Record& rec : all) {
    EXPECT_EQ(rec.GetInt(1), 10);
  }
  EXPECT_EQ(fx.metrics.records_shipped(), 3);
  EXPECT_EQ(fx.metrics.records_combined(), 27);
}

TEST(RouterTest, CombineTableGrowsAndResetsAcrossPhases) {
  // 20k distinct keys force the fold tables to grow many times in the first
  // phase; later phases reuse the grown tables. Every phase must deliver
  // each key once with exactly that phase's sum — an entry surviving a
  // flush would ship twice or inflate the next phase's total.
  const int kKeys = 20000;
  const int kPerKey = 3;
  const int kPhases = 3;
  RouterFixture fx(4, 1);
  CombineFn sum = [](const Record& a, const Record& b) {
    return Record::OfInts(a.GetInt(0), a.GetInt(1) + b.GetInt(1),
                          a.GetInt(2));
  };
  OutputPort port(fx.targets, ShipStrategy::kHashPartition, KeySpec{0}, 0,
                  &fx.metrics, /*in_loop=*/true, sum);
  for (int phase = 0; phase < kPhases; ++phase) {
    for (int rep = 0; rep < kPerKey; ++rep) {
      for (int key = 0; key < kKeys; ++key) {
        port.Send(Record::OfInts(key, phase + 1, phase));
      }
    }
    port.SendMarker(MarkerKind::kEndSuperstep);
    std::vector<int> seen(kKeys, 0);
    for (int p = 0; p < 4; ++p) {
      for (const Record& rec : fx.Drain(p, MarkerKind::kEndSuperstep)) {
        const int64_t key = rec.GetInt(0);
        ASSERT_TRUE(key >= 0 && key < kKeys);
        EXPECT_EQ(PartitionOf(rec, KeySpec{0}, 4), p);
        EXPECT_EQ(rec.GetInt(1), kPerKey * (phase + 1)) << key;
        EXPECT_EQ(rec.GetInt(2), phase) << key;
        ++seen[key];
      }
    }
    for (int key = 0; key < kKeys; ++key) {
      ASSERT_EQ(seen[key], 1) << "phase " << phase << " key " << key;
    }
  }
  EXPECT_EQ(fx.metrics.records_combined(),
            int64_t{kPhases} * kKeys * (kPerKey - 1));
  EXPECT_EQ(fx.metrics.records_shipped(), int64_t{kPhases} * kKeys);
}

TEST(RouterTest, CombinedCountIsExactAcrossThreads) {
  // Four producer instances, each its own combining port on its own lane,
  // share one Metrics as the executor's task threads do. The port-local
  // counts published at each flush must add up exactly.
  const int kThreads = 4;
  const int kPhases = 10;
  const int kKeys = 1000;
  const int kSendsPerPhase = 10000;  // 100k sends per thread
  RouterFixture fx(kThreads, kThreads);
  CombineFn sum = [](const Record& a, const Record& b) {
    return Record::OfInts(a.GetInt(0), a.GetInt(1) + b.GetInt(1));
  };
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&fx, &sum, t] {
      OutputPort port(fx.targets, ShipStrategy::kHashPartition, KeySpec{0}, t,
                      &fx.metrics, /*in_loop=*/true, sum);
      for (int phase = 0; phase < kPhases; ++phase) {
        for (int i = 0; i < kSendsPerPhase; ++i) {
          port.Send(Record::OfInts(i % kKeys, 1));
        }
        port.SendMarker(MarkerKind::kEndSuperstep);
      }
      port.SendMarker(MarkerKind::kEndStream);
    });
  }
  for (std::thread& t : producers) t.join();
  const int64_t folds_per_phase = kSendsPerPhase - kKeys;
  EXPECT_EQ(fx.metrics.records_combined(),
            int64_t{kThreads} * kPhases * folds_per_phase);
  EXPECT_EQ(fx.metrics.records_shipped(), int64_t{kThreads} * kPhases * kKeys);
  for (int phase = 0; phase < kPhases; ++phase) {
    std::map<int64_t, int64_t> totals;
    for (int p = 0; p < kThreads; ++p) {
      for (const Record& rec : fx.Drain(p, MarkerKind::kEndSuperstep)) {
        totals[rec.GetInt(0)] += rec.GetInt(1);
      }
    }
    ASSERT_EQ(totals.size(), static_cast<size_t>(kKeys)) << phase;
    for (const auto& [key, total] : totals) {
      EXPECT_EQ(total, int64_t{kThreads} * (kSendsPerPhase / kKeys)) << key;
    }
  }
}

TEST(RouterTest, LargeVolumeFlushesInBatches) {
  RouterFixture fx(2, 1);
  OutputPort port(fx.targets, ShipStrategy::kHashPartition, KeySpec{0}, 0,
                  &fx.metrics, false);
  const int n = 5000;  // > kDefaultBatchSize: triggers intermediate flushes
  for (int i = 0; i < n; ++i) {
    port.Send(Record::OfInts(i));
  }
  port.SendMarker(MarkerKind::kEndStream);
  size_t total = fx.Drain(0, MarkerKind::kEndStream).size() +
                 fx.Drain(1, MarkerKind::kEndStream).size();
  EXPECT_EQ(total, static_cast<size_t>(n));
  EXPECT_EQ(fx.metrics.records_shipped(), n);
}

TEST(RouterTest, BatchBuffersComeFromTheLanePool) {
  // Across superstep-like cycles of send + flush + drain, the port's batch
  // buffers circulate through the exchange's recycle ring: after the first
  // cycle, acquisitions are pool hits and steady state allocates nothing.
  RouterFixture fx(1, 1);
  OutputPort port(fx.targets, ShipStrategy::kForward, KeySpec{}, 0,
                  &fx.metrics, true);
  const int kCycles = 5;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int i = 0; i < 10; ++i) port.Send(Record::OfInts(cycle, i));
    port.SendMarker(MarkerKind::kEndSuperstep);
    EXPECT_EQ(fx.Drain(0, MarkerKind::kEndSuperstep).size(), 10u);
  }
  const Exchange::Stats stats = fx.exchanges[0]->stats();
  EXPECT_EQ(stats.pool_hits + stats.pool_misses, kCycles);
  EXPECT_EQ(stats.pool_misses, 1);  // only the very first cut allocates
}

TEST(PortsCollectorTest, FansOutToAllPorts) {
  RouterFixture fx1(1, 1);
  RouterFixture fx2(1, 1);
  OutputPort port1(fx1.targets, ShipStrategy::kForward, KeySpec{}, 0,
                   &fx1.metrics, false);
  OutputPort port2(fx2.targets, ShipStrategy::kForward, KeySpec{}, 0,
                   &fx2.metrics, false);
  PortsCollector collector({&port1, &port2});
  collector.Emit(Record::OfInts(1));
  port1.SendMarker(MarkerKind::kEndStream);
  port2.SendMarker(MarkerKind::kEndStream);
  EXPECT_EQ(fx1.Drain(0, MarkerKind::kEndStream).size(), 1u);
  EXPECT_EQ(fx2.Drain(0, MarkerKind::kEndStream).size(), 1u);
}

}  // namespace
}  // namespace sfdf
