// The coordinator's credit counter: the one quiescence detector behind
// barrier-free local rounds and microsteps alike (Section 5.3). Every record
// published into a loop exchange takes a credit before it is visible and
// returns it only after its own children were published, so the counter
// reaches zero exactly when nothing is queued and nobody is processing.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "runtime/superstep.h"

namespace sfdf {
namespace {

/// A coordinator whose gate is never used: only its credit side matters.
std::unique_ptr<SuperstepCoordinator> CreditCounter(int partitions) {
  auto coordinator = std::make_unique<SuperstepCoordinator>(
      1, [](int64_t) { return false; });
  coordinator->EnableBarrierFree(partitions, /*staleness_bound=*/0);
  return coordinator;
}

TEST(QuiescenceCreditsTest, StartupCreditsBlockQuiescence) {
  auto credits = CreditCounter(2);
  EXPECT_FALSE(credits->Quiescent());
  credits->ReleaseStartupCredit();
  EXPECT_FALSE(credits->Quiescent());
  credits->ReleaseStartupCredit();
  EXPECT_TRUE(credits->Quiescent());
}

TEST(QuiescenceCreditsTest, PendingRecordsBlockQuiescence) {
  auto credits = CreditCounter(1);
  credits->CreditEnqueued(1);
  credits->ReleaseStartupCredit();
  EXPECT_FALSE(credits->Quiescent());
  credits->CreditProcessed(1);
  EXPECT_TRUE(credits->Quiescent());
  EXPECT_EQ(credits->records_processed(), 1);
}

TEST(QuiescenceCreditsTest, ConcurrentCounting) {
  constexpr int kThreads = 4;
  constexpr int kBatches = 10000;
  auto credits = CreditCounter(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&credits, t] {
      // Batches of different sizes per thread: credits are counted once
      // per published batch, not once per record.
      const int64_t batch = t + 1;
      for (int i = 0; i < kBatches; ++i) credits->CreditEnqueued(batch);
      for (int i = 0; i < kBatches; ++i) credits->CreditProcessed(batch);
      credits->ReleaseStartupCredit();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(credits->Quiescent());
  EXPECT_EQ(credits->records_processed(), int64_t{kBatches} * (1 + 2 + 3 + 4));
}

TEST(QuiescenceCreditsTest, CascadingWorkStaysVisible) {
  // A record being processed spawns a child before its own credit returns —
  // the counter must never dip to zero in between.
  auto credits = CreditCounter(1);
  credits->CreditEnqueued(1);  // initial record
  credits->ReleaseStartupCredit();
  // Process: publish the child first, then return the parent's credit.
  credits->CreditEnqueued(1);
  credits->CreditProcessed(1);
  EXPECT_FALSE(credits->Quiescent());
  credits->CreditProcessed(1);
  EXPECT_TRUE(credits->Quiescent());
}

TEST(QuiescenceCreditsDeathTest, ReturningMoreCreditsThanTakenAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto credits = CreditCounter(1);
  credits->ReleaseStartupCredit();
  EXPECT_DEATH(credits->CreditProcessed(1), "credit counter went negative");
}

}  // namespace
}  // namespace sfdf
