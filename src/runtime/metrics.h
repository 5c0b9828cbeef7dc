// Execution metrics. Exchange routers count every record that enters an
// exchange; records that cross partition boundaries count additionally as
// "remote" — the stand-in for the paper's network messages (Figures 10/12
// plot "messages sent"). The exchange-health counters (queue-depth
// high-water mark, batch-pool hits/misses) are aggregated from every
// exchange's per-lane stats when a run or session is assembled.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>

namespace sfdf {

/// Lock-free max-fold: raises `target` to at least `value`. The CAS loop
/// terminates because a failed exchange reloads `seen`, and the loop exits
/// as soon as `seen >= value` (some other thread folded an equal or larger
/// value). Relaxed ordering — high-water marks are advisory counters, not
/// synchronization points.
inline void FoldMax(std::atomic<int64_t>& target, int64_t value) {
  int64_t seen = target.load(std::memory_order_relaxed);
  while (value > seen &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Compact log-scale latency histogram: four linear sub-buckets per
/// power-of-two octave of microseconds (HDR-histogram style), so quantile
/// estimates carry at most ~12% relative error while the whole state is a
/// few hundred bytes — safe to keep per resident service for its entire
/// lifetime (a sample vector would grow without bound). Not thread-safe;
/// callers serialize (the serving layer records under its state lock).
class LatencyHistogram {
 public:
  void Record(double millis) {
    int64_t us = static_cast<int64_t>(millis * 1000.0);
    if (us < 0) us = 0;
    int idx = BucketOf(us);
    if (idx >= kBuckets) idx = kBuckets - 1;
    buckets_[idx] += 1;
    ++count_;
  }

  int64_t count() const { return count_; }

  /// Quantile estimate in milliseconds, q in [0, 1]; 0 when empty. Returns
  /// the midpoint of the bucket holding the q-th sample.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_ - 1));
    int64_t seen = 0;
    for (int idx = 0; idx < kBuckets; ++idx) {
      seen += buckets_[idx];
      if (seen > rank) return BucketMidUs(idx) / 1000.0;
    }
    return BucketMidUs(kBuckets - 1) / 1000.0;
  }

 private:
  static constexpr int kSub = 4;       // linear sub-buckets per octave
  static constexpr int kOctaves = 40;  // covers > 12 days in microseconds
  static constexpr int kBuckets = kSub * kOctaves;

  static int BucketOf(int64_t us) {
    if (us < kSub) return static_cast<int>(us);  // exact for tiny values
    int octave = std::bit_width(static_cast<uint64_t>(us)) - 1;
    int sub = static_cast<int>((us >> (octave - 2)) & (kSub - 1));
    return octave * kSub + sub;
  }

  static double BucketMidUs(int idx) {
    if (idx < kSub) return static_cast<double>(idx);
    const int octave = idx / kSub;
    const int sub = idx % kSub;
    const double lo = static_cast<double>(int64_t{1} << octave) +
                      static_cast<double>(sub) *
                          static_cast<double>(int64_t{1} << (octave - 2));
    const double width = static_cast<double>(int64_t{1} << (octave - 2));
    return lo + width / 2.0;
  }

  int64_t buckets_[kBuckets] = {};
  int64_t count_ = 0;
};

/// Run-wide shipping counters. One instance is shared by every task thread
/// of a run, and each counter is one relaxed atomic on a shared cache line:
/// count once per batch or flush, never per record.
class Metrics {
 public:
  void CountShipped(int64_t records, int64_t bytes, int64_t remote_records) {
    records_shipped_.fetch_add(records, std::memory_order_relaxed);
    bytes_shipped_.fetch_add(bytes, std::memory_order_relaxed);
    records_remote_.fetch_add(remote_records, std::memory_order_relaxed);
  }

  void CountCombined(int64_t records_absorbed) {
    records_combined_.fetch_add(records_absorbed, std::memory_order_relaxed);
  }

  /// Folds one exchange's queue-depth high-water mark (envelopes) into the
  /// run-wide maximum.
  void RecordQueueDepth(int64_t high_water) {
    FoldMax(queue_depth_high_water_, high_water);
  }

  /// Accumulates batch-pool acquisition outcomes (recycled vs fresh).
  void CountBatchPool(int64_t hits, int64_t misses) {
    batch_pool_hits_.fetch_add(hits, std::memory_order_relaxed);
    batch_pool_misses_.fetch_add(misses, std::memory_order_relaxed);
  }

  /// Pipelined-region flow control: an output-port flush transitioning
  /// from flowing to stalled (bounded lane at capacity) counts one stall;
  /// a producer task re-enqueueing itself because its outputs stayed
  /// stalled counts one yield. Retry attempts within one stall don't
  /// re-count — the pair measures how often backpressure engaged and how
  /// much producer time it displaced.
  void CountBackpressureStall(int64_t stalls) {
    backpressure_stalls_.fetch_add(stalls, std::memory_order_relaxed);
  }
  void CountProducerYield(int64_t yields) {
    producer_yields_.fetch_add(yields, std::memory_order_relaxed);
  }

  /// Accumulates one exchange's peak resident ring segments (an upper
  /// bound — per-lane high-water marks need not have coincided).
  void AddPeakResidentSegments(int64_t segments) {
    peak_resident_segments_.fetch_add(segments, std::memory_order_relaxed);
  }

  int64_t records_shipped() const {
    return records_shipped_.load(std::memory_order_relaxed);
  }
  int64_t records_remote() const {
    return records_remote_.load(std::memory_order_relaxed);
  }
  int64_t bytes_shipped() const {
    return bytes_shipped_.load(std::memory_order_relaxed);
  }
  int64_t records_combined() const {
    return records_combined_.load(std::memory_order_relaxed);
  }
  int64_t queue_depth_high_water() const {
    return queue_depth_high_water_.load(std::memory_order_relaxed);
  }
  int64_t batch_pool_hits() const {
    return batch_pool_hits_.load(std::memory_order_relaxed);
  }
  int64_t batch_pool_misses() const {
    return batch_pool_misses_.load(std::memory_order_relaxed);
  }
  int64_t backpressure_stalls() const {
    return backpressure_stalls_.load(std::memory_order_relaxed);
  }
  int64_t producer_yields() const {
    return producer_yields_.load(std::memory_order_relaxed);
  }
  int64_t peak_resident_segments() const {
    return peak_resident_segments_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> records_shipped_{0};
  std::atomic<int64_t> records_remote_{0};
  std::atomic<int64_t> bytes_shipped_{0};
  std::atomic<int64_t> records_combined_{0};
  std::atomic<int64_t> queue_depth_high_water_{0};
  std::atomic<int64_t> batch_pool_hits_{0};
  std::atomic<int64_t> batch_pool_misses_{0};
  std::atomic<int64_t> backpressure_stalls_{0};
  std::atomic<int64_t> producer_yields_{0};
  std::atomic<int64_t> peak_resident_segments_{0};
};

/// Per-superstep measurements of one iteration (Figures 2, 8, 10, 11, 12).
struct SuperstepStats {
  int superstep = 0;
  double millis = 0;
  int64_t workset_size = 0;      ///< records entering the superstep
  int64_t next_workset_size = 0; ///< records produced for the next superstep
  int64_t delta_applied = 0;     ///< solution records inserted/replaced
  int64_t delta_discarded = 0;   ///< delta records dropped by the comparator
  int64_t solution_lookups = 0;  ///< S index probes ("vertices inspected")
  int64_t records_shipped = 0;   ///< channel records during the superstep
  int64_t term_records = 0;      ///< records reaching the T criterion sink
};

}  // namespace sfdf
