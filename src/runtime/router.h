// OutputPort: routes a task instance's emissions to the consumer's
// partitioned exchanges according to the edge's ship strategy, with optional
// chained pre-aggregation (combiner) before shipping — the Combiner
// optimization the paper notes for PageRank (Section 6.1). The port writes
// exclusively to lane `my_partition` of every target exchange (the SPSC
// contract of the v2 data plane) and cuts its batch buffers from the
// target lane's recycle pool. A combiner folds per target partition in a
// flat CombineTable keyed by the ship-key hash that also chose the target.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dataflow/udf.h"
#include "optimizer/strategies.h"
#include "record/key.h"
#include "runtime/exchange.h"
#include "runtime/metrics.h"

namespace sfdf {

/// Combine table of one target partition: open addressing with linear
/// probing over an int32 slot array (kept at least twice the live entries),
/// indexing dense `records`/`hashes` vectors in insertion order. The slot is
/// the hash's low bits; the partition consumed its high bits. Clear resets
/// only the occupied slots and keeps every capacity, so a port folding the
/// same keys superstep after superstep allocates nothing in steady state.
class CombineTable {
 public:
  /// Folds `rec` into the entry whose `key` fields equal its own, or
  /// inserts it. `hash` is HashKey(rec, key). Returns true when it folded.
  bool Fold(const Record& rec, uint64_t hash, const KeySpec& key,
            const CombineFn& combine);

  /// The folded records, in first-insertion order.
  const std::vector<Record>& records() const { return records_; }

  void Clear();

 private:
  void Grow();

  std::vector<int32_t> slots_;  // index into records_, or -1 when empty
  std::vector<Record> records_;
  std::vector<uint64_t> hashes_;
  size_t mask_ = 0;
};

class OutputPort {
 public:
  /// `targets[p]` is the exchange into the consumer's partition p.
  /// `my_partition` is the producing instance's partition: the kForward
  /// target, the remote-record accounting base, and the lane this port owns
  /// in every target exchange. A `combiner` applies on a kHashPartition edge
  /// only and folds records with equal `ship_key` fields.
  OutputPort(std::vector<Exchange*> targets, ShipStrategy ship,
             KeySpec ship_key, int my_partition, Metrics* metrics,
             bool in_loop, CombineFn combiner = nullptr);

  /// Routes one record (buffered; flushed in batches).
  void Send(const Record& rec);

  /// Flushes buffers and sends the marker to every target partition.
  /// On a bounded (pipelined) edge a target whose stalled data could not
  /// be delivered gets its marker *deferred* — data must precede the
  /// marker in the lane — and it is delivered by a later TryDrainStalled.
  void SendMarker(MarkerKind kind);

  /// Flushes data buffers without a marker. On bounded edges a flush that
  /// hits backpressure keeps the batch buffered (the partition is
  /// "stalled") for TryDrainStalled to retry; unbounded targets never
  /// stall, so non-pipelined callers see unchanged behavior.
  void Flush();

  /// True while any target partition holds stalled data or a deferred
  /// marker — the producing task should yield and retry via
  /// TryDrainStalled instead of emitting more.
  bool has_stalled() const { return stalled_count_ > 0; }

  /// Retries every stalled partition (data first, then any deferred
  /// marker). Returns true when nothing is left stalled.
  bool TryDrainStalled();

  /// True if this edge stays within the iteration body (receives
  /// end-of-superstep markers).
  bool in_loop() const { return in_loop_; }

  /// Barrier-free execution hooks, bracketing every DATA publish of this
  /// port: `before(target, records)` runs before the envelope becomes
  /// visible in the target exchange (quiescence credits must be taken and
  /// the target's vote revoked first), `after(target)` runs once it is
  /// (a parked target may need a wake). Marker publishes are not
  /// bracketed — markers carry no records and take no credits.
  void set_async_hooks(std::function<void(int, int64_t)> before,
                       std::function<void(int)> after) {
    before_publish_ = std::move(before);
    after_publish_ = std::move(after);
  }

 private:
  void SendTo(int partition, const Record& rec);
  bool FlushPartition(int partition);
  void FlushCombiner();
  void DeliverDeferredMarker(int partition);

  std::vector<Exchange*> targets_;
  ShipStrategy ship_;
  KeySpec ship_key_;
  int my_partition_;
  Metrics* metrics_;
  bool in_loop_;

  /// One pending batch per target partition, cut from the target lane's
  /// buffer pool on first use after each flush.
  std::vector<RecordBatch> buffers_;

  /// Backpressure state per target partition (bounded edges only).
  /// stalled_[p]: the last flush was refused, the batch is still in
  /// buffers_[p]. pending_marker_[p]: a marker waiting behind that data.
  /// stalled_count_ tracks partitions with either condition, so
  /// has_stalled() is O(1) on the hot path.
  std::vector<uint8_t> stalled_;
  std::vector<uint8_t> has_pending_marker_;
  std::vector<MarkerKind> pending_marker_;
  int stalled_count_ = 0;

  // Combiner state: one fold table per target partition, and the records
  // folded since the last flush — published to the shared Metrics once per
  // flush, never per record.
  CombineFn combiner_;
  std::vector<CombineTable> combine_tables_;
  int64_t combined_ = 0;

  // Barrier-free publish hooks (null in superstep mode).
  std::function<void(int, int64_t)> before_publish_;
  std::function<void(int)> after_publish_;
};

/// Collector adapter fanning one emission out to several output ports.
class PortsCollector : public Collector {
 public:
  explicit PortsCollector(std::vector<OutputPort*> ports)
      : ports_(std::move(ports)) {}

  void Emit(const Record& rec) override {
    for (OutputPort* port : ports_) port->Send(rec);
  }

 private:
  std::vector<OutputPort*> ports_;
};

}  // namespace sfdf
