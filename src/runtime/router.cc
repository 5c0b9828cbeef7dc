#include "runtime/router.h"

#include "obs/trace.h"

namespace sfdf {

bool CombineTable::Fold(const Record& rec, uint64_t hash, const KeySpec& key,
                        const CombineFn& combine) {
  if (slots_.size() < 2 * (records_.size() + 1)) Grow();
  for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
    const int32_t slot = slots_[i];
    if (slot < 0) {
      slots_[i] = static_cast<int32_t>(records_.size());
      records_.push_back(rec);
      hashes_.push_back(hash);
      return false;
    }
    if (hashes_[slot] == hash && KeyEquals(records_[slot], key, rec, key)) {
      records_[slot] = combine(records_[slot], rec);
      return true;
    }
  }
}

void CombineTable::Grow() {
  const size_t capacity = slots_.empty() ? 64 : 2 * slots_.size();
  slots_.assign(capacity, -1);
  mask_ = capacity - 1;
  for (size_t e = 0; e < hashes_.size(); ++e) {
    size_t i = hashes_[e] & mask_;
    while (slots_[i] >= 0) i = (i + 1) & mask_;
    slots_[i] = static_cast<int32_t>(e);
  }
}

void CombineTable::Clear() {
  // Entry e sits on its probe path behind only earlier entries, which are
  // already cleared when e is reached, so the walk visits no live slot.
  for (size_t e = 0; e < hashes_.size(); ++e) {
    size_t i = hashes_[e] & mask_;
    while (slots_[i] != static_cast<int32_t>(e)) i = (i + 1) & mask_;
    slots_[i] = -1;
  }
  records_.clear();
  hashes_.clear();
}

OutputPort::OutputPort(std::vector<Exchange*> targets, ShipStrategy ship,
                       KeySpec ship_key, int my_partition, Metrics* metrics,
                       bool in_loop, CombineFn combiner)
    : targets_(std::move(targets)),
      ship_(ship),
      ship_key_(ship_key),
      my_partition_(my_partition),
      metrics_(metrics),
      in_loop_(in_loop),
      buffers_(targets_.size()),
      stalled_(targets_.size(), 0),
      has_pending_marker_(targets_.size(), 0),
      pending_marker_(targets_.size(), MarkerKind::kData),
      combiner_(std::move(combiner)) {
  if (combiner_) combine_tables_.resize(targets_.size());
}

void OutputPort::SendTo(int partition, const Record& rec) {
  RecordBatch& buffer = buffers_[partition];
  if (buffer.empty() && buffer.records().capacity() == 0) {
    // First record since the last flush: cut a buffer from our lane's
    // recycle pool so steady-state supersteps allocate nothing.
    buffer = targets_[partition]->AcquireBatch(my_partition_);
  }
  buffer.Add(rec);
  if (buffer.size() >= RecordBatch::kDefaultBatchSize) {
    FlushPartition(partition);
  }
}

void OutputPort::Send(const Record& rec) {
  switch (ship_) {
    case ShipStrategy::kForward:
      SendTo(my_partition_, rec);
      break;
    case ShipStrategy::kHashPartition: {
      // One hash picks the target (high bits) and, with a combiner, the
      // fold-table slot (low bits); merged records ship at flush.
      const uint64_t hash = HashKey(rec, ship_key_);
      const int target =
          PartitionOfHash(hash, static_cast<int>(targets_.size()));
      if (combiner_) {
        if (combine_tables_[target].Fold(rec, hash, ship_key_, combiner_)) {
          ++combined_;
        }
      } else {
        SendTo(target, rec);
      }
      break;
    }
    case ShipStrategy::kBroadcast:
      for (size_t p = 0; p < targets_.size(); ++p) {
        SendTo(static_cast<int>(p), rec);
      }
      break;
  }
}

bool OutputPort::FlushPartition(int partition) {
  RecordBatch& buffer = buffers_[partition];
  if (buffer.empty()) return true;
  const int64_t records = static_cast<int64_t>(buffer.size());
  const int64_t bytes = static_cast<int64_t>(buffer.ByteSize());
  const int64_t remote = partition == my_partition_ ? 0 : records;
  Envelope envelope;
  envelope.kind = MarkerKind::kData;
  envelope.batch = std::move(buffer);
  buffer = RecordBatch();
  // Async hooks and bounded (backpressuring) targets never coexist: hooks
  // are installed only on loop-internal ports, capacity only on non-loop
  // pipelined edges — so a pre-push credit can never be taken for an
  // envelope that then fails to publish.
  if (before_publish_) before_publish_(partition, records);
  if (targets_[partition]->TryPush(my_partition_, &envelope) ==
      Exchange::PushResult::kBackpressured) {
    // Keep the batch for TryDrainStalled to retry; count the stall only on
    // the unstalled->stalled transition, not per retry attempt.
    buffer = std::move(envelope.batch);
    if (!stalled_[partition]) {
      stalled_[partition] = 1;
      if (!has_pending_marker_[partition]) ++stalled_count_;
      metrics_->CountBackpressureStall(1);
      static const uint16_t kStall =
          trace::RegisterName("backpressure.stall");
      trace::Instant(kStall, partition);
    }
    return false;
  }
  if (stalled_[partition]) {
    stalled_[partition] = 0;
    if (!has_pending_marker_[partition]) --stalled_count_;
  }
  // Shipped counters move only on a successful publish, so a stalled batch
  // retried N times still counts once.
  metrics_->CountShipped(records, bytes, remote);
  if (after_publish_) after_publish_(partition);
  return true;
}

void OutputPort::DeliverDeferredMarker(int partition) {
  SFDF_DCHECK(!stalled_[partition] && buffers_[partition].empty())
      << "deferred marker delivered ahead of stalled data";
  Envelope envelope;
  envelope.kind = pending_marker_[partition];
  targets_[partition]->Push(my_partition_, std::move(envelope));
  has_pending_marker_[partition] = 0;
  --stalled_count_;
}

bool OutputPort::TryDrainStalled() {
  if (stalled_count_ == 0) return true;
  for (size_t p = 0; p < targets_.size(); ++p) {
    const int partition = static_cast<int>(p);
    if (stalled_[p] && !FlushPartition(partition)) continue;
    if (has_pending_marker_[p]) DeliverDeferredMarker(partition);
  }
  return stalled_count_ == 0;
}

void OutputPort::FlushCombiner() {
  if (!combiner_) return;
  for (size_t p = 0; p < combine_tables_.size(); ++p) {
    for (const Record& rec : combine_tables_[p].records()) {
      SendTo(static_cast<int>(p), rec);
    }
    combine_tables_[p].Clear();
  }
  if (combined_ > 0) {
    metrics_->CountCombined(combined_);
    combined_ = 0;
  }
}

void OutputPort::Flush() {
  FlushCombiner();
  for (size_t p = 0; p < targets_.size(); ++p) {
    FlushPartition(static_cast<int>(p));
  }
}

void OutputPort::SendMarker(MarkerKind kind) {
  // Combined and buffered data must reach the lane before the marker does:
  // a lane's marker ends its phase, and anything pushed after it would leak
  // into the consumer's next phase. On a bounded edge that ordering demands
  // deferral: a target whose data is stalled gets its marker parked behind
  // it (TryDrainStalled delivers both in order). Loop edges are never
  // bounded, so the multi-marker superstep protocol can't hit this path.
  Flush();
  for (size_t p = 0; p < targets_.size(); ++p) {
    if (stalled_[p]) {
      SFDF_DCHECK(!has_pending_marker_[p])
          << "two markers deferred on one bounded edge";
      has_pending_marker_[p] = 1;
      pending_marker_[p] = kind;
      continue;
    }
    Envelope envelope;
    envelope.kind = kind;
    targets_[p]->Push(my_partition_, std::move(envelope));
  }
}

}  // namespace sfdf
