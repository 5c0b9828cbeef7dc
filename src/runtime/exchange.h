// Exchange: the v2 data plane — the in-memory stand-in for Nephele's data
// channels, rewritten as lock-light per-producer lanes.
//
// An Exchange carries envelopes from `num_producers` producer task instances
// to ONE consumer instance. Where the v1 Channel funneled every producer
// through a single mutex + condvar MPSC deque, an Exchange gives each
// producer its own single-producer/single-consumer lane: an unbounded
// segmented ring written with plain release stores and read with acquire
// loads. Steady-state traffic takes no lock anywhere; the only mutex is the
// consumer's park lock, touched when the consumer runs out of work.
//
// ## The exchange contract
//
// * Lane ownership. Lane `l` may be pushed to by exactly one thread at a
//   time — producer instance `l` while the dataflow runs, or the session
//   controller between rounds (see Seed/Reset below). The consumer side
//   (ReadPhase) is single-threaded by construction: every Exchange belongs
//   to exactly one consumer task instance.
//
// * Markers. Besides data batches, producers send marker envelopes — the
//   "channel events" of Section 5.3. kEndSuperstep ends a producer's
//   superstep; kEndStream ends its life. ReadPhase(until, fn) drains data
//   batches until EVERY lane has delivered one `until` marker ("upon
//   reception of an according number of events, each node switches to the
//   next superstep") — the accounting is per lane, so no producer can
//   satisfy the phase on another producer's behalf. kEndStream always
//   substitutes for kEndSuperstep and closes the lane: a producer that left
//   the loop implicitly ends every later phase. Envelopes a producer pushes
//   for the *next* phase stay queued — a lane whose marker arrived is not
//   popped again until the next ReadPhase.
//
// * Fixed width per skeleton. An Exchange's lane count is baked in at
//   construction: it is wiring of ONE plan skeleton at ONE parallelism, not
//   of the session. Live reconfiguration (ExecutionSession::Reconfigure)
//   never mutates exchanges in place — it drains the round, folds each
//   exchange's shipped/byte counters into the session's carried totals,
//   tears the whole skeleton down, and builds fresh exchanges at the new
//   width; the hash partitioners then re-route by PartitionOf under the new
//   count on the first warm round.
//
// * Unboundedness (default). Lanes grow without limit (linked fixed-size
//   segments), so a push never blocks. This keeps the task DAG
//   deadlock-free: diamond topologies where a consumer drains one port to
//   end-of-stream before touching the next would deadlock under
//   bounded-queue backpressure. Memory stays modest at the scales this
//   runtime targets.
//
// * Bounded capacity (opt-in, pipelined regions). set_lane_capacity(k)
//   arms a per-lane budget of k queued envelopes; producers then publish
//   through TryPush, which rejects a DATA envelope with kBackpressured
//   while `pushed - popped >= k` on that lane. The rules:
//     - Only data is ever rejected. Markers (kEndSuperstep/kEndStream) are
//       always accepted — their count is bounded by the number of phases,
//       and refusing them would wedge stream termination behind the very
//       consumer that is waiting for it.
//     - TryPush never blocks and mutates nothing on rejection (the caller
//       keeps the envelope); a rejected attempt only bumps the lane's
//       backpressure-reject counter. The producing *task* is expected to
//       yield and retry — pool workers must never spin-wait in here.
//     - Capacity is skeleton wiring: set it before any producer or
//       consumer task is scheduled (the engine submit path publishes it),
//       never while the dataflow runs.
//     - Credit returns implicitly: the consumer popping an envelope moves
//       `popped` forward, and the retired buffer comes back through the
//       returns queue while the batch pool has room. A stale `popped`
//       read can only under-estimate the drain, so the bound is
//       conservative, never violated.
//     - Deadlock safety is the *caller's* obligation: bounded lanes are
//       only safe on edges whose consumer drains incrementally
//       (DrainOpen-style), never on edges a consumer reads to
//       end-of-stream port by port. The executor bounds exactly those
//       edges, between two pipelined streaming tasks (pipeline breakers
//       and loop edges stay unbounded).
//
// * Batch pool. Each lane owns a return queue of retired record buffers
//   (the same SPSC structure, pointed the other way): ReadPhase recycles
//   drained data batches back to the lane they arrived on, and producers
//   cut fresh batches from their lane's returns via AcquireBatch. The pool
//   is bounded: a lane keeps at most kMaxPooledBatches idle buffers, and
//   the consumer frees a retired buffer instead of returning it while the
//   pool is full. A lane's retention is therefore that constant, not the
//   forward queue's high-water mark — a burst (a constant-path input
//   shipped once, a large first superstep) does not pin its buffers for
//   the rest of the job. In steady state a superstep's shipping still
//   allocates nothing: buffers circulate producer → consumer → producer,
//   keeping the capacity they grew.
//
// * Seed/Reset are controller-side operations and are only legal while no
//   producer or consumer is active (service sessions call them between
//   rounds, while no wave task is scheduled; the round boundary's mutex +
//   the engine submit path provide the happens-before edge in both
//   directions). Reset drops
//   every queued envelope; Seed reopens the closed lanes and feeds one
//   complete, already-terminated production phase.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "record/batch.h"

namespace sfdf {

enum class MarkerKind : uint8_t {
  kData,
  kEndSuperstep,
  kEndStream,
};

struct Envelope {
  MarkerKind kind = MarkerKind::kData;
  RecordBatch batch;
};

/// Unbounded single-producer/single-consumer FIFO: a linked list of
/// fixed-size ring segments. The producer publishes with one release store
/// per push (plus one segment allocation per kSlots pushes); the consumer
/// reads with acquire loads and frees exhausted segments. Used for both
/// directions of an exchange lane — envelopes forward, retired batch
/// buffers back.
template <typename T>
class SpscSegmentQueue {
 public:
  SpscSegmentQueue() : head_seg_(new Segment()), tail_seg_(head_seg_) {}

  ~SpscSegmentQueue() {
    Segment* seg = head_seg_;
    while (seg != nullptr) {
      Segment* next = seg->next.load(std::memory_order_relaxed);
      delete seg;
      seg = next;
    }
  }

  SpscSegmentQueue(const SpscSegmentQueue&) = delete;
  SpscSegmentQueue& operator=(const SpscSegmentQueue&) = delete;

  /// Producer side. Never blocks.
  void Push(T value) {
    Segment* seg = tail_seg_;
    const size_t t = seg->tail.load(std::memory_order_relaxed);
    if (t == kSlots) {
      // Current segment full: publish in a fresh segment. Slot and tail are
      // written before the old segment's `next` release-store makes the new
      // segment reachable.
      Segment* grown = new Segment();
      grown->slots[0] = std::move(value);
      grown->tail.store(1, std::memory_order_relaxed);
      seg->next.store(grown, std::memory_order_release);
      tail_seg_ = grown;
    } else {
      seg->slots[t] = std::move(value);
      seg->tail.store(t + 1, std::memory_order_release);
    }
  }

  /// Consumer side. Returns false when no element is currently published.
  bool TryPop(T* out) {
    Segment* seg = head_seg_;
    for (;;) {
      if (head_ == kSlots) {
        Segment* next = seg->next.load(std::memory_order_acquire);
        if (next == nullptr) return false;  // producer not past this segment
        delete seg;
        head_seg_ = seg = next;
        head_ = 0;
      }
      if (head_ < seg->tail.load(std::memory_order_acquire)) {
        *out = std::move(seg->slots[head_]);
        ++head_;
        return true;
      }
      if (head_ < kSlots) return false;
    }
  }

  /// Visits every currently published element in FIFO order without
  /// popping it. Consumer side only (or a controller that synchronized with
  /// a quiescent producer); `fn` must not touch the queue.
  template <typename Fn>
  void ForEachQueued(Fn&& fn) const {
    const Segment* seg = head_seg_;
    size_t i = head_;
    while (seg != nullptr) {
      const size_t end = seg->tail.load(std::memory_order_acquire);
      for (; i < end; ++i) fn(seg->slots[i]);
      seg = seg->next.load(std::memory_order_acquire);
      i = 0;
    }
  }

  /// Consumer-side readability probe (no side effects).
  bool Readable() const {
    const Segment* seg = head_seg_;
    if (head_ == kSlots) {
      // A successor segment only exists because an element was pushed into
      // it, so reachability implies readability.
      return seg->next.load(std::memory_order_acquire) != nullptr;
    }
    return head_ < seg->tail.load(std::memory_order_acquire);
  }

  /// Slots per ring segment — public so capacity accounting (peak resident
  /// segments) can convert envelope counts without duplicating the number.
  static constexpr size_t kSlots = 64;

 private:
  struct Segment {
    std::atomic<size_t> tail{0};  ///< producer publish index
    std::atomic<Segment*> next{nullptr};
    std::array<T, kSlots> slots;
  };

  Segment* head_seg_;  ///< consumer-owned
  size_t head_ = 0;    ///< consumer read index into head_seg_
  Segment* tail_seg_;  ///< producer-owned
};

class Exchange {
 public:
  explicit Exchange(int num_producers) : num_producers_(num_producers) {
    SFDF_CHECK(num_producers >= 1) << "an exchange needs at least one lane";
    lanes_.reserve(static_cast<size_t>(num_producers));
    for (int l = 0; l < num_producers; ++l) {
      lanes_.push_back(std::make_unique<Lane>());
    }
  }

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  int num_producers() const { return num_producers_; }

  /// Idle buffers a lane's batch pool keeps at most; further retired
  /// buffers are freed (see the Batch pool contract).
  static constexpr uint64_t kMaxPooledBatches = 8;

  // --- wiring (before any producer/consumer task is scheduled) ------------

  /// Arms bounded-capacity mode: each lane admits at most `envelopes`
  /// queued data envelopes before TryPush starts rejecting (0 = unbounded,
  /// the default). Skeleton wiring only — call before the dataflow runs;
  /// the engine submit path publishes the value to producers.
  void set_lane_capacity(int64_t envelopes) { lane_capacity_ = envelopes; }

  int64_t lane_capacity() const { return lane_capacity_; }

  /// Installs an extra consumer wake callback, invoked at the end of every
  /// Push. Pipelined regions hang their engine park-slot wake here: Push is
  /// the single funnel for ALL publishes (data flushes, markers, Seed,
  /// microstep emissions), so a parked polling consumer can never miss an
  /// end-of-stream. Same wiring-time-only contract as set_lane_capacity.
  void set_consumer_waker(std::function<void()> waker) {
    consumer_waker_ = std::move(waker);
  }

  // --- producer side (one thread per lane) --------------------------------

  /// Appends `envelope` to lane `lane` (the calling producer's own lane).
  /// Never blocks; wakes the consumer if it parked.
  void Push(int lane, Envelope envelope) {
    Lane& ln = LaneAt(lane);
    ln.queue.Push(std::move(envelope));
    const uint64_t pushed = ln.pushed.load(std::memory_order_relaxed) + 1;
    // Queue-depth high-water mark (observability; the counters are
    // per-envelope, so this costs a few relaxed atomics per shipped batch).
    const uint64_t depth = pushed - ln.popped.load(std::memory_order_relaxed);
    if (depth > ln.depth_high_water.load(std::memory_order_relaxed)) {
      ln.depth_high_water.store(depth, std::memory_order_relaxed);
    }
    // Deliberately the LAST producer-side write of every push, with release
    // semantics: a session controller taking the lane over under quiescence
    // (Seed/Reset/AcquireBatch between rounds) first acquires `pushed`
    // (SyncWithProducers), which orders every plain producer-owned write —
    // the queue's tail-segment pointer, the returns queue's read cursor —
    // before the controller's own accesses. The lane's own producer never
    // needs the edge (program order), and on mainstream ISAs the release
    // store costs the same as a relaxed one.
    ln.pushed.store(pushed, std::memory_order_release);
    WakeConsumer();
    if (consumer_waker_) consumer_waker_();
  }

  enum class PushResult : uint8_t {
    kOk,
    kBackpressured,  ///< lane at capacity; caller keeps the envelope
  };

  /// Capacity-respecting publish. With bounded capacity armed
  /// (set_lane_capacity), a DATA envelope is rejected while the lane holds
  /// `capacity` or more envelopes; on rejection `*envelope` is left
  /// untouched — the caller keeps it and is expected to yield its task and
  /// retry after the consumer drained. Markers always pass (see the
  /// contract comment). Never blocks. The `popped` read is relaxed and may
  /// lag the consumer — the bound errs conservative, never over-admits.
  PushResult TryPush(int lane, Envelope* envelope) {
    if (lane_capacity_ > 0 && envelope->kind == MarkerKind::kData) {
      Lane& ln = LaneAt(lane);
      const uint64_t depth = ln.pushed.load(std::memory_order_relaxed) -
                             ln.popped.load(std::memory_order_relaxed);
      if (depth >= static_cast<uint64_t>(lane_capacity_)) {
        ln.backpressure_rejects.fetch_add(1, std::memory_order_relaxed);
        return PushResult::kBackpressured;
      }
    }
    Push(lane, std::move(*envelope));
    return PushResult::kOk;
  }

  /// Cuts a batch buffer for lane `lane`: a recycled buffer from the lane's
  /// return queue when one is available (pool hit — the buffer keeps its
  /// grown capacity), a fresh buffer otherwise (pool miss). Deliberately no
  /// eager reserve on a miss: partial batches (end-of-superstep flushes of
  /// thin worksets) are common, and a full-batch reservation per miss would
  /// dwarf the payload.
  RecordBatch AcquireBatch(int lane) {
    Lane& ln = LaneAt(lane);
    std::vector<Record> buffer;
    if (ln.returns.TryPop(&buffer)) {
      ln.pool_hits.fetch_add(1, std::memory_order_relaxed);
      return RecordBatch(std::move(buffer));
    }
    ln.pool_misses.fetch_add(1, std::memory_order_relaxed);
    return RecordBatch();
  }

  // --- consumer side (single thread) --------------------------------------

  /// Drains data batches until one `until` marker per lane arrived, calling
  /// `fn(batch)` for each data batch. Markers of the *other* kind are a
  /// protocol violation, except that kEndStream substitutes for
  /// kEndSuperstep (a producer leaving the loop ends every phase) and
  /// closes its lane for all later phases. Drained batches are recycled
  /// into the lane's buffer pool after `fn` returns, so `fn` must not
  /// retain references into the batch.
  template <typename Fn>
  void ReadPhase(MarkerKind until, Fn&& fn) {
    int remaining = 0;
    for (auto& lane : lanes_) {
      lane->phase_done = lane->closed;
      if (!lane->phase_done) ++remaining;
    }
    while (remaining > 0) {
      bool progressed = false;
      for (auto& lane_ptr : lanes_) {
        Lane& lane = *lane_ptr;
        if (lane.phase_done) continue;
        Envelope envelope;
        while (!lane.phase_done && PopLane(lane, &envelope)) {
          progressed = true;
          switch (envelope.kind) {
            case MarkerKind::kData:
              fn(envelope.batch);
              Recycle(lane, std::move(envelope.batch));
              break;
            case MarkerKind::kEndSuperstep:
              SFDF_CHECK(until == MarkerKind::kEndSuperstep)
                  << "unexpected end-of-superstep marker";
              lane.phase_done = true;
              --remaining;
              break;
            case MarkerKind::kEndStream:
              lane.phase_done = true;
              lane.closed = true;
              --remaining;
              break;
          }
        }
      }
      if (!progressed && remaining > 0) WaitForWork();
    }
  }

  /// Consumer-visible state of one lane, for barrier-free partial-phase
  /// reads: a lane with nothing queued is only *done* when its producer
  /// closed it (kEndStream) — "open but currently empty" means more data
  /// may still arrive and a quiescence vote must account for the producer,
  /// not just the queue.
  enum class LaneState {
    kReadable,   ///< at least one envelope is currently published
    kOpenEmpty,  ///< nothing queued, producer may still push
    kClosed,     ///< kEndStream observed; the lane ended for good
  };

  /// Single consumer thread only (it reads consumer-owned phase state).
  LaneState lane_state(int lane) const {
    const Lane& ln = *lanes_[static_cast<size_t>(lane)];
    if (ln.queue.Readable()) return LaneState::kReadable;
    return ln.closed ? LaneState::kClosed : LaneState::kOpenEmpty;
  }

  /// True if any lane currently has an envelope published. Consumer-side
  /// probe; a false result is instantaneous, not a phase statement — an
  /// open lane may receive data right after.
  bool HasQueued() const {
    for (const auto& lane : lanes_) {
      if (lane->queue.Readable()) return true;
    }
    return false;
  }

  /// Barrier-free read: drains every envelope the lanes currently hold and
  /// returns immediately — no marker accounting, no blocking. Calls
  /// `fn(batch)` per data batch (recycled afterwards, same retention rule
  /// as ReadPhase) and returns the number of records delivered. kEndStream
  /// closes its lane (final-flush markers of a terminated loop);
  /// kEndSuperstep is a protocol violation — barrier-free producers flush
  /// without phase markers.
  template <typename Fn>
  int64_t DrainOpen(Fn&& fn) {
    return DrainOpenUntil(std::forward<Fn>(fn), [] { return false; });
  }

  /// DrainOpen with an early-exit predicate: `stop()` is evaluated before
  /// each envelope pop, and a true result returns immediately, leaving the
  /// remaining envelopes queued for the next call. Pipelined consumers use
  /// it to stop consuming while their own downstream lane is backpressured
  /// — continuing would just migrate the queue into the stalled output
  /// buffer and defeat the flow-control window. Same marker contract as
  /// DrainOpen (kEndSuperstep is a violation, kEndStream closes the lane).
  template <typename Fn, typename Stop>
  int64_t DrainOpenUntil(Fn&& fn, Stop&& stop) {
    int64_t records = 0;
    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      Envelope envelope;
      while (!stop() && PopLane(lane, &envelope)) {
        switch (envelope.kind) {
          case MarkerKind::kData:
            records += static_cast<int64_t>(envelope.batch.size());
            fn(envelope.batch);
            Recycle(lane, std::move(envelope.batch));
            break;
          case MarkerKind::kEndSuperstep:
            SFDF_CHECK(false)
                << "end-of-superstep marker on a barrier-free lane";
            break;
          case MarkerKind::kEndStream:
            lane.closed = true;
            break;
        }
      }
      if (stop()) break;
    }
    return records;
  }

  /// True once every lane delivered its kEndStream (via DrainOpen-family
  /// reads). Consumer thread only — reads consumer-owned phase state.
  bool AllClosed() const {
    for (const auto& lane : lanes_) {
      if (!lane->closed) return false;
    }
    return true;
  }

  // --- controller side (requires external quiescence) ---------------------

  /// Drops every queued envelope so the exchange can be reused for another
  /// production phase; returns the number dropped. Only legal while no
  /// producer or consumer is active — service sessions call it between
  /// rounds (while no wave task of the resident iteration is scheduled) to
  /// assert the previous round's seed was fully drained, lane by lane,
  /// before reseeding.
  size_t Reset() {
    SyncWithProducers();
    size_t dropped = 0;
    for (auto& lane : lanes_) {
      Envelope envelope;
      while (PopLane(*lane, &envelope)) ++dropped;
    }
    return dropped;
  }

  /// Salvages every queued data record into `out` (markers are dropped) and
  /// returns how many records were appended. Same legality contract as
  /// Reset — controller only, under quiescence: a destructive drain for
  /// controllers that must preserve queued records instead of asserting
  /// there are none (Reset's job).
  size_t DrainTo(std::vector<Record>* out) {
    SyncWithProducers();
    size_t drained = 0;
    for (auto& lane : lanes_) {
      Envelope envelope;
      while (PopLane(*lane, &envelope)) {
        if (envelope.kind != MarkerKind::kData) continue;
        drained += envelope.batch.size();
        for (const Record& rec : envelope.batch) out->push_back(rec);
        Recycle(*lane, std::move(envelope.batch));
      }
    }
    return drained;
  }

  /// DrainTo's non-consuming twin: appends a copy of every queued data
  /// record to `out` (markers are skipped) and returns how many records
  /// were appended, leaving every envelope queued — a following ReadPhase
  /// or DrainTo sees exactly the same records. Same legality contract as
  /// Reset: controller only, under quiescence (a checkpoint of the pending
  /// workset at a superstep boundary).
  size_t CopyTo(std::vector<Record>* out) {
    SyncWithProducers();
    size_t copied = 0;
    for (auto& lane : lanes_) {
      lane->queue.ForEachQueued([&](const Envelope& envelope) {
        if (envelope.kind != MarkerKind::kData) return;
        copied += envelope.batch.size();
        for (const Record& rec : envelope.batch) out->push_back(rec);
      });
    }
    return copied;
  }

  /// Reopens a drained exchange for one more production phase and seeds it:
  /// pushes `batch` as a data envelope (when non-empty) into lane 0,
  /// followed by one kEndStream marker per lane, so the consumer's next
  /// ReadPhase sees a complete, already-terminated stream without the
  /// original producers running again. Service sessions use this to feed a
  /// warm round's initial workset through the iteration head's external
  /// port. Lanes closed by a previous phase's kEndStream are reopened.
  void Seed(RecordBatch batch) {
    SyncWithProducers();
    for (auto& lane : lanes_) lane->closed = false;
    if (!batch.empty()) {
      Push(0, Envelope{MarkerKind::kData, std::move(batch)});
    } else {
      // An empty seed is a pure end-of-stream; if the caller cut `batch`
      // from the pool, hand its capacity back instead of dropping it.
      Recycle(*lanes_[0], std::move(batch));
    }
    for (int l = 0; l < num_producers_; ++l) {
      Push(l, Envelope{MarkerKind::kEndStream, RecordBatch()});
    }
  }

  // --- observability -------------------------------------------------------

  struct Stats {
    /// Deepest any lane's queue ever got, in envelopes. Recorded on the
    /// producer side of Push (since the v2 data plane landed), so a fully
    /// materialized, never-yet-read exchange reports its true peak.
    int64_t depth_high_water = 0;
    /// Batch-pool acquisitions served from recycled buffers / fresh heap.
    int64_t pool_hits = 0;
    int64_t pool_misses = 0;
    /// Data envelopes TryPush refused because the lane was at capacity
    /// (bounded mode only; each retry attempt counts).
    int64_t backpressure_rejects = 0;
    /// Upper bound on ring segments this exchange ever held resident at
    /// once: per-lane ceil(depth high-water / slots-per-segment), summed.
    int64_t peak_resident_segments = 0;
  };

  /// Aggregated counters over all lanes. Relaxed reads: exact after the
  /// producers quiesced (threads joined / parked), approximate while they
  /// run — fine for both AssembleResult and live monitoring.
  Stats stats() const {
    Stats s;
    constexpr int64_t kSeg =
        static_cast<int64_t>(SpscSegmentQueue<Envelope>::kSlots);
    for (const auto& lane : lanes_) {
      const int64_t hw = static_cast<int64_t>(
          lane->depth_high_water.load(std::memory_order_relaxed));
      if (hw > s.depth_high_water) s.depth_high_water = hw;
      s.pool_hits += static_cast<int64_t>(
          lane->pool_hits.load(std::memory_order_relaxed));
      s.pool_misses += static_cast<int64_t>(
          lane->pool_misses.load(std::memory_order_relaxed));
      s.backpressure_rejects += static_cast<int64_t>(
          lane->backpressure_rejects.load(std::memory_order_relaxed));
      s.peak_resident_segments += (hw + kSeg - 1) / kSeg;
    }
    return s;
  }

 private:
  struct alignas(64) Lane {
    // Forward direction: envelopes, producer -> consumer.
    SpscSegmentQueue<Envelope> queue;
    // Return direction: retired batch buffers, consumer -> producer. Holds
    // at most kMaxPooledBatches buffers: Recycle frees a buffer instead of
    // pushing it once `recycled - pool_hits` reaches the bound, however deep
    // the forward queue ran.
    SpscSegmentQueue<std::vector<Record>> returns;

    // Producer-side counters.
    std::atomic<uint64_t> pushed{0};
    std::atomic<uint64_t> depth_high_water{0};
    std::atomic<uint64_t> pool_hits{0};
    std::atomic<uint64_t> pool_misses{0};
    std::atomic<uint64_t> backpressure_rejects{0};

    // Consumer-owned phase state.
    bool closed = false;      ///< kEndStream observed (reset by Seed)
    bool phase_done = false;  ///< marker observed for the running ReadPhase
    std::atomic<uint64_t> popped{0};
    uint64_t recycled = 0;  ///< buffers pushed into `returns`
  };

  Lane& LaneAt(int lane) {
    SFDF_DCHECK(lane >= 0 && lane < num_producers_)
        << "lane " << lane << " out of range";
    return *lanes_[static_cast<size_t>(lane)];
  }

  /// Controller-side entry edge: acquire every lane's `pushed` counter,
  /// pairing with the release store that ends each producer's Push. After
  /// this, the producers' plain lane state (tail segment pointer, returns
  /// cursor) is safely visible to the calling thread. Callers must still
  /// guarantee the producers are quiescent (done pushing) — this orders
  /// their writes, it does not stop them. Controller-side AcquireBatch is
  /// covered by calling Reset() first (program order on the controller).
  void SyncWithProducers() {
    for (auto& lane : lanes_) {
      (void)lane->pushed.load(std::memory_order_acquire);
    }
  }

  bool PopLane(Lane& lane, Envelope* out) {
    if (!lane.queue.TryPop(out)) return false;
    lane.popped.store(lane.popped.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    return true;
  }

  bool AnyPhaseLaneReadable() const {
    for (const auto& lane : lanes_) {
      if (!lane->phase_done && lane->queue.Readable()) return true;
    }
    return false;
  }

  /// Returns a retired batch buffer to `lane`'s pool, or frees it when the
  /// pool already holds kMaxPooledBatches buffers. Buffers that never
  /// allocated are not worth the round trip. The pool depth is
  /// `recycled - pool_hits`; a `pool_hits` read that lags the producer only
  /// overstates the depth, so the bound errs towards freeing.
  void Recycle(Lane& lane, RecordBatch batch) {
    std::vector<Record> buffer = std::move(batch.records());
    if (buffer.capacity() == 0) return;
    if (lane.recycled - lane.pool_hits.load(std::memory_order_relaxed) >=
        kMaxPooledBatches) {
      return;
    }
    buffer.clear();  // keeps capacity — that is the point of the pool
    lane.returns.Push(std::move(buffer));
    ++lane.recycled;
  }

  /// Spin-then-park: the consumer briefly spins over the open lanes, then
  /// parks on the exchange's condvar. Producers publish their envelope
  /// first and only then check `consumer_waiting_`; the consumer announces
  /// `consumer_waiting_` first and only then re-checks the lanes — the two
  /// seq_cst fences order that store/load pair (Dekker), so either the
  /// producer sees the flag and rings the bell, or the consumer sees the
  /// envelope and never sleeps.
  void WaitForWork() {
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (AnyPhaseLaneReadable()) return;
    }
    consumer_waiting_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (AnyPhaseLaneReadable()) {
      consumer_waiting_.store(false, std::memory_order_relaxed);
      return;
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    park_cv_.wait(lock, [this] { return AnyPhaseLaneReadable(); });
    consumer_waiting_.store(false, std::memory_order_relaxed);
  }

  void WakeConsumer() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (consumer_waiting_.load(std::memory_order_relaxed)) {
      // The empty critical section fences against the consumer being
      // between its last lane check and the actual sleep.
      { std::lock_guard<std::mutex> lock(park_mutex_); }
      park_cv_.notify_one();
    }
  }

  /// Lane re-scans before the consumer parks. Kept deliberately small:
  /// oversubscribed deployments (every task instance is a thread) are the
  /// common case, and burning a timeslice spinning starves the very
  /// producer we are waiting on. Overridable for experiments.
#ifndef SFDF_EXCHANGE_SPIN
#define SFDF_EXCHANGE_SPIN 16
#endif
  static constexpr int kSpinIterations = SFDF_EXCHANGE_SPIN;

  const int num_producers_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Bounded-capacity budget per lane, in envelopes (0 = unbounded) and
  /// the pipelined-consumer wake hook. Both are skeleton wiring: written
  /// once before any task runs, read-only afterwards.
  int64_t lane_capacity_ = 0;
  std::function<void()> consumer_waker_;

  std::atomic<bool> consumer_waiting_{false};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
};

}  // namespace sfdf
