// Superstep coordination (Sections 4.2 / 5.3), engine edition.
//
// All dynamic-path task instances of an iteration meet at an arrival-count
// gate after emitting their end-of-superstep channel events — one
// kEndSuperstep marker into their own lane of every in-loop target
// exchange. The gate and the per-lane marker accounting divide the work: a
// consumer's ReadPhase ends its *input* phase once every lane delivered its
// marker, while the gate ends the *superstep* once every participant
// arrived; because each participant sends its markers before arriving, a
// new superstep can only begin after every lane's previous phase is fully
// delimited. This is the shared-memory analogue of Nephele's "according
// number of channel events" protocol.
//
// v3 (shared worker-pool engine): participants are schedulable tasks, not
// parked threads, so nobody waits here. Arrive() decrements an atomic
// countdown; the LAST-arriving task runs the completion step inline —
// evaluate the termination criterion (an empty next workset — the records
// the workset tails fed back this superstep, counted in workset_produced —
// T-criterion silence, or the iteration cap), capture per-superstep
// statistics — flips the phase, and its caller (the executor's wave
// scheduler) re-enqueues the next superstep's task wave. The completion
// runs while no participant task is live, exactly like the old
// std::barrier completion step ran while every thread was parked; the
// acq_rel countdown publishes every participant's superstep writes to it.
//
// Barrier-free mode (ExecutionOptions::sync_mode != kSuperstep, and every
// microstep iteration): the gate stays idle and the coordinator instead
// tracks a distributed quiescence protocol — the message-acknowledgement
// termination detection §5.3 points to, as one credit counter. One unit
// per partition drives it (the executor's AsyncRoundUnit), whether its
// local round runs the partition's stage pipeline or a microstep
// iteration's fused chain. Every record published into an in-loop
// exchange (the workset feedback lanes included) takes a credit BEFORE it
// becomes visible, one fetch_add per published batch; a partition returns
// the credits of everything it consumed only at the END of its local
// round, after its own children were published (and credited).
// pending == 0 therefore means "no record is queued anywhere and no
// partition is mid-round" — exact quiescence, the workset-is-empty
// criterion without a barrier.
// Layered on top, for observability and the protocol's narrative: a
// partition with nothing to do CASTS a quiescent vote before parking; any
// producer publishing toward it REVOKES the vote first. Votes are advisory
// (credits are the proof); revocation counts surface how often "done"
// partitions were reactivated.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"
#include "runtime/metrics.h"

namespace sfdf {

class SuperstepCoordinator {
 public:
  /// `decide` runs once per superstep after all participants arrived;
  /// returning true terminates the iteration. It receives the finished
  /// superstep's index (0-based). 64-bit because the counter never resets
  /// across the rounds of a resident service session (see Rearm) — a
  /// long-lived server must not overflow it. It DOES reset across a live
  /// reconfiguration: the rebuilt skeleton's coordinator starts at 0 again,
  /// deliberately — operator closures key their §4.3 cache builds and
  /// solution-index construction off `superstep == 0`, so restarting the
  /// count is what makes a warm resume rebuild them at the new width
  /// (cross-skeleton superstep totals live in the session's carried stats).
  SuperstepCoordinator(int num_participants,
                       std::function<bool(int64_t)> decide)
      : decide_(std::move(decide)),
        num_participants_(num_participants),
        pending_(num_participants) {}

  /// Called by each participant task at the end of its superstep, after its
  /// markers are sent. Never blocks. Returns true for exactly one arrival
  /// per superstep — the last one — by which time the completion step
  /// (decide + phase flip) has already run in this call; the caller then
  /// schedules the next wave, or the final flush / round hand-off if
  /// terminated() reads true. The countdown is re-armed for the next
  /// superstep before returning, which is safe because the next wave is
  /// only enqueued by this arrival's caller, afterwards.
  bool Arrive() {
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
    const int64_t finished = superstep_.load(std::memory_order_relaxed);
    {
      static const uint16_t kDecide =
          trace::RegisterName("superstep.decide");
      trace::Span span(kDecide, finished);
      if (decide_(finished)) {
        terminated_.store(true, std::memory_order_release);
      }
    }
    superstep_.store(finished + 1, std::memory_order_release);
    pending_.store(num_participants_, std::memory_order_release);
    static const uint16_t kFlip = trace::RegisterName("superstep.flip");
    trace::Instant(kFlip, finished + 1);
    return true;
  }

  bool terminated() const {
    return terminated_.load(std::memory_order_acquire);
  }
  int64_t superstep() const {
    return superstep_.load(std::memory_order_acquire);
  }
  int num_participants() const { return num_participants_; }

  /// Re-arms the coordinator for another round of supersteps (service
  /// sessions): clears the terminated flag so the wave scheduler re-enters
  /// the superstep loop. Only legal while no participant task is scheduled
  /// (the session controller provides that quiescence and the
  /// happens-before edge to the next wave via the engine's submit path).
  /// The superstep counter intentionally keeps counting across rounds:
  /// superstep 0 happens exactly once, so cold-start work (constant-path
  /// cache loads, solution-set builds) is never repeated warm.
  void Rearm() {
    SFDF_DCHECK(pending_.load(std::memory_order_acquire) ==
                num_participants_)
        << "Rearm while a wave is in flight";
    terminated_.store(false, std::memory_order_release);
  }

  // --- shared per-superstep accumulators (reset by the decide function) ---
  std::atomic<int64_t> term_records{0};     ///< records at the T sink
  std::atomic<int64_t> workset_consumed{0}; ///< records emitted by heads
  std::atomic<int64_t> workset_produced{0}; ///< records routed by tails

  // --- barrier-free mode (see file header) --------------------------------

  /// Switches this coordinator to barrier-free bookkeeping for `partitions`
  /// loop pipelines (or fused microstep chains). `staleness_bound` > 0
  /// caps how many local rounds a partition may run ahead of the slowest
  /// peer (kBoundedStale); 0 means unbounded (kAsync, microsteps). Seeds one
  /// startup credit per partition, released when that partition consumed
  /// its initial-workset phase.
  void EnableBarrierFree(int partitions, int staleness_bound) {
    SFDF_CHECK(bf_ == nullptr) << "barrier-free mode enabled twice";
    bf_ = std::make_unique<BarrierFree>(partitions, staleness_bound);
  }
  bool barrier_free() const { return bf_ != nullptr; }
  int staleness_bound() const { return bf_->staleness_bound; }

  // Credits: + before a record is visible, - after its children are.
  void CreditEnqueued(int64_t n) {
    bf_->pending.fetch_add(n, std::memory_order_acq_rel);
  }
  void CreditProcessed(int64_t n) {
    bf_->processed.fetch_add(n, std::memory_order_relaxed);
    SFDF_DCHECK(bf_->pending.fetch_sub(n, std::memory_order_acq_rel) >= n)
        << "barrier-free credit counter went negative";
  }
  /// Releases the one startup credit EnableBarrierFree / RearmBarrierFree
  /// seeded for a partition, once its W_0 phase is consumed. The startup
  /// credits keep `pending` from hitting zero before every partition has
  /// even looked at its share of the initial workset.
  void ReleaseStartupCredit() {
    SFDF_DCHECK(bf_->pending.load(std::memory_order_acquire) >= 1);
    bf_->pending.fetch_sub(1, std::memory_order_acq_rel);
  }
  bool Quiescent() const {
    return bf_->pending.load(std::memory_order_acquire) == 0;
  }
  /// Total records processed by local rounds since EnableBarrierFree.
  int64_t records_processed() const {
    return bf_->processed.load(std::memory_order_relaxed);
  }

  // Votes (advisory; see file header).
  void CastQuiescentVote(int p) {
    bf_->voted[static_cast<size_t>(p)].store(true, std::memory_order_release);
  }
  /// Called by a producer BEFORE publishing records toward partition `p`:
  /// a standing vote is withdrawn (and counted as a revocation).
  void RevokeQuiescentVote(int p) {
    if (bf_->voted[static_cast<size_t>(p)].exchange(
            false, std::memory_order_acq_rel)) {
      bf_->revocations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int64_t vote_revocations() const {
    return bf_->revocations.load(std::memory_order_relaxed);
  }

  // Local rounds and staleness. local_round[p] is written only by
  // partition p's task; cross-partition reads are monotonic approximations
  // (the staleness bound tolerates lag by construction — a stale MinLocal
  // Round only parks a partition that a peer's next broadcast re-wakes).
  int64_t local_round(int p) const {
    return bf_->local_round[static_cast<size_t>(p)].load(
        std::memory_order_relaxed);
  }
  int64_t MinLocalRound() const {
    int64_t min = bf_->local_round[0].load(std::memory_order_relaxed);
    for (size_t p = 1; p < bf_->local_round.size(); ++p) {
      const int64_t r = bf_->local_round[p].load(std::memory_order_relaxed);
      if (r < min) min = r;
    }
    return min;
  }
  /// Entry of a working local round: withdraws any stale self-vote and
  /// records the observed staleness (rounds ahead of the slowest peer).
  void BeginWorkRound(int p) {
    bf_->voted[static_cast<size_t>(p)].store(false, std::memory_order_relaxed);
    FoldMax(bf_->max_staleness, local_round(p) - MinLocalRound());
  }
  void AdvanceLocalRound(int p) {
    bf_->local_round[static_cast<size_t>(p)].fetch_add(
        1, std::memory_order_relaxed);
    bf_->rounds_executed[static_cast<size_t>(p)].fetch_add(
        1, std::memory_order_relaxed);
  }
  /// An idle partition is caught up, not behind: before parking it bumps
  /// its round to the fastest peer's, so it never holds the staleness
  /// minimum down while contributing nothing (which would deadlock a
  /// bounded-stale run whose only active partition is k rounds ahead).
  /// Returns true if the bump raised this partition's round — i.e. the
  /// staleness minimum may have advanced and parked peers need a wake.
  bool SyncIdleRound(int p) {
    int64_t max = 0;
    for (const auto& r : bf_->local_round) {
      const int64_t v = r.load(std::memory_order_relaxed);
      if (v > max) max = v;
    }
    auto& mine = bf_->local_round[static_cast<size_t>(p)];
    if (mine.load(std::memory_order_relaxed) < max) {
      mine.store(max, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  int64_t rounds_executed(int p) const {
    return bf_->rounds_executed[static_cast<size_t>(p)].load(
        std::memory_order_relaxed);
  }
  int64_t max_staleness() const {
    return bf_->max_staleness.load(std::memory_order_relaxed);
  }

  // Round lifecycle. Termination reuses `terminated_`: any partition that
  // observes Quiescent() (or trips the iteration cap) finishes the round
  // for everyone; idempotent because every partition's unit finishes at
  // most once per round.
  void FinishBarrierFree(bool capped) {
    if (capped) bf_->capped.store(true, std::memory_order_relaxed);
    terminated_.store(true, std::memory_order_release);
  }
  bool capped() const {
    return bf_->capped.load(std::memory_order_relaxed);
  }
  /// Service-session re-arm (controller side, under round quiescence):
  /// clears termination/cap/votes, seeds fresh startup credits and
  /// snapshots the per-round report bases. Leftover credits of an
  /// iteration-capped round intentionally survive — their records are
  /// still queued and the next round must not be quiescent before draining
  /// them.
  void RearmBarrierFree() {
    terminated_.store(false, std::memory_order_release);
    bf_->capped.store(false, std::memory_order_relaxed);
    for (auto& v : bf_->voted) v.store(false, std::memory_order_relaxed);
    bf_->pending.fetch_add(bf_->partitions, std::memory_order_acq_rel);
    for (size_t p = 0; p < bf_->round_base.size(); ++p) {
      bf_->round_base[p] =
          bf_->rounds_executed[p].load(std::memory_order_relaxed);
    }
    bf_->revocations_base =
        bf_->revocations.load(std::memory_order_relaxed);
  }
  /// Per-round deltas: partition p's local rounds in the current service
  /// round (its iteration cap counts them), and the deepest partition's
  /// for the report. The bases are controller-written under quiescence,
  /// ordered by the engine submit path.
  int64_t RoundLocalRounds(int p) const {
    return rounds_executed(p) - bf_->round_base[static_cast<size_t>(p)];
  }
  int64_t RoundLocalRounds() const {
    int64_t max = 0;
    for (int p = 0; p < bf_->partitions; ++p) {
      max = std::max(max, RoundLocalRounds(p));
    }
    return max;
  }
  int64_t RoundRevocations() const {
    return bf_->revocations.load(std::memory_order_relaxed) -
           bf_->revocations_base;
  }

 private:
  struct BarrierFree {
    BarrierFree(int partitions, int staleness_bound)
        : partitions(partitions),
          staleness_bound(staleness_bound),
          pending(partitions),  // one startup credit per partition
          local_round(static_cast<size_t>(partitions)),
          rounds_executed(static_cast<size_t>(partitions)),
          voted(static_cast<size_t>(partitions)),
          round_base(static_cast<size_t>(partitions), 0) {
      for (auto& r : local_round) r.store(0, std::memory_order_relaxed);
      for (auto& r : rounds_executed) r.store(0, std::memory_order_relaxed);
      for (auto& v : voted) v.store(false, std::memory_order_relaxed);
    }
    const int partitions;
    const int staleness_bound;
    std::atomic<int64_t> pending;
    std::atomic<int64_t> processed{0};
    std::vector<std::atomic<int64_t>> local_round;
    std::vector<std::atomic<int64_t>> rounds_executed;
    std::vector<std::atomic<bool>> voted;
    std::atomic<int64_t> revocations{0};
    std::atomic<int64_t> max_staleness{0};
    std::atomic<bool> capped{false};
    // Controller-written under round quiescence.
    std::vector<int64_t> round_base;
    int64_t revocations_base = 0;
  };

  std::function<bool(int64_t)> decide_;
  const int num_participants_;
  std::atomic<int> pending_;
  std::atomic<int64_t> superstep_{0};
  std::atomic<bool> terminated_{false};
  std::unique_ptr<BarrierFree> bf_;
};

}  // namespace sfdf
