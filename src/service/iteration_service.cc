#include "service/iteration_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/solution_set.h"
#include "obs/trace.h"

namespace sfdf {

IterationService::IterationService(SeedFn translate, ValidateFn validate,
                                   ServiceOptions options)
    : translate_(std::move(translate)),
      validate_(std::move(validate)),
      options_(std::move(options)) {}

Result<std::unique_ptr<IterationService>> IterationService::Start(
    PhysicalPlan plan, SeedFn translate, ServiceOptions options,
    ValidateFn validate) {
  if (options.max_batch < 1) {
    return Status::InvalidArgument("ServiceOptions.max_batch must be >= 1");
  }
  if (options.max_pending_mutations < 0) {
    return Status::InvalidArgument(
        "ServiceOptions.max_pending_mutations must be >= 0");
  }
  if (!translate) {
    return Status::InvalidArgument("IterationService requires a translator");
  }

  std::unique_ptr<IterationService> service(new IterationService(
      std::move(translate), std::move(validate), options));
  service->plan_ = std::make_unique<PhysicalPlan>(std::move(plan));

  // One-shot setup + cold convergence; the session then stays resident.
  Executor executor(options.exec);
  auto session = executor.StartSession(*service->plan_);
  if (!session.ok()) return session.status();
  service->session_ = std::move(*session);

  service->admission_thread_ =
      std::thread(&IterationService::AdmissionLoop, service.get());
  return service;
}

IterationService::~IterationService() {
  Status ignored = Stop();
  (void)ignored;
}

Status IterationService::Validate(
    const std::vector<GraphMutation>& mutations) const {
  if (!validate_) return Status::OK();
  for (const GraphMutation& mutation : mutations) {
    Status status = validate_(mutation);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

uint64_t IterationService::Mutate(std::vector<GraphMutation> mutations) {
  Status ignored;
  return MutateInternal(std::move(mutations), &ignored);
}

uint64_t IterationService::Mutate(std::vector<GraphMutation> mutations,
                                  Status* rejection) {
  *rejection = Status::OK();
  return MutateInternal(std::move(mutations), rejection);
}

uint64_t IterationService::MutateInternal(std::vector<GraphMutation> mutations,
                                          Status* rejection) {
  if (mutations.empty()) {
    // A flush: the newest existing ticket is already the right thing to
    // Await (0 = nothing enqueued yet, which Await satisfies trivially) —
    // never a rejection.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return enqueued_seq_;
  }
  Status valid = Validate(mutations);
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (!valid.ok() || stopping_ || !failed_.ok()) {
    // Rejections are counted under the queue lock; stats() merges them. A
    // validation failure rejects only this call — the service keeps going.
    rejected_ += mutations.size();
    *rejection = !valid.ok()
                     ? valid
                     : Status::InvalidArgument(
                           "service no longer accepts mutations (stopped "
                           "or failed)");
    return 0;
  }
  if (options_.max_pending_mutations > 0 &&
      pending_.size() + mutations.size() >
          static_cast<size_t>(options_.max_pending_mutations)) {
    // Bounded admission: the queue is the only elastic buffer between
    // clients and the round cadence; past the bound we shed load instead
    // of growing it. Retryable — nothing about this call was invalid.
    rejected_ += mutations.size();
    *rejection = Status::ResourceExhausted(
        "admission queue full (" + std::to_string(pending_.size()) + " of " +
        std::to_string(options_.max_pending_mutations) +
        " pending mutations); retry later");
    return 0;
  }
  pending_.insert(pending_.end(), mutations.begin(), mutations.end());
  enqueued_seq_ += mutations.size();
  queue_cv_.notify_all();
  return enqueued_seq_;
}

Status IterationService::Await(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  queue_cv_.wait(lock, [this, ticket] {
    return applied_seq_ >= ticket || !failed_.ok();
  });
  if (applied_seq_ >= ticket) return Status::OK();
  return failed_;
}

Status IterationService::Apply(std::vector<GraphMutation> mutations) {
  if (mutations.empty()) return Status::OK();
  Status rejection;
  uint64_t ticket = MutateInternal(std::move(mutations), &rejection);
  if (ticket == 0) return rejection;
  return Await(ticket);
}

IterationService::QueryResult IterationService::Query(
    const Record& probe) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return QueryLocked(probe);
}

IterationService::QueryResult IterationService::QueryLocked(
    const Record& probe) const {
  QueryResult result;
  // Seqlock validation: while any reader holds the shared lock the writer
  // cannot be mid-round, so the service epoch must read even and match the
  // batch stamp of the partition the value comes from.
  const uint64_t service_epoch = epoch_.load(std::memory_order_acquire);
  SFDF_DCHECK(service_epoch % 2 == 0) << "read overlapped a round";
  ExecutionSession& session = *session_;
  SolutionSetIndex* partition =
      session.solution_partition(session.PartitionOfSolution(probe));
  const Record* rec = partition->Peek(probe, session.solution_key());
  if (rec != nullptr) {
    result.found = true;
    result.record = *rec;
  }
  // The partition's stamp is the batch boundary this value reflects.
  result.epoch = partition->epoch();
  SFDF_DCHECK(result.epoch == service_epoch) << "partition stamp drifted";
  return result;
}

IterationService::QueryResult IterationService::QueryKey(int64_t key) const {
  // solution_key() walks the live ExecContext, which Reconfigure swaps out
  // under the writer lock: the key check and the probe share one read lock.
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  SFDF_DCHECK(session_->solution_key() == KeySpec{0})
      << "QueryKey assumes the single-int-field-0 solution key";
  return QueryLocked(Record::OfInts(key));
}

IterationService::SnapshotPageResult IterationService::SnapshotPage(
    uint64_t cursor, int64_t max_records) const {
  // Cursor layout: partition index in the high 16 bits, record offset into
  // that partition's stable iteration order in the low 48. Opaque to
  // clients; only meaningful within one committed epoch (the index order
  // is stable as long as no batch merged records and no remap happened).
  constexpr int kOffsetBits = 48;
  constexpr uint64_t kOffsetMask = (uint64_t{1} << kOffsetBits) - 1;
  constexpr int64_t kDefaultPageRecords = 32768;
  const int64_t page = max_records > 0 ? max_records : kDefaultPageRecords;

  SnapshotPageResult result;
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const uint64_t service_epoch = epoch_.load(std::memory_order_acquire);
  SFDF_DCHECK(service_epoch % 2 == 0) << "read overlapped a round";
  const int P = session_->parallelism();
  int p = static_cast<int>(cursor >> kOffsetBits);
  uint64_t skip = cursor & kOffsetMask;
  while (p < P && static_cast<int64_t>(result.records.size()) < page) {
    SolutionSetIndex* partition = session_->solution_partition(p);
    const auto partition_size = static_cast<uint64_t>(partition->size());
    if (skip >= partition_size) {
      ++p;
      skip = 0;
      continue;
    }
    uint64_t index = 0;
    uint64_t consumed = skip;
    partition->ForEachWhile([&](const Record& rec) {
      if (index++ < skip) return true;  // already served by a prior page
      if (static_cast<int64_t>(result.records.size()) >= page) return false;
      result.records.push_back(rec);
      consumed = index;
      return true;
    });
    if (consumed >= partition_size) {
      ++p;
      skip = 0;
    } else {
      skip = consumed;  // page filled mid-partition
      break;
    }
  }
  // Skip trailing empty partitions so the client never pays an empty
  // round-trip for them (only at a partition boundary, skip == 0).
  while (p < P && skip == 0 && session_->solution_partition(p)->size() == 0) {
    ++p;
  }
  result.next_cursor =
      p < P ? (static_cast<uint64_t>(p) << kOffsetBits) | skip : 0;
  result.epoch = session_->solution_partition(0)->epoch();
  SFDF_DCHECK(result.epoch == service_epoch) << "partition stamp drifted";
  return result;
}

IterationService::SnapshotResult IterationService::Snapshot() const {
  SnapshotResult result;
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const uint64_t service_epoch = epoch_.load(std::memory_order_acquire);
  SFDF_DCHECK(service_epoch % 2 == 0) << "read overlapped a round";
  session_->ForEachSolution(
      [&](const Record& rec) { result.records.push_back(rec); });
  // Every partition must carry the same committed batch stamp; that stamp
  // is the boundary the snapshot reflects.
  result.epoch = session_->solution_partition(0)->epoch();
  for (int p = 1; p < session_->parallelism(); ++p) {
    SFDF_DCHECK(session_->solution_partition(p)->epoch() == result.epoch)
        << "partition stamps disagree";
  }
  SFDF_DCHECK(result.epoch == service_epoch) << "partition stamp drifted";
  return result;
}

ServiceStats IterationService::stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats = stats_;
    stats.round_p50_ms = round_latency_.Quantile(0.50);
    stats.round_p95_ms = round_latency_.Quantile(0.95);
    stats.round_p99_ms = round_latency_.Quantile(0.99);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stats.mutations_rejected = rejected_;
    stats.admission_queue_depth = pending_.size();
  }
  return stats;
}

uint64_t IterationService::reconfigs_queued() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return reconfigs_.size();
}

void IterationService::SnapshotEngineStats() {
  // Taken on the admission thread (the only thread that may touch the
  // session) so stats() never races the session teardown in Stop().
  const Engine::ClientStats engine = session_->engine_stats();
  stats_.engine_workers = session_->engine_workers();
  stats_.engine_tasks = engine.tasks_run;
  stats_.engine_queue_wait_total_ms =
      static_cast<double>(engine.queue_wait_ns_total) / 1e6;
  stats_.engine_queue_wait_max_ms =
      static_cast<double>(engine.queue_wait_ns_max) / 1e6;
  stats_.engine_parks = engine.tasks_parked;
  stats_.engine_wakes = engine.tasks_woken;
}

int IterationService::parallelism() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return session_->parallelism();
}

Status IterationService::Reconfigure(int new_partitions, Engine* new_engine) {
  if (new_partitions < 0) {
    return Status::InvalidArgument(
        "Reconfigure new_partitions must be >= 0 (0 = keep current), got " +
        std::to_string(new_partitions));
  }
  ReconfigRequest request;
  request.new_partitions = new_partitions;
  request.new_engine = new_engine;
  std::unique_lock<std::mutex> lock(queue_mutex_);
  if (stopping_ || !failed_.ok()) {
    return !failed_.ok() ? failed_
                         : Status::InvalidArgument(
                               "service no longer accepts reconfigurations "
                               "(stopped or failed)");
  }
  // Hand the request to the admission thread: reconfiguration is session
  // work and the admission thread is the only thread allowed to touch the
  // session. It runs ahead of any pending mutation batch.
  reconfigs_.push_back(&request);
  queue_cv_.notify_all();
  queue_cv_.wait(lock, [&request] { return request.done; });
  return request.result;
}

Status IterationService::DoReconfigure(int new_partitions,
                                       Engine* new_engine) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  // Odd epoch across the whole swap, exactly like a round: readers are
  // excluded by the writer lock (they keep answering from the old shards
  // right up to the lock handover) and lock-free epoch observers can tell
  // a boundary is in flight. The session itself quiesces at the committed
  // round boundary inside ExecutionSession::Reconfigure.
  const uint64_t opened = epoch_.fetch_add(1, std::memory_order_acq_rel);
  SFDF_DCHECK(opened % 2 == 0) << "reconfiguration opened on an odd epoch";
  Stopwatch watch;
  static const uint16_t kReconfigure =
      trace::RegisterName("service.reconfigure");
  trace::Span span(kReconfigure, new_partitions);
  auto report = session_->Reconfigure(new_partitions, new_engine);
  if (report.ok()) {
    // Commit: stamp every partition of the NEW width with the new even
    // epoch. The epoch bump also tells paged-snapshot clients their
    // cursors died with the old shard layout.
    const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    SFDF_DCHECK(epoch % 2 == 0) << "reconfiguration committed an odd epoch";
    for (int p = 0; p < session_->parallelism(); ++p) {
      session_->solution_partition(p)->set_epoch(epoch);
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.reconfigs;
    stats_.reconfig_ms_last = watch.ElapsedMillis();
    stats_.total_supersteps += report->iterations;
    SnapshotEngineStats();
    return Status::OK();
  }
  // Rejected or failed: no boundary was committed — step back to the
  // previous even epoch. On a structural rejection the session still
  // serves at the old width; on a rebuild failure the caller fails the
  // service (the session is finished).
  const uint64_t restored = epoch_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  SFDF_DCHECK(restored % 2 == 0)
      << "rejected reconfiguration left an odd epoch";
  return report.status();
}

Status IterationService::ProcessBatch(
    const std::vector<GraphMutation>& batch) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  // Odd epoch: a round is in flight; readers are excluded by the lock and
  // a lock-free observer can tell the state is mid-batch.
  const uint64_t opened = epoch_.fetch_add(1, std::memory_order_acq_rel);
  SFDF_DCHECK(opened % 2 == 0) << "round opened on an odd epoch";
  Stopwatch watch;
  static const uint16_t kRound = trace::RegisterName("service.round");
  trace::Span span(kRound, static_cast<int64_t>(batch.size()));

  auto seeds = translate_(*session_, batch);
  Status status = seeds.ok() ? Status::OK() : seeds.status();
  IterationReport report;
  if (status.ok()) {
    auto round = session_->RunRound(std::move(*seeds));
    if (round.ok()) {
      report = std::move(*round);
    } else {
      status = round.status();
    }
  }

  if (status.ok()) {
    // Even epoch: the batch boundary is committed; stamp every partition
    // so epoch-tagged reads can attribute values to it.
    const uint64_t epoch =
        epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    SFDF_DCHECK(epoch % 2 == 0) << "round committed an odd epoch";
    for (int p = 0; p < session_->parallelism(); ++p) {
      session_->solution_partition(p)->set_epoch(epoch);
    }
    static const uint16_t kCommit =
        trace::RegisterName("service.epoch.commit");
    trace::Instant(kCommit, static_cast<int64_t>(epoch));
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.rounds;
    stats_.mutations_applied += batch.size();
    stats_.total_supersteps += report.iterations;
    if (report.ran_async) {
      stats_.async_local_rounds += report.iterations;
      stats_.async_vote_revocations += report.vote_revocations;
      stats_.async_max_staleness =
          std::max(stats_.async_max_staleness, report.max_staleness);
    }
    const double round_millis = watch.ElapsedMillis();
    stats_.total_round_millis += round_millis;
    round_latency_.Record(round_millis);
    SnapshotEngineStats();
  } else {
    // Failed batch: no boundary was committed (translators are atomic —
    // they validate before touching any state), so step back to the
    // previous even epoch; reads keep matching the partition stamps.
    const uint64_t restored =
        epoch_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    SFDF_DCHECK(restored % 2 == 0) << "failed round left an odd epoch";
  }
  return status;
}

void IterationService::AdmissionLoop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  // Releases every queued Reconfigure waiter with `status` (stop/failure
  // paths — the remap can no longer happen). Caller holds queue_mutex_.
  auto release_reconfigs = [this](const Status& status) {
    while (!reconfigs_.empty()) {
      ReconfigRequest* request = reconfigs_.front();
      reconfigs_.pop_front();
      request->result = status;
      request->done = true;
    }
  };
  // Fails the service: queued Reconfigure waiters get `status` and the
  // pending mutations are rejected. Caller holds queue_mutex_.
  auto fail = [&](const Status& status) {
    failed_ = status;
    release_reconfigs(status);
    rejected_ += pending_.size();
    pending_.clear();
    queue_cv_.notify_all();
  };
  for (;;) {
    queue_cv_.wait(lock, [this] {
      return stopping_ || !pending_.empty() || !reconfigs_.empty();
    });
    if (stopping_) {
      // No remap happens once the service is winding down; don't leave
      // callers blocked behind the drain.
      release_reconfigs(Status::InvalidArgument(
          "service no longer accepts reconfigurations (stopping)"));
      queue_cv_.notify_all();
    } else if (!reconfigs_.empty()) {
      // Reconfigurations run ahead of any pending mutation batch: the
      // admission queue is held across the remap, and its already-enqueued
      // mutations replay afterwards with their tickets preserved.
      ReconfigRequest* request = reconfigs_.front();
      reconfigs_.pop_front();
      lock.unlock();
      Status status =
          DoReconfigure(request->new_partitions, request->new_engine);
      lock.lock();
      // Structural rejections (InvalidArgument/Unsupported) leave the
      // session serving at the old width and reject only this call;
      // anything else means the rebuild died mid-swap — the session is
      // finished, so the service fails like it does on a failed round.
      const bool fatal = !status.ok() &&
                         status.code() != StatusCode::kInvalidArgument &&
                         status.code() != StatusCode::kUnsupported;
      request->result = status;
      request->done = true;
      if (fatal) return fail(status);
      queue_cv_.notify_all();
      continue;
    }
    if (pending_.empty()) return;  // stopping, fully drained

    // Group commit: the service thread is free, so everything pending (up
    // to max_batch) runs now; what arrives meanwhile is the next batch.
    const size_t take =
        std::min(pending_.size(), static_cast<size_t>(options_.max_batch));
    std::vector<GraphMutation> batch(pending_.begin(),
                                     pending_.begin() + take);
    pending_.erase(pending_.begin(), pending_.begin() + take);
    admitted_seq_ += take;
    const uint64_t ticket = admitted_seq_;
    static const uint16_t kAdmit = trace::RegisterName("service.admit");
    trace::Instant(kAdmit, static_cast<int64_t>(take));

    lock.unlock();
    Status status = ProcessBatch(batch);
    lock.lock();

    if (!status.ok()) return fail(status);
    applied_seq_ = ticket;
    queue_cv_.notify_all();
  }
}

Status IterationService::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    queue_cv_.notify_all();
  }
  if (admission_thread_.joinable()) admission_thread_.join();

  Status status;
  bool finish_session = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    status = failed_;
    finish_session = !joined_;
    joined_ = true;
  }
  // session_ is null when Start() failed before the session came up (the
  // half-constructed service is destroyed on the error path).
  if (finish_session && session_ != nullptr) {
    auto exec = session_->Finish();
    if (exec.ok()) {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      final_result_ = std::move(*exec);
    } else if (status.ok()) {
      status = exec.status();
    }
  }
  return status;
}

std::optional<ExecutionResult> IterationService::final_result() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return final_result_;
}

}  // namespace sfdf
