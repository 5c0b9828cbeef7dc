// Engine: the shared worker-pool execution engine (runtime v3).
//
// The paper's runtime (§5.3) dedicates one OS thread to every dataflow task
// instance. That is fine for a single benchmark run, but it couples logical
// operators to physical threads: N resident serving sessions cost
// N × parallelism parked threads even when every one of them idles at its
// round boundary. The Engine decouples the two the way reconfigurable and
// asynchronous dataflow engines do (PAPERS.md: Fries; Asynchronous Complex
// Analytics): a process holds ONE fixed pool of workers, and everything the
// runtime wants executed — a superstep's partition tasks, a one-shot
// operator instance, a barrier-free round poll — is submitted as a
// schedulable task.
// A resident session between rounds has simply nothing queued, so it
// consumes zero worker time; a process can host arbitrarily many sessions
// on a pool of any size ≥ 1.
//
// ## Clients and fair-share scheduling
//
// Work is submitted under a *client* — one registered lane per plan run or
// resident session. Each client owns a FIFO queue; workers pop round-robin
// across clients with queued tasks. That is the fair-share policy the
// multi-tenant ServiceHost relies on: a service flooding thousands of tasks
// cannot starve a neighbour that has one round pending, because every
// scheduling decision rotates to the next non-empty client before taking a
// second task from the same one.
//
// ## Non-blocking task contract
//
// Pool workers are a shared, fixed resource: a submitted task must RUN TO
// COMPLETION without waiting on another submitted task (no barrier waits,
// no blocking channel reads that only a not-yet-scheduled task can satisfy).
// The executor guarantees this by construction — it schedules a plan in
// dataflow topological order, so every Exchange phase a task reads is fully
// delivered before the task is enqueued, and superstep waves re-enqueue
// themselves from the arrival gate instead of parking threads at a barrier
// (see executor.cc). Controller threads (Executor::Run callers, service
// admission threads) may block on engine-driven completions — they are not
// pool workers.
//
// ## Parked tasks
//
// A cooperative task that runs out of input has two bad options on a shared
// pool: busy re-enqueue (burning workers on empty polls) or blocking (which
// the contract forbids). Park slots are the third: the task hands its
// continuation to the engine (`Park`) and costs nothing until a peer calls
// `Wake`, which moves the continuation back onto the client's queue. The
// wake side is race-free against a concurrent park — a Wake that arrives
// while the task is still deciding to park is remembered as pending and
// consumed by the Park call itself, so no wake-up is ever lost. The
// executor's cooperative PollUnits — barrier-free local rounds (microstep
// chains included) and pipelined streaming tasks — use this instead of
// idle polling: a unit parks when its lanes are empty and is woken by
// whichever producer or peer stages records for it (or observes global
// quiescence). Each poll node owns one slot per partition for the plan
// schedule's whole life.
//
// ## Queue-wait accounting
//
// Every pop records how long the task sat queued; per-client totals and
// high-water marks feed ServiceStats / ExecutionResult so multi-tenant
// saturation is observable (a rising queue wait = the pool is the
// bottleneck, add workers or shed services).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include <condition_variable>
#include <mutex>
#include <thread>

namespace sfdf {

class Engine {
 public:
  struct Options {
    /// OS worker threads in the pool; 0 = DefaultEngineWorkers()
    /// (SFDF_ENGINE_WORKERS, falling back to SFDF_THREADS /
    /// hardware_concurrency). Clamped to >= 1.
    int workers = 0;
  };

  using TaskFn = std::function<void()>;

  /// Scheduling health of one client lane.
  struct ClientStats {
    int64_t tasks_run = 0;           ///< tasks popped by a worker
    int64_t queue_wait_ns_total = 0; ///< summed submit→pop latency
    int64_t queue_wait_ns_max = 0;   ///< worst single submit→pop latency
    int64_t tasks_parked = 0;        ///< continuations handed to a park slot
    int64_t tasks_woken = 0;         ///< parked continuations re-enqueued
  };

  Engine() : Engine(Options()) {}
  explicit Engine(Options options);

  /// Joins the pool. Every client must have been unregistered (i.e. all
  /// plan runs and sessions on this engine finished) before destruction.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a fair-share lane (one per plan run / resident session).
  /// `name` is for diagnostics only. Thread-safe.
  int RegisterClient(std::string name);

  /// Unregisters a lane. The client's queue must be empty — callers
  /// unregister only after the run/session it belongs to completed.
  void UnregisterClient(int client);

  /// Enqueues `fn` on `client`'s lane. Thread-safe; may be called from
  /// inside a running task (that is how superstep waves re-enqueue).
  void Submit(int client, TaskFn fn);

  /// Allocates a park slot on `client`'s lane (one per parkable task).
  /// Destroy with DestroyParkSlot before unregistering the client.
  uint64_t CreateParkSlot(int client);

  /// Parks `fn` on `slot`: it runs only after a Wake. If a Wake already
  /// arrived since the last run (wake-pending), `fn` is enqueued
  /// immediately instead — the caller never needs its own race handling.
  /// A slot holds at most one parked continuation.
  void Park(uint64_t slot, TaskFn fn);

  /// Re-enqueues the slot's parked continuation on its client lane, or —
  /// when nothing is parked right now — records a pending wake that the
  /// next Park consumes. Extra wakes coalesce (at most one is pending).
  void Wake(uint64_t slot);

  /// Frees a park slot. Must not hold a parked continuation (the task it
  /// belongs to has finished); a stale pending wake is fine and dropped.
  void DestroyParkSlot(uint64_t slot);

  /// Snapshot of a client's scheduling counters.
  ClientStats client_stats(int client) const;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// The process-wide shared engine (pool size DefaultEngineWorkers()).
  /// Constructed on first use, joined at process exit.
  static Engine& Default();

 private:
  struct Queued {
    TaskFn fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct ClientState {
    std::string name;
    std::deque<Queued> queue;
    ClientStats stats;
  };
  struct ParkSlot {
    int client = -1;
    TaskFn fn;                 ///< the parked continuation, if any
    bool wake_pending = false; ///< a Wake arrived while nothing was parked
  };

  void WorkerLoop();
  /// Picks the next runnable task round-robin across non-empty clients.
  /// Returns false when nothing is queued. Caller holds mutex_.
  bool PopNext(Queued* out, ClientStats** stats_out);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<int, ClientState> clients_;
  std::map<uint64_t, ParkSlot> park_slots_;
  uint64_t next_park_slot_ = 1;
  int next_client_ = 1;
  int rr_cursor_ = 0;  ///< client id served last; scan resumes after it
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sfdf
