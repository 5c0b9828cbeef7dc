// Runtime v3 experiment: N resident serving sessions on ONE shared engine
// pool vs N dedicated per-service pools ("thread teams"), plus idle
// tenants riding along for free.
//
// Expected: the shared 2-worker pool sustains >= 0.8x the aggregate
// mutations/s of N dedicated pools on the same host — the fair-share
// scheduler's overhead is small — while hosting 4+ resident services on 2
// workers at all, which the old thread-per-task-instance runtime could not
// do (it pinned parallelism x tasks OS threads per service). Idle tenants
// have nothing queued between rounds, so adding them must not move the
// active tenants' throughput.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "runtime/engine.h"
#include "service/serving_pagerank.h"

namespace {

using namespace sfdf;

struct ConfigResult {
  double cold_seconds = 0;    ///< summed cold convergence of all tenants
  double stream_seconds = 0;  ///< wall time of the mutation storm
  uint64_t streamed = 0;      ///< mutations folded across active tenants
  double sustained = 0;       ///< aggregate mutations/s
  double round_p50_ms = 0;    ///< worst active tenant's p50
  double round_p99_ms = 0;    ///< worst active tenant's p99
  double queue_wait_ms = 0;   ///< summed engine queue wait, active tenants
};

/// Starts `active + idle` PageRank tenants and storms the active ones with
/// single-edge mutations from one writer thread each. `shared` = all
/// tenants on one `pool_workers`-worker engine; otherwise every tenant gets
/// its own dedicated pool of `pool_workers` workers.
ConfigResult RunConfig(const Graph& graph, int active, int idle, bool shared,
                       int pool_workers, int mutations_per_tenant) {
  ConfigResult out;
  std::unique_ptr<Engine> pool;
  if (shared) {
    pool = std::make_unique<Engine>(Engine::Options{.workers = pool_workers});
  }

  ServingPageRankOptions options;
  options.epsilon = 1e-9;
  options.max_batch = 64;
  if (shared) {
    options.engine = pool.get();
  } else {
    options.worker_threads = pool_workers;
  }

  std::vector<std::unique_ptr<ServingPageRank>> tenants;
  Stopwatch cold_watch;
  for (int i = 0; i < active + idle; ++i) {
    auto started = ServingPageRank::Start(graph, options);
    if (!started.ok()) {
      std::printf("tenant %d failed to start: %s\n", i,
                  started.status().ToString().c_str());
      std::exit(1);
    }
    tenants.push_back(std::move(*started));
  }
  out.cold_seconds = cold_watch.ElapsedSeconds();

  const int64_t n = graph.num_vertices();

  // One storm: every active tenant absorbs `mutations_per_tenant` from its
  // own writer thread; returns {seconds, mutations folded}. Repeated on
  // the SAME resident tenants (steady-state serving) with the best run
  // kept — single storms are short enough that how the writers' enqueues
  // fall into group-commit batches dominates a lone sample.
  auto storm = [&](int round) {
    std::vector<uint64_t> before(active);
    for (int i = 0; i < active; ++i) {
      before[i] = tenants[i]->stats().mutations_applied;
    }
    Stopwatch stream_watch;
    std::vector<std::thread> writers;
    std::vector<uint64_t> last_ticket(active, 0);
    for (int w = 0; w < active; ++w) {
      ServingPageRank* tenant = tenants[w].get();
      writers.emplace_back([tenant, &last_ticket, n, w, round,
                            mutations_per_tenant] {
        for (int i = 0; i < mutations_per_tenant; ++i) {
          // Disjoint per-tenant chords; alternate insert/remove so the
          // structure stays bounded and every round does residual work.
          int64_t u = ((w + round * 7) * (n / 8) + i / 2) % n;
          int64_t v = (u + 2 + w) % n;
          GraphMutation m = (i % 2 == 0) ? GraphMutation::EdgeInsert(u, v)
                                         : GraphMutation::EdgeRemove(u, v);
          last_ticket[w] = tenant->Mutate({m});
        }
      });
    }
    for (std::thread& t : writers) t.join();
    for (int w = 0; w < active; ++w) {
      if (last_ticket[w] == 0 || !tenants[w]->Await(last_ticket[w]).ok()) {
        std::printf("tenant %d mutation stream failed\n", w);
        std::exit(1);
      }
    }
    std::pair<double, uint64_t> result{stream_watch.ElapsedSeconds(), 0};
    for (int i = 0; i < active; ++i) {
      result.second += tenants[i]->stats().mutations_applied - before[i];
    }
    return result;
  };

  const int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    auto [seconds, streamed] = storm(rep);
    const double sustained =
        static_cast<double>(streamed) / std::max(seconds, 1e-9);
    if (sustained > out.sustained) {
      out.sustained = sustained;
      out.stream_seconds = seconds;
      out.streamed = streamed;
    }
  }

  for (int i = 0; i < active; ++i) {
    const ServiceStats stats = tenants[i]->stats();
    out.round_p50_ms = std::max(out.round_p50_ms, stats.round_p50_ms);
    out.round_p99_ms = std::max(out.round_p99_ms, stats.round_p99_ms);
    out.queue_wait_ms += stats.engine_queue_wait_total_ms;
  }
  for (auto& tenant : tenants) {
    if (!tenant->Stop().ok()) {
      std::printf("tenant failed to stop cleanly\n");
      std::exit(1);
    }
  }
  return out;
}

void PrintRow(const char* config, int active, int idle, int pool_workers,
              bool shared, const ConfigResult& r) {
  std::printf(
      "row config=%s active=%d idle=%d pool_workers=%d shared=%d "
      "cold_s=%.3f stream_s=%.3f streamed=%llu sustained_per_s=%.0f "
      "round_p50_ms=%.3f round_p99_ms=%.3f queue_wait_ms=%.3f\n",
      config, active, idle, pool_workers, shared ? 1 : 0, r.cold_seconds,
      r.stream_seconds, static_cast<unsigned long long>(r.streamed),
      r.sustained, r.round_p50_ms, r.round_p99_ms, r.queue_wait_ms);
}

}  // namespace

int main() {
  using namespace sfdf;
  bench::Header("Engine multi-tenancy",
                "N resident services: shared pool vs dedicated teams",
                "4 services run on a 2-worker shared pool (impossible under "
                "thread-per-instance); aggregate sustained mutations/s on "
                "the shared pool >= 0.8x of 4 dedicated teams; idle tenants "
                "do not move active throughput");

  const int kActive = 4;
  const int kPoolWorkers = 2;
  const int kMutations = static_cast<int>(Scaled(1000, 20));
  Graph graph = DatasetByName("wikipedia").generate(ScaleFactor() * 0.25);
  std::printf("graph: %s, %d tenants, %d mutations/tenant\n",
              graph.ToString().c_str(), kActive, kMutations);

  // 4 services, one shared pool of 2 workers — the acceptance shape.
  ConfigResult shared =
      RunConfig(graph, kActive, /*idle=*/0, /*shared=*/true, kPoolWorkers,
                kMutations);
  PrintRow("shared", kActive, 0, kPoolWorkers, true, shared);

  // Same, plus 4 idle tenants resident on the same pool.
  ConfigResult shared_idle =
      RunConfig(graph, kActive, /*idle=*/4, /*shared=*/true, kPoolWorkers,
                kMutations);
  PrintRow("shared_plus_idle", kActive, 4, kPoolWorkers, true, shared_idle);

  // Baseline: every service owns a dedicated pool (the old "one thread
  // team per session" layout, expressed in engine terms).
  ConfigResult dedicated =
      RunConfig(graph, kActive, /*idle=*/0, /*shared=*/false, kPoolWorkers,
                kMutations);
  PrintRow("dedicated", kActive, 0, kPoolWorkers, false, dedicated);

  const double share_ratio =
      shared.sustained / std::max(dedicated.sustained, 1e-9);
  const double idle_ratio =
      shared_idle.sustained / std::max(shared.sustained, 1e-9);
  std::printf("%-38s %10.2f\n", "shared/dedicated sustained ratio",
              share_ratio);
  std::printf("%-38s %10.2f\n", "with-idle/shared sustained ratio",
              idle_ratio);
  std::printf("row config=summary share_ratio=%.3f idle_ratio=%.3f\n",
              share_ratio, idle_ratio);

  bench::PrintPeakRss();
  // Acceptance floor, full scale only: the shared pool keeps >= 0.8x the
  // dedicated teams' aggregate throughput. (In smoke mode the per-round
  // work is microseconds and fixed per-round overhead dominates everything,
  // so the ratio is reported but not enforced.)
  if (ScaleFactor() < 1.0) return 0;
  return share_ratio >= 0.8 ? 0 : 1;
}
