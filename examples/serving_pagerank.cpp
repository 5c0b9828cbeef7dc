// Continuous PageRank serving: converge once, stay resident, fold streamed
// edge mutations in as warm incremental rounds while point reads observe
// batch-consistent, epoch-tagged ranks (src/service/ quickstart).
//
//   $ ./build/examples/serving_pagerank
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/stopwatch.h"
#include "graph/generators.h"
#include "service/serving_pagerank.h"

int main() {
  using namespace sfdf;

  RmatOptions graph_options;
  graph_options.num_vertices = Scaled(1 << 14, 64);
  graph_options.num_edges = Scaled(1 << 16, 256);
  Graph graph = GenerateRmat(graph_options);
  std::printf("graph: %s\n", graph.ToString().c_str());

  // Cold start: one full PageRank convergence, then the solution set stays
  // resident behind the admission queue.
  ServingPageRankOptions options;
  options.epsilon = 1e-9;
  options.max_batch = 64;
  Stopwatch cold_watch;
  auto started = ServingPageRank::Start(graph, options);
  if (!started.ok()) {
    std::printf("error: %s\n", started.status().ToString().c_str());
    return 1;
  }
  ServingPageRank& serving = **started;
  std::printf("cold convergence: %d supersteps in %.1f ms\n",
              serving.initial_report().iterations, cold_watch.ElapsedMillis());

  // Point reads are served from the resident solution set.
  uint64_t epoch = 0;
  auto rank = serving.Rank(0, &epoch);
  if (!rank.ok()) return 1;
  std::printf("rank(0) = %.3e @ epoch %" PRIu64 "\n", *rank, epoch);

  // A single-edge mutation re-converges warm: the round only touches the
  // region the change reaches.
  Stopwatch warm_watch;
  if (!serving.Apply({GraphMutation::EdgeInsert(0, 1)}).ok()) return 1;
  double warm_ms = warm_watch.ElapsedMillis();
  ServiceStats stats = serving.stats();
  std::printf("warm round: 1 edge in %.2f ms (%" PRId64
              " supersteps) vs %.1f ms cold\n",
              warm_ms, stats.total_supersteps, cold_watch.ElapsedMillis());

  // Many clients stream mutations while a reader takes epoch-tagged reads.
  const int kWriters = 4;
  const int kPerWriter = 50;
  Stopwatch stream_watch;
  std::vector<std::thread> writers;
  const int64_t n = graph.num_vertices();
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&serving, n, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        int64_t u = (w * 7919 + i * 104729) % n;
        int64_t v = (u + 1 + (i * 31) % (n - 1)) % n;
        serving.Mutate({GraphMutation::EdgeInsert(u, v)});
      }
    });
  }
  uint64_t last_epoch = 0;
  bool epochs_consistent = true;
  std::thread reader([&serving, &last_epoch, &epochs_consistent] {
    for (int i = 0; i < 2000; ++i) {
      uint64_t e = 0;
      auto r = serving.Rank(i % 64, &e);
      if (!r.ok() || e % 2 != 0 || e < last_epoch) epochs_consistent = false;
      last_epoch = e;
    }
  });
  for (std::thread& t : writers) t.join();
  reader.join();

  // Stop drains everything still queued before tearing the session down.
  if (!serving.Stop().ok()) return 1;
  stats = serving.stats();
  double secs = stream_watch.ElapsedMillis() / 1000.0;
  std::printf("streamed %" PRIu64 " mutations in %" PRIu64
              " batched rounds (%.0f mutations/s), final epoch %" PRIu64 "\n",
              stats.mutations_applied, stats.rounds,
              static_cast<double>(stats.mutations_applied) / secs,
              serving.epoch());
  std::printf("epoch-tagged reads consistent: %s\n",
              epochs_consistent ? "yes" : "NO");
  // kWriters * kPerWriter streamed + the single-edge warm round above.
  return epochs_consistent &&
                 stats.mutations_applied >=
                     static_cast<uint64_t>(kWriters * kPerWriter)
             ? 0
             : 1;
}
