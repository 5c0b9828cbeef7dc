// Network serving gateway experiment: end-to-end QPS and latency of the
// TCP RPC front-end vs the same workload driven in-process (the PR 4
// ServiceHost path), on one hosted streamed-CC tenant.
//
// Both phases use identical semantics — every mutation call blocks until
// its warm round committed, queries are epoch-consistent point reads — so
// the delta between them is exactly the network stack: frame codec, epoll
// loop, dispatch pool, completion threads and loopback TCP. Expected: the
// admission queue coalesces concurrent connections' mutations into shared
// rounds, so end-to-end mutations/s stays in the thousands (>= 1000 gate
// at full scale) and query p99 stays in round-trip range; the ping RTT is
// the floor the protocol adds per hop.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "net/client.h"
#include "service/gateway.h"
#include "service/serving_cc.h"

namespace {

using namespace sfdf;

double Quantile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  const size_t index = std::min(
      sorted->size() - 1, static_cast<size_t>(q * sorted->size()));
  return (*sorted)[index];
}

struct PhaseResult {
  double mutations_per_s = 0;
  double query_p50_ms = 0;
  double query_p95_ms = 0;
  double query_p99_ms = 0;
};

/// One writer's deterministic chord stream (disjoint per writer).
GraphMutation ChordOf(int writer, int i, int64_t n) {
  const int64_t u = (writer * (n / 8) + i * 104729) % n;
  const int64_t v = (u + 1 + (i * 7919) % (n - 1)) % n;
  return GraphMutation::EdgeInsert(u, v);
}

}  // namespace

int main() {
  bench::Header("Gateway", "TCP RPC front-end vs in-process serving",
                "mutation coalescing keeps end-to-end throughput >= 1000 "
                "mutations/s over loopback; query p99 stays in "
                "round-trip range; overhead vs in-process is bounded");

  const double scale = ScaleFactor();
  const int64_t n = std::max<int64_t>(64, static_cast<int64_t>(20000 * scale));
  const int kWriters = 4;
  const int kQueryReaders = 2;
  const int per_writer = std::max(40, static_cast<int>(400 * scale));
  const int per_reader = std::max(50, static_cast<int>(500 * scale));

  ServiceHost host(ServiceHost::Options{.workers = 2});
  ServingCc::Options options;
  options.num_vertices = n;
  options.service.max_batch = 256;
  options.service.max_pending_mutations = 1 << 16;
  auto tenant = ServingCc::StartOn(&host, "cc", options);
  if (!tenant.ok()) {
    std::printf("tenant error: %s\n", tenant.status().ToString().c_str());
    return 1;
  }
  // The tenant owns state the resident plan flushes into: stop the host
  // before the tenant is destroyed on every path, error returns included
  // (declared after the tenant so it runs first on unwind).
  struct StopGuard {
    ServiceHost* host;
    ~StopGuard() {
      Status ignored = host->StopAll();
      (void)ignored;
    }
  } stop_guard{&host};
  IterationService& service = (*tenant)->service();
  std::printf("tenant: streamed CC over %lld vertices\n",
              static_cast<long long>(n));

  // --- phase A: in-process baseline (direct ServiceHost calls) -------------
  PhaseResult inproc;
  {
    std::atomic<bool> writers_done{false};
    std::vector<std::thread> threads;
    Stopwatch watch;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int i = 0; i < per_writer; ++i) {
          if (!service.Apply({ChordOf(w, i, n)}).ok()) std::abort();
        }
      });
    }
    std::vector<std::vector<double>> latencies(kQueryReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kQueryReaders; ++r) {
      readers.emplace_back([&, r] {
        for (int i = 0; i < per_reader || !writers_done.load(); ++i) {
          Stopwatch q;
          auto result = service.QueryKey((r * 7717 + i * 131) % n);
          if (!result.found) std::abort();
          latencies[r].push_back(q.ElapsedMillis());
          if (i > per_reader * 50) break;  // safety valve
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const double seconds = watch.ElapsedSeconds();
    writers_done.store(true);
    for (auto& thread : readers) thread.join();
    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    inproc.mutations_per_s = kWriters * per_writer / std::max(seconds, 1e-9);
    inproc.query_p50_ms = Quantile(&all, 0.50);
    inproc.query_p95_ms = Quantile(&all, 0.95);
    inproc.query_p99_ms = Quantile(&all, 0.99);
  }

  // --- phase B: the same workload through the TCP gateway ------------------
  auto gateway = RpcGateway::Start(&host, GatewayOptions{});
  if (!gateway.ok()) {
    std::printf("gateway error: %s\n", gateway.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*gateway)->port();

  // Protocol floor: loopback round trip of an empty frame.
  double ping_rtt_ms = 0;
  {
    auto client = net::RpcClient::Connect("127.0.0.1", port);
    if (!client.ok()) return 1;
    std::vector<double> rtts;
    for (int i = 0; i < 200; ++i) {
      Stopwatch rtt;
      if (!(*client)->Ping().ok()) return 1;
      rtts.push_back(rtt.ElapsedMillis());
    }
    ping_rtt_ms = Quantile(&rtts, 0.50);
  }

  PhaseResult net;
  {
    std::atomic<bool> writers_done{false};
    std::vector<std::thread> threads;
    Stopwatch watch;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        auto client = net::RpcClient::Connect("127.0.0.1", port);
        if (!client.ok()) std::abort();
        for (int i = 0; i < per_writer; ++i) {
          // Offset the stream so the chords are fresh work, like phase A's.
          auto reply =
              (*client)->Mutate("cc", {ChordOf(w, per_writer + i, n)});
          if (!reply.ok()) std::abort();
        }
      });
    }
    std::vector<std::vector<double>> latencies(kQueryReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kQueryReaders; ++r) {
      readers.emplace_back([&, r] {
        auto client = net::RpcClient::Connect("127.0.0.1", port);
        if (!client.ok()) std::abort();
        for (int i = 0; i < per_reader || !writers_done.load(); ++i) {
          Stopwatch q;
          auto result = (*client)->QueryKey("cc", (r * 7717 + i * 131) % n);
          if (!result.ok() || !result->found) std::abort();
          latencies[r].push_back(q.ElapsedMillis());
          if (i > per_reader * 50) break;  // safety valve
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const double seconds = watch.ElapsedSeconds();
    writers_done.store(true);
    for (auto& thread : readers) thread.join();
    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    net.mutations_per_s = kWriters * per_writer / std::max(seconds, 1e-9);
    net.query_p50_ms = Quantile(&all, 0.50);
    net.query_p95_ms = Quantile(&all, 0.95);
    net.query_p99_ms = Quantile(&all, 0.99);
  }

  const ServiceStats stats = service.stats();
  const RpcGateway::Counters counters = (*gateway)->counters();
  if (!(*gateway)->Stop().ok() || !host.StopAll().ok()) return 1;

  const double overhead =
      net.mutations_per_s > 0 ? inproc.mutations_per_s / net.mutations_per_s
                              : 0;
  std::printf("%-36s %12s %12s\n", "measure", "in-process", "gateway");
  std::printf("%-36s %12.0f %12.0f\n", "mutations/s (ack at commit)",
              inproc.mutations_per_s, net.mutations_per_s);
  std::printf("%-36s %12.3f %12.3f\n", "query p50 (ms)", inproc.query_p50_ms,
              net.query_p50_ms);
  std::printf("%-36s %12.3f %12.3f\n", "query p95 (ms)", inproc.query_p95_ms,
              net.query_p95_ms);
  std::printf("%-36s %12.3f %12.3f\n", "query p99 (ms)", inproc.query_p99_ms,
              net.query_p99_ms);
  std::printf("%-36s %12s %12.3f\n", "ping RTT p50 (ms)", "-", ping_rtt_ms);
  std::printf("%-36s %12s %12.1f\n", "throughput overhead (x)", "-",
              overhead);
  std::printf("%-36s %12llu\n", "rounds",
              static_cast<unsigned long long>(stats.rounds));
  std::printf("%-36s %12.1f\n", "avg mutations/round",
              stats.rounds > 0 ? static_cast<double>(stats.mutations_applied) /
                                     static_cast<double>(stats.rounds)
                               : 0.0);
  std::printf("%-36s %12llu\n", "mutations rejected",
              static_cast<unsigned long long>(stats.mutations_rejected));
  std::printf("%-36s %12llu\n", "admission queue depth (final)",
              static_cast<unsigned long long>(stats.admission_queue_depth));
  std::printf("%-36s %12llu\n", "gateway frames in",
              static_cast<unsigned long long>(counters.frames_received));
  std::printf("%-36s %12llu\n", "gateway reads paused",
              static_cast<unsigned long long>(counters.reads_paused));

  std::printf(
      "row inproc_mut_per_s=%.0f net_mut_per_s=%.0f overhead_x=%.2f "
      "inproc_q_p50_ms=%.3f inproc_q_p95_ms=%.3f inproc_q_p99_ms=%.3f "
      "net_q_p50_ms=%.3f net_q_p95_ms=%.3f net_q_p99_ms=%.3f "
      "ping_rtt_ms=%.3f rounds=%llu avg_batch=%.1f rejected=%llu "
      "queue_depth=%llu frames_in=%llu reads_paused=%llu\n",
      inproc.mutations_per_s, net.mutations_per_s, overhead,
      inproc.query_p50_ms, inproc.query_p95_ms, inproc.query_p99_ms,
      net.query_p50_ms, net.query_p95_ms, net.query_p99_ms, ping_rtt_ms,
      static_cast<unsigned long long>(stats.rounds),
      stats.rounds > 0 ? static_cast<double>(stats.mutations_applied) /
                             static_cast<double>(stats.rounds)
                       : 0.0,
      static_cast<unsigned long long>(stats.mutations_rejected),
      static_cast<unsigned long long>(stats.admission_queue_depth),
      static_cast<unsigned long long>(counters.frames_received),
      static_cast<unsigned long long>(counters.reads_paused));

  bench::PrintPeakRss();
  // Acceptance floor, full scale only: the gateway must sustain >= 1000
  // end-to-end mutations/s over loopback.
  if (scale < 1.0) return 0;
  return net.mutations_per_s >= 1000.0 ? 0 : 1;
}
